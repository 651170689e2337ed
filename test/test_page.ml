(* Page.Tbl, the unboxed open-addressing index, against a stdlib
   [Hashtbl] model.  Part of the key space is built to share one home
   slot — the last slot of every table size up to 256 — so removals
   shift probe runs back across the end of the slot array; enough
   distinct keys are drawn that the table grows several times. *)

open Simos

let home_last_of_256 k = Page.hash k land 255 = 255

(* Keys whose home slot is the last one at capacities 16 .. 256. *)
let colliding =
  let rec collect acc i =
    if List.length acc = 12 then Array.of_list (List.rev acc)
    else
      let k =
        if i mod 3 = 0 then Page.Anon { pid = -i; vpn = i }
        else Page.File { ino = 9; idx = i }
      in
      collect (if home_last_of_256 k then k :: acc else acc) (i + 1)
  in
  collect [] 0

let firsts = [| 0; 1; 7; -1; -9; min_int; max_int; 1 lsl 43; (2 lsl 44) lor (1 lsl 43) |]

let gen_key =
  QCheck2.Gen.(
    frequency
      [
        (1, map (fun i -> colliding.(i)) (int_bound (Array.length colliding - 1)));
        ( 3,
          map3
            (fun anon a b ->
              let a = firsts.(a) in
              if anon then Page.Anon { pid = a; vpn = b }
              else Page.File { ino = a; idx = b })
            bool
            (int_bound (Array.length firsts - 1))
            (int_range (-4) 40) );
      ])

type op =
  | Add of Page.key * int
  | Replace of Page.key * int
  | Remove of Page.key
  | Mem of Page.key
  | Find of Page.key
  | Length
  | Iter
  | Reset

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        (6, map2 (fun k v -> Add (k, v)) gen_key int);
        (3, map2 (fun k v -> Replace (k, v)) gen_key int);
        (4, map (fun k -> Remove k) gen_key);
        (2, map (fun k -> Mem k) gen_key);
        (2, map (fun k -> Find k) gen_key);
        (1, return Length);
        (1, return Iter);
        (1, return Reset);
      ])

let pp_op = function
  | Add (k, v) -> Printf.sprintf "add(%s,%d)" (Page.to_string k) v
  | Replace (k, v) -> Printf.sprintf "replace(%s,%d)" (Page.to_string k) v
  | Remove k -> Printf.sprintf "remove(%s)" (Page.to_string k)
  | Mem k -> Printf.sprintf "mem(%s)" (Page.to_string k)
  | Find k -> Printf.sprintf "find(%s)" (Page.to_string k)
  | Length -> "length"
  | Iter -> "iter"
  | Reset -> "reset"

let bindings_of_tbl t =
  let l = ref [] in
  Page.Tbl.iter (fun k v -> l := (k, v) :: !l) t;
  List.sort compare !l

let bindings_of_model m = List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) m [])

(* Every binding must stay findable after each operation, so a broken
   backward shift (an entry left unreachable behind a hole) fails on the
   step that caused it. *)
let all_findable t m =
  Hashtbl.fold (fun k v ok -> ok && Page.Tbl.find_or t k ~default:(v + 1) = v) m true

let step t m = function
  | Add (k, v) ->
    (* [add] is for absent keys only *)
    if not (Hashtbl.mem m k) then begin
      Page.Tbl.add t k v;
      Hashtbl.replace m k v
    end;
    true
  | Replace (k, v) ->
    Page.Tbl.replace t k v;
    Hashtbl.replace m k v;
    true
  | Remove k ->
    Page.Tbl.remove t k;
    Hashtbl.remove m k;
    true
  | Mem k -> Page.Tbl.mem t k = Hashtbl.mem m k
  | Find k ->
    (match Page.Tbl.find t k with v -> Some v | exception Not_found -> None)
    = Hashtbl.find_opt m k
  | Length -> Page.Tbl.length t = Hashtbl.length m
  | Iter -> bindings_of_tbl t = bindings_of_model m
  | Reset ->
    Page.Tbl.reset t;
    Hashtbl.reset m;
    true

let prop_model =
  QCheck2.Test.make ~name:"Page.Tbl = Hashtbl model" ~count:300
    ~print:(fun ops -> String.concat ";" (List.map pp_op ops))
    QCheck2.Gen.(list_size (int_range 1 400) gen_op)
    (fun ops ->
      let t = Page.Tbl.create 8 and m = Hashtbl.create 8 in
      List.for_all
        (fun op -> step t m op && all_findable t m && Page.Tbl.length t = Hashtbl.length m)
        ops
      && bindings_of_tbl t = bindings_of_model m)

(* Directed: five keys homed at slot 15 of a 16-slot table fill slots 15,
   0, 1, 2, 3; removing them one at a time from the front shifts the rest
   back across the end of the array. *)
let test_wraparound_shift () =
  let t = Page.Tbl.create 8 in
  Alcotest.(check int) "16 slots" 16 (Page.Tbl.capacity t);
  let keys = Array.sub colliding 0 5 in
  Array.iteri (fun i k -> Page.Tbl.add t k i) keys;
  Array.iteri
    (fun i k ->
      Page.Tbl.remove t k;
      Alcotest.(check bool) "removed" false (Page.Tbl.mem t k);
      for j = i + 1 to 4 do
        Alcotest.(check int) "survivor findable" j (Page.Tbl.find t keys.(j))
      done;
      Alcotest.(check int) "length" (4 - i) (Page.Tbl.length t))
    keys;
  (* and from the middle of the run *)
  Array.iteri (fun i k -> Page.Tbl.add t k i) keys;
  Page.Tbl.remove t keys.(2);
  Alcotest.(check (list int)) "middle removal keeps the rest" [ 0; 1; 3; 4 ]
    (List.map (fun j -> Page.Tbl.find t keys.(j)) [ 0; 1; 3; 4 ]);
  Alcotest.(check int) "no growth" 16 (Page.Tbl.capacity t)

let test_growth () =
  let t = Page.Tbl.create 1 in
  let n = 5000 in
  let key i =
    if i land 1 = 0 then Page.File { ino = i lsl 40; idx = -i }
    else Page.Anon { pid = 3; vpn = i }
  in
  for i = 0 to n - 1 do
    Page.Tbl.add t (key i) i
  done;
  Alcotest.(check bool) "grew" true (Page.Tbl.capacity t > n);
  for i = 0 to n - 1 do
    if i mod 3 = 0 then Page.Tbl.remove t (key i)
  done;
  for i = 0 to n - 1 do
    Alcotest.(check int) "find after removals" (if i mod 3 = 0 then -1 else i)
      (Page.Tbl.find_or t (key i) ~default:(-1))
  done;
  Alcotest.(check int) "length" (n - ((n + 2) / 3)) (Page.Tbl.length t)

let suite =
  [
    Alcotest.test_case "wraparound backward shift" `Quick test_wraparound_shift;
    Alcotest.test_case "growth" `Quick test_growth;
    QCheck_alcotest.to_alcotest prop_model;
  ]

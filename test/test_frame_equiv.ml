(* Differential of the frame-table replacement policies against the boxed
   reference they replaced ([Ref_replacement]).

   [test_pool_equiv] compares two paths over one implementation, so it
   cannot see a rewrite that evicts in a different order.  Here each
   frame-table policy and its reference run the same qcheck traces — at
   the policy level (every [POLICY] operation, capacities small enough
   that the arena grows and recycles freed frames) and at the pool level
   (policy swaps and clears included) — and the full logs must match:
   victims in order with their dirty bits, hit/miss answers, iteration
   order, sizes and counters. *)

open Simos

let impl_of = Replacement.of_name
let ref_of n = List.assoc n Ref_replacement.all

(* First key words: small, negative and extreme ints, inode numbers with
   the metadata bit (43) and volume bits (44 up) set. *)
let firsts =
  [|
    0; 1; 2; 5; -1; -3; min_int; max_int; 1 lsl 43; (1 lsl 44) lor 3;
    (1 lsl 44) lor (1 lsl 43); (3 lsl 44) lor 7;
  |]

let gen_key =
  QCheck2.Gen.(
    map3
      (fun anon a b ->
        let a = firsts.(a) in
        if anon then Page.Anon { pid = a; vpn = b } else Page.File { ino = a; idx = b })
      bool
      (int_bound (Array.length firsts - 1))
      (int_range (-3) 24))

let log_key b key = Buffer.add_string b (Page.to_string key)

let log_victim b key ~dirty =
  Printf.bprintf b "E(";
  log_key b key;
  Printf.bprintf b ",%b);" dirty

let log_iter b (module P : Replacement.POLICY) =
  Buffer.add_string b "it[";
  P.iter (fun k ->
      log_key b k;
      Printf.bprintf b "/%b " (P.is_dirty k));
  Buffer.add_string b "];"

(* ---- policy level -------------------------------------------------------- *)

type op =
  | Access of Page.key * bool
  | Insert of Page.key * bool
  | Evict
  | Remove of Page.key
  | Clean of Page.key
  | Is_dirty of Page.key
  | Mem of Page.key
  | Iter
  | Size

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        (6, map2 (fun k d -> Access (k, d)) gen_key bool);
        (8, map2 (fun k d -> Insert (k, d)) gen_key bool);
        (3, return Evict);
        (2, map (fun k -> Remove k) gen_key);
        (1, map (fun k -> Clean k) gen_key);
        (1, map (fun k -> Is_dirty k) gen_key);
        (1, map (fun k -> Mem k) gen_key);
        (1, return Iter);
        (1, return Size);
      ])

let pp_op = function
  | Access (k, d) -> Printf.sprintf "access(%s,%b)" (Page.to_string k) d
  | Insert (k, d) -> Printf.sprintf "insert(%s,%b)" (Page.to_string k) d
  | Evict -> "evict"
  | Remove k -> Printf.sprintf "remove(%s)" (Page.to_string k)
  | Clean k -> Printf.sprintf "clean(%s)" (Page.to_string k)
  | Is_dirty k -> Printf.sprintf "is_dirty(%s)" (Page.to_string k)
  | Mem k -> Printf.sprintf "mem(%s)" (Page.to_string k)
  | Iter -> "iter"
  | Size -> "size"

let run_policy (factory : Replacement.factory) ~capacity ops =
  let b = Buffer.create 1024 in
  let ((module P : Replacement.POLICY) as p) = factory ~capacity in
  List.iter
    (fun op ->
      match op with
      | Access (k, dirty) -> Printf.bprintf b "a%b;" (P.access k ~dirty)
      | Insert (k, dirty) ->
        (* [insert] requires an absent key *)
        if P.mem k then Buffer.add_string b "present;" else P.insert k ~dirty
      | Evict -> if not (P.evict (log_victim b)) then Buffer.add_string b "e0;"
      | Remove k -> Printf.bprintf b "r%b;" (P.remove k)
      | Clean k -> P.clean k
      | Is_dirty k -> Printf.bprintf b "d%b;" (P.is_dirty k)
      | Mem k -> Printf.bprintf b "m%b;" (P.mem k)
      | Iter -> log_iter b p
      | Size -> Printf.bprintf b "s%d;" (P.size ()))
    ops;
  (* drain: the final order of every resident page *)
  log_iter b p;
  while P.evict (log_victim b) do
    ()
  done;
  Buffer.contents b

let prop_policy name =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s frame table = boxed reference" name)
    ~count:150
    ~print:(fun (capacity, ops) ->
      Printf.sprintf "capacity=%d %s" capacity (String.concat ";" (List.map pp_op ops)))
    QCheck2.Gen.(pair (int_range 1 40) (list_size (int_range 1 250) gen_op))
    (fun (capacity, ops) ->
      run_policy (impl_of name) ~capacity ops = run_policy (ref_of name) ~capacity ops)

(* ---- pool level ---------------------------------------------------------- *)

type pool_op =
  | P_access of Page.key * bool
  | P_evict_one
  | P_take of Page.key
  | P_clean of Page.key
  | P_resize of int
  | P_set_policy of string
  | P_clear
  | P_iter

let gen_pool_op =
  QCheck2.Gen.(
    frequency
      [
        (12, map2 (fun k d -> P_access (k, d)) gen_key bool);
        (1, return P_evict_one);
        (2, map (fun k -> P_take k) gen_key);
        (1, map (fun k -> P_clean k) gen_key);
        (1, map (fun c -> P_resize c) (int_range 1 48));
        (1, map (fun n -> P_set_policy n) (oneofl Replacement.all_names));
        (1, return P_clear);
        (1, return P_iter);
      ])

let pp_pool_op = function
  | P_access (k, d) -> Printf.sprintf "access(%s,%b)" (Page.to_string k) d
  | P_evict_one -> "evict_one"
  | P_take k -> Printf.sprintf "take(%s)" (Page.to_string k)
  | P_clean k -> Printf.sprintf "clean(%s)" (Page.to_string k)
  | P_resize c -> Printf.sprintf "resize(%d)" c
  | P_set_policy n -> Printf.sprintf "set_policy(%s)" n
  | P_clear -> "clear"
  | P_iter -> "iter"

let run_pool ~pick start ~capacity ops =
  let b = Buffer.create 1024 in
  let pool = Pool.create ~name:"diff" ~capacity_pages:capacity ~policy:(pick start) in
  let log_iter () =
    Buffer.add_string b "it[";
    Pool.iter pool (fun k ->
        log_key b k;
        Printf.bprintf b "/%b " (Pool.is_dirty pool k));
    Buffer.add_string b "];"
  in
  List.iter
    (fun op ->
      (match op with
      | P_access (k, dirty) -> (
        match Pool.access pool k ~dirty with
        | `Hit -> Buffer.add_string b "H;"
        | `Filled evs ->
          Buffer.add_string b "M;";
          List.iter (fun (e : Pool.evicted) -> log_victim b e.key ~dirty:e.dirty) evs)
      | P_evict_one -> (
        match Pool.evict_one pool with
        | None -> Buffer.add_string b "e0;"
        | Some e -> log_victim b e.Pool.key ~dirty:e.Pool.dirty)
      | P_take k -> Printf.bprintf b "t%b;" (Pool.take pool k)
      | P_clean k -> Pool.clean pool k
      | P_resize c ->
        List.iter
          (fun (e : Pool.evicted) -> log_victim b e.key ~dirty:e.dirty)
          (Pool.resize pool ~capacity_pages:c)
      | P_set_policy n ->
        Pool.set_policy pool (pick n);
        Printf.bprintf b "P(%s);" (Pool.policy_name pool)
      | P_clear -> Pool.clear pool
      | P_iter -> log_iter ());
      Printf.bprintf b "[%d %d %d %d]" (Pool.hits pool) (Pool.misses pool)
        (Pool.evictions pool) (Pool.resident pool))
    ops;
  log_iter ();
  Buffer.contents b

let prop_pool name =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s pool (swaps, clears) = boxed reference" name)
    ~count:100
    ~print:(fun (capacity, ops) ->
      Printf.sprintf "capacity=%d %s" capacity
        (String.concat ";" (List.map pp_pool_op ops)))
    QCheck2.Gen.(pair (int_range 1 32) (list_size (int_range 1 250) gen_pool_op))
    (fun (capacity, ops) ->
      run_pool ~pick:impl_of name ~capacity ops = run_pool ~pick:ref_of name ~capacity ops)

let suite =
  List.map (fun n -> QCheck_alcotest.to_alcotest (prop_policy n)) Replacement.all_names
  @ List.map (fun n -> QCheck_alcotest.to_alcotest (prop_pool n)) Replacement.all_names

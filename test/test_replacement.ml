(* Replacement policies: reference behaviours and shared invariants. *)

open Simos

let fkey i = Page.File { ino = 1; idx = i }

let insert_range (module P : Replacement.POLICY) lo hi =
  for i = lo to hi do
    P.insert (fkey i) ~dirty:false
  done

(* v2 policies stream the victim through a callback; tests want the key. *)
let victim (module P : Replacement.POLICY) =
  let r = ref None in
  ignore (P.evict (fun k ~dirty:_ -> r := Some k));
  !r

let touch (module P : Replacement.POLICY) key = ignore (P.access key ~dirty:false)

let test_lru_order () =
  let (module P) = Replacement.lru ~capacity:10 in
  insert_range (module P) 0 3;
  (* order now (MRU..LRU): 3 2 1 0; touch 0 -> 0 3 2 1 *)
  touch (module P) (fkey 0);
  Alcotest.(check (option string)) "victim 1" (Some "file(ino=1,page=1)")
    (Option.map Page.to_string (victim (module P)));
  Alcotest.(check (option string)) "victim 2" (Some "file(ino=1,page=2)")
    (Option.map Page.to_string (victim (module P)));
  Alcotest.(check (option string)) "victim 3" (Some "file(ino=1,page=3)")
    (Option.map Page.to_string (victim (module P)));
  Alcotest.(check (option string)) "victim 0" (Some "file(ino=1,page=0)")
    (Option.map Page.to_string (victim (module P)));
  Alcotest.(check (option string)) "empty" None
    (Option.map Page.to_string (victim (module P)))

let test_mru_sticky_keeps_oldest () =
  let (module P) = Replacement.mru_sticky ~capacity:10 in
  insert_range (module P) 0 4;
  (* victim should be the newest page, so the first-loaded data persists *)
  Alcotest.(check (option string)) "evicts newest" (Some "file(ino=1,page=4)")
    (Option.map Page.to_string (victim (module P)));
  Alcotest.(check (option string)) "then next newest" (Some "file(ino=1,page=3)")
    (Option.map Page.to_string (victim (module P)));
  Alcotest.(check bool) "oldest still resident" true (P.mem (fkey 0))

let test_fifo_ignores_touch () =
  let (module P) = Replacement.fifo ~capacity:10 in
  insert_range (module P) 0 2;
  touch (module P) (fkey 0);
  touch (module P) (fkey 0);
  Alcotest.(check (option string)) "victim is oldest" (Some "file(ino=1,page=0)")
    (Option.map Page.to_string (victim (module P)))

let test_clock_second_chance () =
  let (module P) = Replacement.clock ~capacity:10 in
  insert_range (module P) 0 2;
  (* pages arrive referenced (fault = reference); the first sweep clears
     every bit and falls back to FIFO: the oldest page goes *)
  Alcotest.(check (option string)) "first sweep takes oldest" (Some "file(ino=1,page=0)")
    (Option.map Page.to_string (victim (module P)));
  (* re-reference 1: it gets a second chance over the older 2 *)
  touch (module P) (fkey 1);
  Alcotest.(check (option string)) "skips referenced" (Some "file(ino=1,page=2)")
    (Option.map Page.to_string (victim (module P)));
  Alcotest.(check (option string)) "finally 1" (Some "file(ino=1,page=1)")
    (Option.map Page.to_string (victim (module P)))

let test_two_q_promotion () =
  let (module P) = Replacement.two_q ~capacity:8 in
  insert_range (module P) 0 7;
  (* probation quota is capacity/4 = 2 and holds 8 pages *)
  touch (module P) (fkey 7);
  (* 7 promoted to main; evictions drain the over-quota probation queue *)
  for i = 0 to 4 do
    Alcotest.(check (option string))
      (Printf.sprintf "victim %d" i)
      (Some (Page.to_string (fkey i)))
      (Option.map Page.to_string (victim (module P)))
  done;
  Alcotest.(check bool) "7 still resident" true (P.mem (fkey 7))

let test_segmented_promotion () =
  let (module P) = Replacement.segmented_lru ~capacity:8 in
  insert_range (module P) 0 3;
  touch (module P) (fkey 1);
  (* 1 is protected; probation victims go first *)
  Alcotest.(check (option string)) "probation tail" (Some "file(ino=1,page=0)")
    (Option.map Page.to_string (victim (module P)));
  Alcotest.(check bool) "protected survives" true (P.mem (fkey 1))

let test_remove () =
  List.iter
    (fun factory ->
      let (module P : Replacement.POLICY) = factory ~capacity:8 in
      insert_range (module P) 0 3;
      Alcotest.(check bool) (P.name ^ " remove reports presence") true
        (P.remove (fkey 2));
      Alcotest.(check bool) (P.name ^ " removed") false (P.mem (fkey 2));
      Alcotest.(check int) (P.name ^ " size") 3 (P.size ());
      Alcotest.(check bool) (P.name ^ " double remove is a no-op") false
        (P.remove (fkey 2)))
    [
      Replacement.lru;
      Replacement.clock;
      Replacement.fifo;
      Replacement.mru_sticky;
      Replacement.two_q;
      Replacement.segmented_lru;
      Replacement.eelru;
    ]

let test_dirty_tracking () =
  (* the dirty bit rides with the page: set on access or insert, reported
     at eviction, cleared only by removal *)
  List.iter
    (fun factory ->
      let (module P : Replacement.POLICY) = factory ~capacity:8 in
      P.insert (fkey 0) ~dirty:false;
      P.insert (fkey 1) ~dirty:true;
      Alcotest.(check bool) (P.name ^ " clean") false (P.is_dirty (fkey 0));
      Alcotest.(check bool) (P.name ^ " dirty") true (P.is_dirty (fkey 1));
      ignore (P.access (fkey 0) ~dirty:true);
      Alcotest.(check bool) (P.name ^ " dirtied by access") true (P.is_dirty (fkey 0));
      (* dirty bit is sticky: a later clean access does not clear it *)
      ignore (P.access (fkey 0) ~dirty:false);
      Alcotest.(check bool) (P.name ^ " sticky") true (P.is_dirty (fkey 0));
      let dirty_evicted = ref 0 in
      while P.evict (fun _ ~dirty -> if dirty then incr dirty_evicted) do
        ()
      done;
      Alcotest.(check int) (P.name ^ " dirty victims") 2 !dirty_evicted)
    [
      Replacement.lru;
      Replacement.clock;
      Replacement.fifo;
      Replacement.mru_sticky;
      Replacement.two_q;
      Replacement.segmented_lru;
      Replacement.eelru;
    ]

(* Drive a policy like a capacity-bound pool would. *)
let access_with (module P : Replacement.POLICY) ~capacity key =
  if P.access key ~dirty:false then true
  else begin
    if P.size () >= capacity then ignore (P.evict (fun _ ~dirty:_ -> ()));
    P.insert key ~dirty:false;
    false
  end

let loop_hit_rate factory ~capacity ~loop ~rounds =
  let (module P : Replacement.POLICY) = factory ~capacity in
  let hits = ref 0 and total = ref 0 in
  for round = 1 to rounds do
    for i = 0 to loop - 1 do
      let hit = access_with (module P) ~capacity (fkey i) in
      (* count only after the warm-up round *)
      if round > 1 then begin
        incr total;
        if hit then incr hits
      end
    done
  done;
  float_of_int !hits /. float_of_int (max 1 !total)

let test_eelru_survives_looping () =
  (* a loop 1.5x memory: pure LRU hits nothing (the paper's "LRU
     worst-case mode"); EELRU's early eviction keeps part of the loop
     resident *)
  let lru_rate = loop_hit_rate Replacement.lru ~capacity:100 ~loop:150 ~rounds:6 in
  let eelru_rate = loop_hit_rate Replacement.eelru ~capacity:100 ~loop:150 ~rounds:6 in
  Alcotest.(check (float 0.001)) "lru thrashes" 0.0 lru_rate;
  Alcotest.(check bool)
    (Printf.sprintf "eelru adapts (%.2f)" eelru_rate)
    true (eelru_rate > 0.25)

let test_eelru_plain_lru_when_fitting () =
  (* without ghost re-references it behaves like LRU: everything fits *)
  let rate = loop_hit_rate Replacement.eelru ~capacity:100 ~loop:80 ~rounds:4 in
  Alcotest.(check (float 0.001)) "all hits" 1.0 rate

let test_of_name () =
  List.iter
    (fun n ->
      let (module P) = (Replacement.of_name n) ~capacity:4 in
      Alcotest.(check string) "name matches" n P.name)
    Replacement.all_names;
  Alcotest.(check bool) "unknown raises" true
    (try
       let (_ : Replacement.factory) = Replacement.of_name "nope" in
       false
     with Invalid_argument _ -> true)

(* Property: for every policy, insert/access/evict keeps the tracked set
   consistent — size equals distinct inserts minus victims/removes, victims
   are always resident before eviction, iter visits exactly the members. *)
let prop_policy_consistency factory policy_label =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s set consistency" policy_label)
    ~count:100
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 2))
    (fun ops ->
      let (module P : Replacement.POLICY) = factory ~capacity:64 in
      let model = Hashtbl.create 64 in
      let next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
            (* insert a fresh key *)
            let k = fkey !next in
            incr next;
            P.insert k ~dirty:false;
            Hashtbl.replace model k ();
            P.mem k
          | 1 -> (
            match victim (module P) with
            | None -> Hashtbl.length model = 0
            | Some k ->
              let was_member = Hashtbl.mem model k in
              Hashtbl.remove model k;
              was_member && not (P.mem k))
          | _ ->
            (* access a random existing key (or a missing one: a miss
               leaves the policy state untouched) *)
            let k = fkey (max 0 (!next - 1)) in
            let hit = P.access k ~dirty:false in
            hit = Hashtbl.mem model k && P.size () = Hashtbl.length model)
        ops
      && P.size () = Hashtbl.length model
      &&
      let seen = ref 0 in
      P.iter (fun k ->
          if Hashtbl.mem model k then incr seen);
      !seen = Hashtbl.length model)

(* The per-page paths of the pool must not allocate: a hit costs zero
   minor words, a miss that evicts costs at most the victim key (3
   words) handed to the callback.  Steady state only: the pools are
   filled and one round of evictions is run first, so the frame arena,
   the index and EELRU's ghost list have reached their working size. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let no_evict _ ~dirty:_ = ()

let test_hot_paths_allocate_nothing () =
  let capacity = 512 in
  let key i =
    if i land 1 = 0 then Page.File { ino = (1 lsl 44) lor 5; idx = i }
    else Page.Anon { pid = 9; vpn = i }
  in
  let resident = Array.init capacity key in
  let fresh = Array.init (8 * capacity) (fun i -> key (capacity + i)) in
  let overhead = minor_words (fun () -> ()) in
  List.iter
    (fun name ->
      let pool =
        Pool.create ~name ~capacity_pages:capacity ~policy:(Replacement.of_name name)
      in
      let miss k ~dirty =
        if not (Pool.try_hit pool k ~dirty) then Pool.fill pool k ~dirty ~on_evict:no_evict
      in
      Array.iter (fun k -> miss k ~dirty:false) resident;
      let hits = ref 0 in
      let words =
        minor_words (fun () ->
            for round = 1 to 4 do
              for i = 0 to capacity - 1 do
                let dirty = i mod (round + 2) = 0 in
                if Pool.try_hit pool resident.(i) ~dirty then incr hits
              done
            done)
      in
      Alcotest.(check int) (name ^ ": every access hit") (4 * capacity) !hits;
      Alcotest.(check (float 0.0)) (name ^ ": minor words per hit") 0.0
        ((words -. overhead) /. float_of_int !hits);
      (* warm the eviction path, then measure it *)
      for i = 0 to (2 * capacity) - 1 do
        miss fresh.(i) ~dirty:(i land 3 = 0)
      done;
      let evictions0 = Pool.evictions pool in
      let words =
        minor_words (fun () ->
            for i = 2 * capacity to Array.length fresh - 1 do
              miss fresh.(i) ~dirty:(i land 3 = 0)
            done)
      in
      let evicted = Pool.evictions pool - evictions0 in
      Alcotest.(check int) (name ^ ": one eviction per miss") (6 * capacity) evicted;
      let per_eviction = (words -. overhead) /. float_of_int evicted in
      if per_eviction > 3.0 then
        Alcotest.failf "%s: %.2f minor words per eviction (at most the 3-word victim key)"
          name per_eviction)
    Replacement.all_names

let suite =
  [
    Alcotest.test_case "lru order" `Quick test_lru_order;
    Alcotest.test_case "mru-sticky keeps oldest" `Quick test_mru_sticky_keeps_oldest;
    Alcotest.test_case "fifo ignores touch" `Quick test_fifo_ignores_touch;
    Alcotest.test_case "clock second chance" `Quick test_clock_second_chance;
    Alcotest.test_case "two-q promotion" `Quick test_two_q_promotion;
    Alcotest.test_case "segmented promotion" `Quick test_segmented_promotion;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "dirty tracking" `Quick test_dirty_tracking;
    Alcotest.test_case "of_name" `Quick test_of_name;
    QCheck_alcotest.to_alcotest (prop_policy_consistency Replacement.lru "lru");
    QCheck_alcotest.to_alcotest (prop_policy_consistency Replacement.clock "clock");
    QCheck_alcotest.to_alcotest (prop_policy_consistency Replacement.fifo "fifo");
    QCheck_alcotest.to_alcotest
      (prop_policy_consistency Replacement.mru_sticky "mru-sticky");
    QCheck_alcotest.to_alcotest (prop_policy_consistency Replacement.two_q "two-q");
    QCheck_alcotest.to_alcotest
      (prop_policy_consistency Replacement.segmented_lru "segmented-lru");
    Alcotest.test_case "eelru survives looping" `Quick test_eelru_survives_looping;
    Alcotest.test_case "eelru = lru when fitting" `Quick test_eelru_plain_lru_when_fitting;
    QCheck_alcotest.to_alcotest (prop_policy_consistency Replacement.eelru "eelru");
    Alcotest.test_case "hot paths allocate nothing" `Quick test_hot_paths_allocate_nothing;
  ]

(* Differential equivalence of the batched run API against the per-page
   path.

   The batched fast path (Pool.try_hit + Pool.fill, Memory.access_run)
   exists purely for speed: every observable — hit/miss classification, victim
   sequence and dirty bits, counters, resident sets, and (at the kernel
   level) the per-page noise-draw alignment — must match the per-page
   path exactly.  These properties drive both paths with the same
   qcheck-generated traces of mixed reads, writes, invalidates and
   resizes, across all seven replacement policies, and compare full
   event logs rather than summaries so an ordering drift fails loudly. *)

open Simos

let fkey i = Page.File { ino = 3; idx = i }
let akey i = Page.Anon { pid = 7; vpn = i }

let policies =
  [
    ("lru", Replacement.lru);
    ("clock", Replacement.clock);
    ("fifo", Replacement.fifo);
    ("mru-sticky", Replacement.mru_sticky);
    ("two-q", Replacement.two_q);
    ("segmented-lru", Replacement.segmented_lru);
    ("eelru", Replacement.eelru);
  ]

(* ---- trace language ---------------------------------------------------- *)

type op =
  | Run of { start : int; len : int; dirty : bool }
  | Inval of int
  | Inval_mod of int
  | Resize of int
  | Evict_one

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        ( 6,
          map3
            (fun start len dirty -> Run { start; len; dirty })
            (int_range 0 48) (int_range 1 12) bool );
        (1, map (fun i -> Inval i) (int_range 0 48));
        (1, map (fun m -> Inval_mod m) (int_range 2 5));
        (1, map (fun c -> Resize c) (int_range 1 24));
        (1, return Evict_one);
      ])

let gen_trace = QCheck2.Gen.(list_size (int_range 1 60) gen_op)

let pp_op = function
  | Run { start; len; dirty } -> Printf.sprintf "run(%d,%d,%b)" start len dirty
  | Inval i -> Printf.sprintf "inval(%d)" i
  | Inval_mod m -> Printf.sprintf "inval_mod(%d)" m
  | Resize c -> Printf.sprintf "resize(%d)" c
  | Evict_one -> "evict_one"

let print_trace ops = String.concat ";" (List.map pp_op ops)

(* ---- pool-level differential ------------------------------------------- *)

let log_victim b key ~dirty =
  Printf.bprintf b "E(%s,%b);" (Page.to_string key) dirty

(* Per-page reference: the list-building API, one call per page. *)
let pool_per_page b p = function
  | Run { start; len; dirty } ->
    for i = start to start + len - 1 do
      (match Pool.access p (fkey i) ~dirty with
      | `Hit -> Printf.bprintf b "H(%d);" i
      | `Filled evs ->
        Printf.bprintf b "M(%d);" i;
        List.iter (fun (e : Pool.evicted) -> log_victim b e.key ~dirty:e.dirty) evs;
        Printf.bprintf b "n=%d;" (List.length evs))
    done
  | Inval i -> Pool.invalidate p (fkey i)
  | Inval_mod m ->
    let n =
      Pool.invalidate_if p (function
        | Page.File { idx; _ } -> idx mod m = 0
        | Page.Anon _ -> false)
    in
    Printf.bprintf b "I(%d);" n
  | Resize c ->
    let evs = Pool.resize p ~capacity_pages:c in
    List.iter (fun (e : Pool.evicted) -> log_victim b e.key ~dirty:e.dirty) evs
  | Evict_one -> (
    match Pool.evict_one p with
    | None -> Printf.bprintf b "e0;"
    | Some e -> log_victim b e.Pool.key ~dirty:e.Pool.dirty)

(* Batched: one [try_hit] per page and, for each page that missed, a
   [fill] that streams its victims through a callback, for the same
   trace.  The per-page path logs an eviction count after each miss;
   count the callbacks to write the same line. *)
let pool_batched b p op =
  match op with
  | Run { start; len; dirty } ->
    for i = start to start + len - 1 do
      if Pool.try_hit p (fkey i) ~dirty then Printf.bprintf b "H(%d);" i
      else begin
        Printf.bprintf b "M(%d);" i;
        let nev = ref 0 in
        Pool.fill p (fkey i) ~dirty ~on_evict:(fun key ~dirty ->
            incr nev;
            log_victim b key ~dirty);
        Printf.bprintf b "n=%d;" !nev
      end
    done
  | Inval i -> Pool.invalidate p (fkey i)
  | Inval_mod m ->
    let n =
      Pool.invalidate_if p (function
        | Page.File { idx; _ } -> idx mod m = 0
        | Page.Anon _ -> false)
    in
    Printf.bprintf b "I(%d);" n
  | Resize c -> Pool.resize_into p ~capacity_pages:c ~on_evict:(log_victim b)
  | Evict_one -> (
    match Pool.evict_one p with
    | None -> Printf.bprintf b "e0;"
    | Some e -> log_victim b e.Pool.key ~dirty:e.Pool.dirty)

let resident_snapshot p =
  let out = ref [] in
  Pool.iter p (fun k ->
      out := Printf.sprintf "%s:%b" (Page.to_string k) (Pool.is_dirty p k) :: !out);
  (* iteration order is policy-internal; compare as a set *)
  String.concat "," (List.sort compare !out)

let counters p =
  Printf.sprintf "h=%d m=%d e=%d r=%d c=%d" (Pool.hits p) (Pool.misses p)
    (Pool.evictions p) (Pool.resident p) (Pool.capacity p)

let prop_pool_equiv (label, factory) =
  QCheck2.Test.make
    ~name:(Printf.sprintf "pool batched = per-page (%s)" label)
    ~count:200 ~print:print_trace gen_trace
    (fun ops ->
      let ref_pool = Pool.create ~name:"ref" ~capacity_pages:8 ~policy:factory in
      let run_pool = Pool.create ~name:"run" ~capacity_pages:8 ~policy:factory in
      let ref_log = Buffer.create 256 and run_log = Buffer.create 256 in
      List.iter (fun op -> pool_per_page ref_log ref_pool op) ops;
      List.iter (fun op -> pool_batched run_log run_pool op) ops;
      String.equal (Buffer.contents ref_log) (Buffer.contents run_log)
      && String.equal (resident_snapshot ref_pool) (resident_snapshot run_pool)
      && String.equal (counters ref_pool) (counters run_pool))

(* ---- memory-level differential, noiseless and noisy -------------------- *)

(* The kernel draws one lognormal factor per touched page when the
   platform is noisy (sigma > 0) and none when it is noiseless — exactly
   [Kernel.noised]'s guard.  Replaying that draw discipline here from two
   identical generators proves the batched path keeps the per-page RNG
   draw order: any skipped or extra draw desynchronises the logged
   factors immediately. *)
let mem_op_gen =
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (map3
         (fun is_file start (len, dirty) -> (is_file, start, len, dirty))
         bool (int_range 0 30)
         (pair (int_range 1 10) bool)))

let mem_layout () =
  Memory.create ~usable_pages:24
    (Memory.Unified_balanced { policy = Replacement.lru; file_floor_pages = 4 })

let mem_key is_file i = if is_file then fkey i else akey i

let mem_per_page b rng ~sigma m ops =
  List.iter
    (fun (is_file, start, len, dirty) ->
      for i = start to start + len - 1 do
        let key = mem_key is_file i in
        (match Memory.access m key ~dirty with
        | `Hit -> Printf.bprintf b "H(%s);" (Page.to_string key)
        | `Filled evs ->
          Printf.bprintf b "M(%s);" (Page.to_string key);
          List.iter (fun (e : Pool.evicted) -> log_victim b e.key ~dirty:e.dirty) evs);
        if sigma > 0.0 then
          Printf.bprintf b "noise=%h;" (Gray_util.Dist.lognormal_factor rng ~sigma)
      done)
    ops

(* [on_page_end]'s eviction count is checked against the victims the
   page streamed; a mismatch shows in the log. *)
let mem_batched b rng ~sigma m ops =
  List.iter
    (fun (is_file, start, len, dirty) ->
      let nev = ref 0 in
      Memory.access_run m ~n:len
        ~key:(fun i -> mem_key is_file (start + i))
        ~dirty
        ~on_hit:(fun _ key -> Printf.bprintf b "H(%s);" (Page.to_string key))
        ~on_miss:(fun _ key -> Printf.bprintf b "M(%s);" (Page.to_string key))
        ~on_evict:(fun key ~dirty ->
          incr nev;
          log_victim b key ~dirty)
        ~on_page_end:(fun _ ~evicted ->
          if evicted <> !nev then Printf.bprintf b "COUNT-MISMATCH;";
          nev := 0;
          if sigma > 0.0 then
            Printf.bprintf b "noise=%h;" (Gray_util.Dist.lognormal_factor rng ~sigma)))
    ops

let prop_memory_equiv ~sigma label =
  QCheck2.Test.make
    ~name:(Printf.sprintf "memory batched = per-page (%s)" label)
    ~count:200 mem_op_gen
    (fun ops ->
      let ref_mem = mem_layout () and run_mem = mem_layout () in
      let ref_rng = Gray_util.Rng.create ~seed:2026 in
      let run_rng = Gray_util.Rng.create ~seed:2026 in
      let ref_log = Buffer.create 256 and run_log = Buffer.create 256 in
      mem_per_page ref_log ref_rng ~sigma ref_mem ops;
      mem_batched run_log run_rng ~sigma run_mem ops;
      String.equal (Buffer.contents ref_log) (Buffer.contents run_log)
      && Memory.resident_file ref_mem = Memory.resident_file run_mem
      && Memory.resident_anon ref_mem = Memory.resident_anon run_mem
      && Memory.file_capacity ref_mem = Memory.file_capacity run_mem
      && String.equal
           (resident_snapshot (Memory.file_pool ref_mem))
           (resident_snapshot (Memory.file_pool run_mem))
      && String.equal
           (resident_snapshot (Memory.anon_pool ref_mem))
           (resident_snapshot (Memory.anon_pool run_mem)))

(* ---- pool coverage gaps ------------------------------------------------ *)

let test_resize_order_and_dirty () =
  let p = Pool.create ~name:"t" ~capacity_pages:6 ~policy:Replacement.lru in
  for i = 0 to 5 do
    ignore (Pool.access p (fkey i) ~dirty:(i mod 2 = 0))
  done;
  (* shrink to 2: pages 0..3 must leave in LRU order, dirty bits intact *)
  let evs = Pool.resize p ~capacity_pages:2 in
  Alcotest.(check (list string))
    "eviction order is LRU order"
    [ "file(ino=3,page=0)"; "file(ino=3,page=1)"; "file(ino=3,page=2)";
      "file(ino=3,page=3)" ]
    (List.map (fun (e : Pool.evicted) -> Page.to_string e.key) evs);
  Alcotest.(check (list bool))
    "victim dirty flags survive the resize"
    [ true; false; true; false ]
    (List.map (fun (e : Pool.evicted) -> e.dirty) evs);
  Alcotest.(check int) "capacity updated" 2 (Pool.capacity p);
  Alcotest.(check int) "residents bounded" 2 (Pool.resident p);
  Alcotest.(check bool) "survivor keeps dirty bit" true (Pool.is_dirty p (fkey 4));
  Alcotest.(check bool) "survivor keeps clean bit" false (Pool.is_dirty p (fkey 5));
  (* growing evicts nothing *)
  Alcotest.(check int) "grow evicts nothing" 0
    (List.length (Pool.resize p ~capacity_pages:16));
  Alcotest.(check int) "grown capacity" 16 (Pool.capacity p)

let test_pool_invalidate_if_counting () =
  let p = Pool.create ~name:"t" ~capacity_pages:8 ~policy:Replacement.lru in
  for i = 0 to 5 do
    ignore (Pool.access p (fkey i) ~dirty:false)
  done;
  let evictions_before = Pool.evictions p in
  let n =
    Pool.invalidate_if p (function
      | Page.File { idx; _ } -> idx mod 2 = 0
      | Page.Anon _ -> false)
  in
  Alcotest.(check int) "counts exactly the matches" 3 n;
  Alcotest.(check int) "survivors" 3 (Pool.resident p);
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "page %d gone iff even" i)
        (i mod 2 = 1)
        (Pool.contains p (fkey i)))
    [ 0; 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "invalidation is not an eviction" evictions_before
    (Pool.evictions p);
  Alcotest.(check int) "no matches counts zero" 0
    (Pool.invalidate_if p (fun _ -> false))

(* A policy that claims residents it cannot evict: the pool must fail
   loudly instead of spinning or silently overfilling. *)
let lying_policy : Replacement.factory =
 fun ~capacity:_ ->
  (module struct
    let name = "lying"
    let mem _ = false
    let is_dirty _ = false
    let access _ ~dirty:_ = false
    let insert _ ~dirty:_ = ()
    let evict _ = false
    let remove _ = false
    let clean _ = ()
    let size () = 42
    let iter _ = ()
  end : Replacement.POLICY)

let test_policy_lost_pages () =
  let p = Pool.create ~name:"t" ~capacity_pages:1 ~policy:lying_policy in
  Alcotest.check_raises "access fails loudly"
    (Failure "Pool.access: policy lost pages") (fun () ->
      ignore (Pool.access p (fkey 0) ~dirty:false));
  let p2 = Pool.create ~name:"t" ~capacity_pages:4 ~policy:lying_policy in
  Alcotest.check_raises "resize fails loudly"
    (Failure "Pool.resize: policy lost pages") (fun () ->
      ignore (Pool.resize p2 ~capacity_pages:1))

let suite =
  List.map prop_pool_equiv policies
  |> List.map QCheck_alcotest.to_alcotest
  |> fun props ->
  props
  @ [
      QCheck_alcotest.to_alcotest (prop_memory_equiv ~sigma:0.0 "noiseless");
      QCheck_alcotest.to_alcotest (prop_memory_equiv ~sigma:0.08 "noisy");
      Alcotest.test_case "resize order + dirty survival" `Quick
        test_resize_order_and_dirty;
      Alcotest.test_case "invalidate_if counting" `Quick
        test_pool_invalidate_if_counting;
      Alcotest.test_case "policy lost pages" `Quick test_policy_lost_pages;
    ]

(* Per-process accounting: restart semantics, initiator attribution of
   sync-driven writebacks, and the attribution-exactness invariant (every
   global counter equals the sum of the per-pid cells) on randomized
   multi-process workloads — serial and across a domain pool. *)

open Simos

(* Memory-starved so randomized workloads actually evict. *)
let small_platform =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 24; kernel_reserved_mib = 16 }
    ~sigma:0.0

let boot ?crash ~seed () =
  let engine = Engine.create () in
  Kernel.boot ~engine ~platform:small_platform ~data_disks:1 ~volume_blocks:16384
    ?crash ~seed ()

let must = function
  | Ok v -> v
  | Error e -> failwith ("test_account: " ^ Kernel.error_to_string e)

let page = 4096
let nfiles = 4
let path i = Printf.sprintf "/d0/f%d" (i mod nfiles)

let setup env =
  for i = 0 to nfiles - 1 do
    let fd = must (Kernel.create_file env (path i)) in
    ignore (must (Kernel.write env fd ~off:0 ~len:(8 * page)));
    Kernel.close env fd
  done

let the_account k = Option.get (Kernel.account k)

(* ---- restart (the machine-state audit) -------------------------------- *)

let counter_fields (c : Kernel.counters) =
  Kernel.
    [
      c.c_reads; c.c_writes; c.c_bytes_read; c.c_bytes_written; c.c_page_ins;
      c.c_page_outs; c.c_zero_fills; c.c_file_fetches; c.c_file_writebacks;
    ]

(* The ledger is machine state and the counters are experiment state, yet
   the counters are derived from the ledger: restart must carry them over,
   and reset_counters must zero them without touching the rows. *)
let test_restart_zeroes_ledger () =
  let k = boot ~seed:7 () in
  Kernel.spawn k ~name:"w" (fun env ->
      setup env;
      let fd = must (Kernel.open_file env (path 0)) in
      ignore (must (Kernel.read env fd ~off:0 ~len:(2 * page)));
      Kernel.close env fd;
      (* past the 8 MiB of usable memory twice: page-outs, then page-ins *)
      let r = Kernel.valloc env ~pages:3072 in
      ignore (Kernel.touch_pages env r ~first:0 ~count:3072);
      ignore (Kernel.touch_pages env r ~first:0 ~count:3072);
      Kernel.vfree env r);
  Kernel.run k;
  let a = the_account k in
  Alcotest.(check bool) "ledger populated" true (Account.rows a <> []);
  let before = Kernel.counters k in
  Alcotest.(check bool) "paging happened" true
    (before.Kernel.c_page_ins > 0 && before.Kernel.c_page_outs > 0);
  let flight_before = Gray_util.Flight.recorded (Kernel.flight k) in
  Alcotest.(check bool) "flight recorded" true (flight_before > 0);
  Kernel.restart k;
  Alcotest.(check int) "no rows after restart" 0
    (List.length (Account.rows (the_account k)));
  Alcotest.(check (list (triple int int int))) "no blame after restart" []
    (Account.blame_triples (the_account k));
  Alcotest.(check (list int)) "counters survive restart" (counter_fields before)
    (counter_fields (Kernel.counters k));
  (* the flight recorder is the black box: its pre-crash tail survives *)
  Alcotest.(check int) "flight survives restart" flight_before
    (Gray_util.Flight.recorded (Kernel.flight k));
  (* a post-restart process starts from a zeroed row, and the counters
     grow by exactly its work *)
  let vm = ref None in
  Kernel.spawn k ~name:"after" (fun env ->
      let fd = must (Kernel.create_file env "/d0/after") in
      ignore (must (Kernel.write env fd ~off:0 ~len:(2 * page)));
      ignore (must (Kernel.read env fd ~off:0 ~len:page));
      let r = Kernel.valloc env ~pages:8 in
      ignore (Kernel.touch_pages env r ~first:0 ~count:8);
      vm := Some (Kernel.vmstat env));
  Kernel.run k;
  let st =
    match Account.rows (the_account k) with
    | [ st ] -> st
    | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)
  in
  Alcotest.(check string) "fresh row" "after" st.Account.st_name;
  Alcotest.(check int) "fresh count" 6 st.Account.syscalls;
  let after = Kernel.counters k in
  Alcotest.(check (list int)) "counters grow by one process's work"
    (counter_fields
       Kernel.
         {
           before with
           c_reads = before.c_reads + 1;
           c_writes = before.c_writes + 1;
           c_bytes_read = before.c_bytes_read + page;
           c_bytes_written = before.c_bytes_written + (2 * page);
           c_zero_fills = before.c_zero_fills + 8;
         })
    (counter_fields after);
  (match !vm with
  | Some v ->
    Alcotest.(check (pair int int)) "vmstat = counters' paging"
      (after.Kernel.c_page_ins, after.Kernel.c_page_outs)
      (v.Kernel.vm_page_ins, v.Kernel.vm_page_outs)
  | None -> Alcotest.fail "vmstat never returned");
  Kernel.reset_counters k;
  let zeroes = List.init 9 (fun _ -> 0) in
  Alcotest.(check (list int)) "reset_counters zeroes all nine" zeroes
    (counter_fields (Kernel.counters k));
  (match Account.rows (the_account k) with
  | [ st' ] ->
    Alcotest.(check bool) "reset leaves the row alone" true (st' == st);
    Alcotest.(check (pair int int)) "row cells intact" (6, 2 * page)
      (st'.Account.syscalls, st'.Account.bytes_written)
  | rows -> Alcotest.failf "expected one row after reset, got %d" (List.length rows));
  (* reaping moves the exited row into the aggregates the totals include *)
  Account.reap (the_account k);
  Alcotest.(check (list int)) "counters survive a reap" zeroes
    (counter_fields (Kernel.counters k))

(* ---- initiator semantics for sync-driven writebacks ------------------- *)

(* A dirties pages and exits without flushing; B runs sync.  The
   writebacks must be charged to B (the process in whose syscall the disk
   work happened), never to A as the page owner. *)
let test_sync_charged_to_caller () =
  (* sync is a no-op without the crash plane; [Crash.durable] turns on
     durability semantics (dirty pages linger) without ever crashing *)
  let k = boot ~crash:Crash.durable ~seed:8 () in
  Kernel.spawn k ~name:"dirtier" (fun env ->
      let fd = must (Kernel.create_file env "/d0/dirty") in
      ignore (must (Kernel.write env fd ~off:0 ~len:(16 * page)));
      Kernel.close env fd);
  Kernel.run k;
  Kernel.spawn k ~name:"syncer" (fun env -> Kernel.sync env);
  Kernel.run k;
  let a = the_account k in
  let row name =
    match List.find_opt (fun st -> st.Account.st_name = name) (Account.rows a) with
    | Some st -> st
    | None -> Alcotest.failf "no ledger row for %s" name
  in
  let dirtier = row "dirtier" and syncer = row "syncer" in
  Alcotest.(check bool) "sync wrote something" true (syncer.Account.writebacks > 0);
  Alcotest.(check int) "page owner not charged" 0 dirtier.Account.writebacks;
  Alcotest.(check int) "attribution exact" (Kernel.counters k).Kernel.c_file_writebacks
    (dirtier.Account.writebacks + syncer.Account.writebacks)

(* ---- attribution exactness on randomized workloads -------------------- *)

type op =
  | Write of int * int  (* file, pages *)
  | Read of int * int  (* file, offset page *)
  | Touch of int  (* anon pages *)
  | Stat of int
  | Fsync of int
  | Sync
  | Compute of int

(* A spec is derived entirely from its seed, so a spec run serially and a
   spec run on a pool domain see identical machines. *)
let gen_spec ~seed =
  let rng = Gray_util.Rng.create ~seed:(0xACC7 + seed) in
  let procs = 1 + Gray_util.Rng.int rng 3 in
  List.init procs (fun p ->
      let ops = 2 + Gray_util.Rng.int rng 5 in
      ( p,
        List.init ops (fun _ ->
            match Gray_util.Rng.int rng 7 with
            | 0 -> Write (Gray_util.Rng.int rng nfiles, 1 + Gray_util.Rng.int rng 64)
            | 1 | 2 -> Read (Gray_util.Rng.int rng nfiles, Gray_util.Rng.int rng 8)
            | 3 -> Touch (1 + Gray_util.Rng.int rng 512)
            | 4 -> Stat (Gray_util.Rng.int rng nfiles)
            | 5 -> Fsync (Gray_util.Rng.int rng nfiles)
            | 6 -> Sync
            | _ -> Compute (1 + Gray_util.Rng.int rng 1000)) ))

let run_op env = function
  | Write (f, pages) ->
    let fd = must (Kernel.open_file env (path f)) in
    ignore (must (Kernel.write env fd ~off:0 ~len:(pages * page)));
    Kernel.close env fd
  | Read (f, off) ->
    let fd = must (Kernel.open_file env (path f)) in
    ignore (must (Kernel.read env fd ~off:(off * page) ~len:(8 * page)));
    Kernel.close env fd
  | Touch pages ->
    let r = Kernel.valloc env ~pages in
    ignore (Kernel.touch_pages env r ~first:0 ~count:pages);
    Kernel.vfree env r
  | Stat f -> ignore (must (Kernel.stat env (path f)))
  | Fsync f ->
    let fd = must (Kernel.open_file env (path f)) in
    must (Kernel.fsync env fd);
    Kernel.close env fd
  | Sync -> Kernel.sync env
  | Compute us -> Kernel.compute env ~ns:(us * 1000)

let run_spec ~seed =
  (* durable crash plane so the generated [Sync]/[Fsync] ops have dirty
     pages to write back — exactness must hold on those paths too *)
  let k = boot ~crash:Crash.durable ~seed () in
  Kernel.spawn k ~name:"setup" setup;
  Kernel.run k;
  List.iter
    (fun (p, ops) ->
      Kernel.spawn k ~name:(Printf.sprintf "proc%d" p) (fun env ->
          List.iter (run_op env) ops))
    (gen_spec ~seed);
  Kernel.run k;
  k

(* Every global counter must equal the sum of the per-pid cells: there is
   no unattributed bucket. *)
let check_exactness k =
  let rows = Account.rows (the_account k) in
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 rows in
  let c = Kernel.counters k in
  let mem = Kernel.memory k in
  let pools =
    if Memory.unified mem then [ Memory.file_pool mem ]
    else [ Memory.file_pool mem; Memory.anon_pool mem ]
  in
  let pool_sum f = List.fold_left (fun acc p -> acc + f p) 0 pools in
  let checks =
    [
      ("fetches", sum (fun st -> st.Account.fetches), c.Kernel.c_file_fetches);
      ("writebacks", sum (fun st -> st.Account.writebacks), c.Kernel.c_file_writebacks);
      ("page_ins", sum (fun st -> st.Account.page_ins), c.Kernel.c_page_ins);
      ("page_outs", sum (fun st -> st.Account.page_outs), c.Kernel.c_page_outs);
      ("zero_fills", sum (fun st -> st.Account.zero_fills), c.Kernel.c_zero_fills);
      ("bytes_read", sum (fun st -> st.Account.bytes_read), c.Kernel.c_bytes_read);
      ("bytes_written", sum (fun st -> st.Account.bytes_written), c.Kernel.c_bytes_written);
      ("hits", sum (fun st -> st.Account.hits), pool_sum Pool.hits);
      ("misses", sum (fun st -> st.Account.misses), pool_sum Pool.misses);
      ("evictions", sum (fun st -> st.Account.evictions), pool_sum Pool.evictions);
      ( "blame matrix total",
        List.fold_left
          (fun acc (_, _, n) -> acc + n)
          0
          (Account.blame_triples (the_account k)),
        sum (fun st -> st.Account.evictions) );
    ]
  in
  List.for_all
    (fun (name, per_pid, global) ->
      if per_pid <> global then
        QCheck2.Test.fail_reportf "%s: per-pid sum %d <> global %d" name per_pid
          global
      else true)
    checks

let prop_sums_exact =
  QCheck2.Test.make ~name:"per-pid sums equal global counters" ~count:25
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed -> check_exactness (run_spec ~seed))

(* Per-kind syscall counts against the telemetry .calls counters (the
   other half of the exactness invariant), under a full sink. *)
let test_sums_match_telemetry () =
  let module Tele = Gray_util.Telemetry in
  let sink = Tele.create ~name:"acct" () in
  let k = Tele.with_sink sink (fun () -> run_spec ~seed:77) in
  let rows = Account.rows (the_account k) in
  let sum code =
    List.fold_left
      (fun acc st -> acc + st.Account.sys.(Gray_util.Flight.code_index code))
      0 rows
  in
  List.iter
    (fun (code, counter) ->
      Alcotest.(check int)
        (Printf.sprintf "per-pid %s = %s"
           (Gray_util.Flight.code_name code)
           counter)
        (Tele.counter_value sink counter)
        (sum code))
    Gray_util.Flight.
      [
        (Open, "simos.kernel.open.calls");
        (Create, "simos.kernel.create.calls");
        (Stat, "simos.kernel.stat.calls");
        (Sync, "simos.kernel.sync.calls");
      ]

(* The same specs, serially and fanned over an 8-domain pool: exactness
   holds on every domain and the aggregated exports are byte-identical
   (submission-order merge, no schedule dependence). *)
let test_exactness_across_domains () =
  let seeds = List.init 8 (fun i -> 1000 + (37 * i)) in
  let export_of ~seed =
    let k = run_spec ~seed in
    Alcotest.(check bool)
      (Printf.sprintf "exact on domain (seed %d)" seed)
      true (check_exactness k);
    Gray_util.Json.to_string (Account.export_json (Account.export (the_account k)))
  in
  let serial = List.map (fun seed -> export_of ~seed) seeds in
  let pool = Gray_util.Domain_pool.create ~size:8 in
  let parallel =
    Fun.protect
      ~finally:(fun () -> Gray_util.Domain_pool.shutdown pool)
      (fun () -> Gray_util.Domain_pool.map pool (fun seed -> export_of ~seed) seeds)
  in
  List.iter2
    (fun a b -> Alcotest.(check string) "export identical at -j1 vs -j8" a b)
    serial parallel

let suite =
  [
    Alcotest.test_case "restart zeroes the ledger" `Quick test_restart_zeroes_ledger;
    Alcotest.test_case "sync charged to the caller" `Quick test_sync_charged_to_caller;
    QCheck_alcotest.to_alcotest prop_sums_exact;
    Alcotest.test_case "per-kind counts match telemetry" `Quick
      test_sums_match_telemetry;
    Alcotest.test_case "exactness across domains" `Quick test_exactness_across_domains;
  ]

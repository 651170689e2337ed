(* The fleet plane's contracts:

   - the differential harness: a 1-process fleet is byte-identical to
     the scheduler-less solo path (same clock, same event count, same
     kernel counters, same ledger export) across randomized seeds;
   - a fleet bench plan renders identically at -j 1 and -j 4;
   - the MAC-convergence regression: a seeded polite 4-MAC fleet
     settles (high late fairness, few reversals) while the seeded
     pathological fleet oscillates — and the two are separated;
   - ledger exit-reaping: reaps shrink the live rows without changing
     the export, and the blame matrix spills past the flat-cap pid
     without losing a count. *)

open Simos
open Graybox_core

let mib = 1024 * 1024

let fleet_platform =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 48; kernel_reserved_mib = 32 }
    ~sigma:0.05

let patho_platform =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 24; kernel_reserved_mib = 16 }
    ~sigma:0.05

let boot ?platform ?sched ~seed () =
  let engine = Engine.create () in
  let platform = Option.value platform ~default:fleet_platform in
  Kernel.boot ~engine ~platform ~data_disks:1 ?sched ~seed ()

(* ---- differential: fleet(1) ≡ solo ------------------------------------ *)

(* Everything observable about a finished kernel, as one comparable
   value: virtual clock, event count, global counters, ledger export. *)
let fingerprint k =
  let e = Kernel.engine k in
  ( Engine.now e,
    Engine.events_processed e,
    Kernel.counters k,
    Gray_util.Json.to_string
      (Account.export_json (Account.export (Option.get (Kernel.account k)))) )

let profile_of_seed seed =
  List.nth Gray_apps.Workload.all_profiles (seed mod 4)

let setup_population k paths_cell =
  Kernel.spawn k ~name:"setup" (fun env ->
      paths_cell :=
        Array.of_list
          (Gray_apps.Workload.make_files env ~dir:"/d0/pop" ~prefix:"f" ~count:6
             ~size:(64 * 1024));
      Kernel.flush_file_cache k);
  Kernel.run k

let member_body ~seed paths ~rng env =
  Gray_apps.Workload.run_profile env rng (profile_of_seed seed) ~paths ~rounds:2

(* The solo path: no scheduler, a plain spawn, the member RNG derived
   exactly as the fleet derives member 0's (the first split of the
   master stream). *)
let solo_run ~seed =
  let k = boot ~seed () in
  let paths = ref [||] in
  setup_population k paths;
  let rng = Gray_util.Rng.split (Gray_util.Rng.create ~seed) in
  Kernel.spawn k ~name:"fleet.one" (member_body ~seed !paths ~rng);
  Kernel.run k;
  fingerprint k

let fleet1_run ~seed =
  let d =
    {
      Fleet.default_descriptor with
      Fleet.fd_procs = 1;
      fd_seed = seed;
      fd_reap_every = 1;
    }
  in
  let k = boot ~sched:(Fleet.sched_config d) ~seed () in
  let paths = ref [||] in
  setup_population k paths;
  Fleet.spawn_fleet k d
    ~name:(fun _ -> "fleet.one")
    ~body:(fun ~index:_ ~rng env -> member_body ~seed !paths ~rng env)
    ();
  Kernel.run k;
  fingerprint k

let prop_fleet1_is_solo =
  QCheck2.Test.make ~name:"1-process fleet byte-identical to solo" ~count:15
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let s_now, s_ev, s_ctr, s_export = solo_run ~seed in
      let f_now, f_ev, f_ctr, f_export = fleet1_run ~seed in
      if s_now <> f_now then
        QCheck2.Test.fail_reportf "clock differs: solo %d, fleet %d" s_now f_now;
      if s_ev <> f_ev then
        QCheck2.Test.fail_reportf "events differ: solo %d, fleet %d" s_ev f_ev;
      if compare s_ctr f_ctr <> 0 then
        QCheck2.Test.fail_reportf "kernel counters differ (seed %d)" seed;
      if not (String.equal s_export f_export) then
        QCheck2.Test.fail_reportf "ledger export differs:\nsolo  %s\nfleet %s"
          s_export f_export;
      true)

(* ---- fleet bench determinism at any -j --------------------------------- *)

let exec_with_jobs plan jobs =
  Gray_bench.Bench_common.set_planes Ambient.planes;
  let pool = Gray_util.Domain_pool.create ~size:jobs in
  Fun.protect
    ~finally:(fun () -> Gray_util.Domain_pool.shutdown pool)
    (fun () -> Gray_bench.Bench_common.execute ~pool [ plan ]);
  plan.Gray_bench.Bench_common.p_render ()

let small_fleet_plan () =
  Gray_bench.Fleet_bench.plan_sized ~scale_sizes:[ 8; 24 ] ~headline_procs:24
    ~fccd_probers:[ 1; 2 ] ~trials:2 ()

let test_plan_deterministic () =
  let a = exec_with_jobs (small_fleet_plan ()) 1 in
  let b = exec_with_jobs (small_fleet_plan ()) 4 in
  Alcotest.(check string) "rendered output byte-identical at -j 1 and -j 4"
    a.Gray_bench.Bench_common.rd_output b.Gray_bench.Bench_common.rd_output;
  Alcotest.(check bool) "figures identical" true
    (List.for_all2
       (fun (fa : Gray_bench.Bench_common.figure) (fb : Gray_bench.Bench_common.figure) ->
         fa.fg_name = fb.fg_name && compare fa.fg_value fb.fg_value = 0)
       a.Gray_bench.Bench_common.rd_figures b.Gray_bench.Bench_common.rd_figures);
  Alcotest.(check bool) "checks identical" true
    (a.Gray_bench.Bench_common.rd_checks = b.Gray_bench.Bench_common.rd_checks)

(* ---- MAC convergence regression ---------------------------------------- *)

(* Polite fair-share MACs on a machine the group fits: the fairness
   index must settle.  Seeded, so this is a regression pin, not a
   statistical test. *)
let convergent_macs () =
  let k = boot ~sched:Sched.default_config ~seed:21 () in
  let cfg =
    {
      (Mac.default_config ()) with
      Mac.initial_increment = 1 * mib;
      max_increment = 2 * mib;
    }
  in
  Fleet.mac_fleet k ~config:cfg
    ~max_bytes:(Platform.usable_bytes fleet_platform / 4)
    ~macs:4 ~rounds:6 ~round_ns:(100 * 1_000_000) ()

(* Greedy whole-machine MACs whose group overshoot exceeds usable
   memory every round: the oscillation regime. *)
let pathological_macs () =
  let k = boot ~platform:patho_platform ~sched:Sched.default_config ~seed:22 () in
  let cfg =
    {
      (Mac.default_config ()) with
      Mac.initial_increment = 2 * mib;
      max_increment = 4 * mib;
      headroom = 0.0;
    }
  in
  Fleet.mac_fleet k ~config:cfg ~macs:4 ~rounds:10 ~round_ns:(100 * 1_000_000) ()

let test_mac_convergence () =
  let good = convergent_macs () in
  Alcotest.(check bool)
    (Printf.sprintf "polite fleet settles (late J %.3f)" good.Fleet.mr_late_fairness)
    true
    (good.Fleet.mr_late_fairness >= 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "polite fleet does not thrash (reversals %.3f)"
       good.Fleet.mr_reversal_rate)
    true
    (good.Fleet.mr_reversal_rate <= 0.2)

let test_mac_oscillation_detected () =
  let bad = pathological_macs () in
  Alcotest.(check bool)
    (Printf.sprintf "overshooting fleet oscillates (reversals %.3f, swing %.3f)"
       bad.Fleet.mr_reversal_rate bad.Fleet.mr_late_swing)
    true
    (bad.Fleet.mr_reversal_rate >= 0.3 || bad.Fleet.mr_late_swing >= 0.2);
  let good = convergent_macs () in
  Alcotest.(check bool)
    (Printf.sprintf "regimes separated (late J %.3f vs %.3f)"
       good.Fleet.mr_late_fairness bad.Fleet.mr_late_fairness)
    true
    (bad.Fleet.mr_late_fairness < good.Fleet.mr_late_fairness)

(* ---- ledger exit-reaping ----------------------------------------------- *)

let export_string a =
  Gray_util.Json.to_string (Account.export_json (Account.export a))

(* Memory-starved contending processes so the blame matrix is non-empty
   when the reap folds it. *)
let test_reap_preserves_export () =
  let k = boot ~platform:patho_platform ~seed:31 () in
  let paths = ref [||] in
  setup_population k paths;
  for p = 0 to 5 do
    Kernel.spawn k ~name:(Printf.sprintf "worker%d" (p mod 2)) (fun env ->
        Array.iter (fun path -> Gray_apps.Workload.read_file env path) !paths;
        let r = Kernel.valloc env ~pages:512 in
        ignore (Kernel.touch_pages env r ~first:0 ~count:512);
        Kernel.vfree env r)
  done;
  Kernel.run k;
  let a = Option.get (Kernel.account k) in
  let before = export_string a in
  let live_before = List.length (Account.rows a) in
  Alcotest.(check bool) "rows live before reap" true (live_before >= 7);
  Account.reap a;
  Alcotest.(check string) "export unchanged by reap" before (export_string a);
  Alcotest.(check int) "all exited rows folded" 0 (List.length (Account.rows a));
  Alcotest.(check int) "reaped processes counted" live_before
    (Account.reaped_procs a);
  Alcotest.(check (list (triple int int int))) "live blame cells zeroed" []
    (Account.blame_triples a);
  (* reap is idempotent *)
  Account.reap a;
  Alcotest.(check string) "second reap a no-op" before (export_string a)

(* ---- blame-matrix spill past the flat cap ------------------------------ *)

(* Pure ledger test: pids past the flat-matrix cap (1024) land in the
   spill table, every count survives a round-trip through triples and a
   reap, and nothing is double-counted. *)
let test_blame_spill () =
  let a = Account.create () in
  let n = 1200 in
  let rows =
    Array.init n (fun pid ->
        Account.note_spawn a ~pid ~name:(Printf.sprintf "g%d" (pid mod 3)))
  in
  for pid = 0 to n - 1 do
    (* victims on both sides of the cap, including cap-crossing pairs *)
    Account.note_eviction a ~evictor:rows.(pid) ~victim_pid:((pid + 777) mod n)
  done;
  let triples = Account.blame_triples a in
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 triples in
  Alcotest.(check int) "every eviction has a blame cell" n total;
  Alcotest.(check int) "one cell per (evictor, victim) pair" n
    (List.length triples);
  let before = export_string a in
  for pid = 0 to n - 1 do
    Account.note_exit a ~pid
  done;
  Account.reap a;
  Alcotest.(check string) "export survives the spill reap" before
    (export_string a);
  Alcotest.(check int) "all rows folded" 0 (List.length (Account.rows a));
  Alcotest.(check int) "reaped count" n (Account.reaped_procs a)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fleet1_is_solo;
    Alcotest.test_case "fleet plan identical at -j 1 and -j 4" `Slow
      test_plan_deterministic;
    Alcotest.test_case "polite MAC fleet converges" `Quick test_mac_convergence;
    Alcotest.test_case "overshooting MAC fleet oscillates" `Quick
      test_mac_oscillation_detected;
    Alcotest.test_case "exit-reap preserves the export" `Quick
      test_reap_preserves_export;
    Alcotest.test_case "blame matrix spills past the pid cap" `Quick
      test_blame_spill;
  ]

(* Adaptive layer: watchdog lifecycle and staleness accounting, the
   bounded re-calibration budget, and the MAC/FCCD wrappers healing
   themselves under environment drift. *)

open Simos
open Graybox_core

let mib = 1024 * 1024
let sec = 1_000_000_000
let ms = 1_000_000

let tiny_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.0

let boot ?drift ?(seed = 77) () =
  let engine = Engine.create () in
  let k = Kernel.boot ~engine ~platform:tiny_linux ~data_disks:1 ~seed ?drift () in
  Kernel.start_drift_daemon k;
  k

let run_proc ?drift ?seed body =
  let k = boot ?drift ?seed () in
  let result = ref None in
  Kernel.spawn k (fun env -> result := Some (body env));
  Kernel.run k;
  Option.get !result

let small_mac =
  {
    (Mac.default_config ()) with
    Mac.initial_increment = 2 * mib;
    max_increment = 8 * mib;
  }

let fccd_config ~seed =
  {
    (Fccd.default_config ~seed ()) with
    Fccd.access_unit = 1 * mib;
    prediction_unit = 256 * 1024;
  }

(* the EMA becomes "the newest sample" so transitions are exact *)
let sharp = { Adaptive.default_config with Adaptive.alpha = 1.0 }

let wait_until env ts =
  let now = Kernel.gettime env in
  if now < ts then Engine.delay (ts - now)

(* one-second jumps so the drift timer event lands between observations *)
let timer_drift =
  {
    Drift.dr_name = "timer-only";
    dr_seed = 5;
    dr_retouch_ns = 100 * ms;
    dr_horizon_ns = 2 * sec;
    dr_events = [ { Drift.dv_at_ns = sec; dv_kind = Drift.Timer_scale 1000 } ];
  }

(* ---- watchdog core ---- *)

let test_config_validation () =
  let rejects label config field =
    match Adaptive.watchdog ~config "t" with
    | _ -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument msg ->
      let contains needle msg =
        let nl = String.length needle and ml = String.length msg in
        let rec at i = i + nl <= ml && (String.sub msg i nl = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s names %s (got %S)" label field msg)
        true (contains field msg)
  in
  let d = Adaptive.default_config in
  rejects "alpha 0" { d with Adaptive.alpha = 0.0 } "alpha";
  rejects "alpha above 1" { d with Adaptive.alpha = 1.5 } "alpha";
  rejects "threshold above 1" { d with Adaptive.stale_threshold = 1.1 } "stale_threshold";
  rejects "negative warmup" { d with Adaptive.warmup = -1 } "warmup";
  rejects "negative budget" { d with Adaptive.recal_budget = -1 } "recal_budget";
  rejects "prior above 1" { d with Adaptive.prior_weight = 2.0 } "prior_weight"

let test_watchdog_lifecycle () =
  let w = Adaptive.watchdog ~config:sharp "t" in
  Alcotest.(check bool) "fresh at birth" true (Adaptive.status w = Adaptive.Fresh);
  Alcotest.(check (float 0.0)) "optimistic before samples" 1.0 (Adaptive.health w);
  Adaptive.observe w ~now_ns:0 1.0;
  Alcotest.(check bool) "healthy sample stays fresh" true
    (Adaptive.status w = Adaptive.Fresh);
  (* sample 2 is past warmup (1), and with alpha 1 the EMA is the sample *)
  Adaptive.observe w ~now_ns:sec 0.2;
  Alcotest.(check bool) "collapse flags stale" true
    (Adaptive.status w = Adaptive.Stale);
  Alcotest.(check int) "open interval not yet accounted" 0 (Adaptive.stale_ns w);
  Adaptive.observe w ~now_ns:(3 * sec) 0.9;
  Alcotest.(check bool) "recovery returns fresh" true
    (Adaptive.status w = Adaptive.Fresh);
  Alcotest.(check int) "stale interval accounted" (2 * sec) (Adaptive.stale_ns w);
  (* a re-calibration restarts the EMA seeded with the closing health *)
  Adaptive.observe w ~now_ns:(4 * sec) 0.1;
  Alcotest.(check bool) "claims budget" true (Adaptive.begin_recalibration w);
  Adaptive.end_recalibration w ~now_ns:(5 * sec) ~health:1.0;
  Alcotest.(check int) "one recalibration" 1 (Adaptive.recalibrations w);
  Alcotest.(check bool) "fresh after recalibration" true
    (Adaptive.status w = Adaptive.Fresh);
  Alcotest.(check int) "ema restarted" 1 (Adaptive.samples w);
  Alcotest.(check (float 0.0)) "seeded health" 1.0 (Adaptive.health w);
  Alcotest.(check int) "second interval accounted" (3 * sec) (Adaptive.stale_ns w)

let test_warmup_suppresses_detection () =
  let w =
    Adaptive.watchdog ~config:{ sharp with Adaptive.warmup = 5 } "t"
  in
  for i = 1 to 5 do
    Adaptive.observe w ~now_ns:(i * sec) 0.0;
    Alcotest.(check bool)
      (Printf.sprintf "sample %d still warming up" i)
      true
      (Adaptive.status w = Adaptive.Fresh)
  done;
  Adaptive.observe w ~now_ns:(6 * sec) 0.0;
  Alcotest.(check bool) "sample 6 flags stale" true
    (Adaptive.status w = Adaptive.Stale)

let test_budget_exhaustion_is_permanent () =
  let w =
    Adaptive.watchdog ~config:{ sharp with Adaptive.recal_budget = 1 } "t"
  in
  Adaptive.observe w ~now_ns:0 1.0;
  Adaptive.observe w ~now_ns:sec 0.0;
  Alcotest.(check bool) "first claim succeeds" true (Adaptive.begin_recalibration w);
  Adaptive.end_recalibration w ~now_ns:(2 * sec) ~health:1.0;
  Adaptive.observe w ~now_ns:(3 * sec) 0.0;
  Alcotest.(check bool) "second claim refused" false (Adaptive.begin_recalibration w);
  Alcotest.(check bool) "now exhausted" true
    (Adaptive.status w = Adaptive.Exhausted);
  (* exhaustion is terminal: healthy samples cannot resurrect the budget *)
  Adaptive.observe w ~now_ns:(4 * sec) 1.0;
  Alcotest.(check bool) "still exhausted" true
    (Adaptive.status w = Adaptive.Exhausted);
  Alcotest.(check bool) "still refused" false (Adaptive.begin_recalibration w);
  Alcotest.(check int) "budget spent once" 1 (Adaptive.recalibrations w)

(* ---- MAC wrapper under timer drift ---- *)

let mac_alloc_ok env m =
  match Adaptive.mac_alloc env m ~min:(2 * mib) ~max:(8 * mib) ~multiple:100 with
  | Ok (Some a) -> Mac.gb_free env a
  | Ok None -> Alcotest.fail "idle machine refused a small grant"
  | Error `Stale_budget_exhausted -> Alcotest.fail "unexpected exhaustion"

let test_mac_recalibrates_after_timer_drift () =
  let thr0, thr1, recals, final_status =
    run_proc ~drift:timer_drift (fun env ->
        let m = Adaptive.mac env ~mac_config:small_mac in
        let thr0 = Adaptive.mac_threshold_ns m in
        mac_alloc_ok env m;
        Alcotest.(check int) "no recalibration while benign" 0
          (Adaptive.recalibrations (Adaptive.mac_watchdog m));
        wait_until env (sec + (500 * ms));
        (* the 1000x jiffy makes every resident touch read >= 100 us,
           far above the ~90 us boot-time threshold: the spot check
           collapses and the wrapper must re-learn, not refuse *)
        mac_alloc_ok env m;
        ( thr0,
          Adaptive.mac_threshold_ns m,
          Adaptive.recalibrations (Adaptive.mac_watchdog m),
          Adaptive.status (Adaptive.mac_watchdog m) ))
  in
  Alcotest.(check bool) "exactly one recalibration" true (recals >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "threshold moved up (%d -> %d)" thr0 thr1)
    true (thr1 > thr0);
  Alcotest.(check bool) "fresh after healing" true (final_status = Adaptive.Fresh)

let test_mac_budget_zero_degrades () =
  let r, status =
    run_proc ~drift:timer_drift (fun env ->
        let m =
          Adaptive.mac
            ~config:{ Adaptive.default_config with Adaptive.recal_budget = 0 }
            env ~mac_config:small_mac
        in
        mac_alloc_ok env m;
        wait_until env (sec + (500 * ms));
        let r = Adaptive.mac_alloc env m ~min:(2 * mib) ~max:(8 * mib) ~multiple:100 in
        (r, Adaptive.status (Adaptive.mac_watchdog m)))
  in
  (match r with
  | Error `Stale_budget_exhausted -> ()
  | Ok _ -> Alcotest.fail "no budget yet the wrapper claimed to heal");
  Alcotest.(check bool) "exhausted" true (status = Adaptive.Exhausted)

(* ---- FCCD wrapper ---- *)

(* Six files; evens made resident, odds cold.  The wrapper seeds its
   estimates from that world, then the world inverts (flush, read the
   odds).  The first spot check lands on {f0, f1, f2}, sees the inversion,
   flags stale and triggers a full re-probe. *)
let fccd_setup env =
  let paths =
    Gray_apps.Workload.make_files env ~dir:"/d0/data" ~prefix:"f" ~count:6
      ~size:(2 * mib)
  in
  let arr = Array.of_list paths in
  Kernel.flush_file_cache (Kernel.kernel_of_env env);
  List.iteri
    (fun i p -> if i mod 2 = 0 then Gray_apps.Workload.read_file env p)
    paths;
  (paths, arr)

let invert_world env paths =
  Kernel.flush_file_cache (Kernel.kernel_of_env env);
  List.iteri
    (fun i p -> if i mod 2 = 1 then Gray_apps.Workload.read_file env p)
    paths

let test_fccd_reorders_after_inversion () =
  run_proc (fun env ->
      let paths, arr = fccd_setup env in
      let f =
        match
          Adaptive.fccd
            ~config:{ sharp with Adaptive.warmup = 0 }
            env ~fccd_config:(fccd_config ~seed:31) ~paths
        with
        | Ok f -> f
        | Error e -> Alcotest.failf "seed probe failed: %s" (Kernel.error_to_string e)
      in
      Alcotest.(check int) "one estimate per file" 6
        (List.length (Adaptive.fccd_estimates f));
      (* the seeded estimates already know evens are the fast ones *)
      (match Adaptive.fccd_order env f with
      | Ok order ->
        Alcotest.(check (list string))
          "order is a permutation" (List.sort compare paths) (List.sort compare order)
      | Error _ -> Alcotest.fail "benign ordering failed");
      invert_world env paths;
      match Adaptive.fccd_order env f with
      | Ok order ->
        let wd = Adaptive.fccd_watchdog f in
        Alcotest.(check bool) "staleness repaired by reprobe" true
          (Adaptive.recalibrations wd >= 1);
        Alcotest.(check bool) "fresh after reprobe" true
          (Adaptive.status wd = Adaptive.Fresh);
        let pos p =
          let rec go i = function
            | [] -> Alcotest.failf "%s missing from order" p
            | q :: _ when q = p -> i
            | _ :: tl -> go (i + 1) tl
          in
          go 0 order
        in
        (* the healed ordering tracks the new world: a now-resident odd
           file ranks ahead of its now-cold even neighbour *)
        Alcotest.(check bool) "f1 before f0 after inversion" true
          (pos arr.(1) < pos arr.(0))
      | Error `Stale_budget_exhausted -> Alcotest.fail "budget spent too fast"
      | Error (`Kernel e) -> Alcotest.failf "reprobe failed: %s" (Kernel.error_to_string e))

let test_fccd_budget_zero_degrades () =
  run_proc (fun env ->
      let paths, _ = fccd_setup env in
      let f =
        match
          Adaptive.fccd
            ~config:{ sharp with Adaptive.warmup = 0; recal_budget = 0 }
            env ~fccd_config:(fccd_config ~seed:33) ~paths
        with
        | Ok f -> f
        | Error e -> Alcotest.failf "seed probe failed: %s" (Kernel.error_to_string e)
      in
      invert_world env paths;
      (match Adaptive.fccd_order env f with
      | Error `Stale_budget_exhausted -> ()
      | Ok _ -> Alcotest.fail "no budget yet the wrapper claimed to heal"
      | Error (`Kernel e) -> Alcotest.failf "wrong error: %s" (Kernel.error_to_string e));
      Alcotest.(check bool) "exhausted" true
        (Adaptive.status (Adaptive.fccd_watchdog f) = Adaptive.Exhausted))

(* ---- determinism ---- *)

let test_adaptive_deterministic () =
  let run () =
    run_proc ~drift:timer_drift ~seed:91 (fun env ->
        let m = Adaptive.mac env ~mac_config:small_mac in
        mac_alloc_ok env m;
        wait_until env (sec + (500 * ms));
        mac_alloc_ok env m;
        ( Adaptive.mac_threshold_ns m,
          Adaptive.recalibrations (Adaptive.mac_watchdog m),
          Adaptive.stale_ns (Adaptive.mac_watchdog m),
          Kernel.gettime env ))
  in
  Alcotest.(check bool) "two healed runs identical" true (run () = run ())

let suite =
  [
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "watchdog lifecycle" `Quick test_watchdog_lifecycle;
    Alcotest.test_case "warmup suppresses detection" `Quick
      test_warmup_suppresses_detection;
    Alcotest.test_case "budget exhaustion is permanent" `Quick
      test_budget_exhaustion_is_permanent;
    Alcotest.test_case "mac recalibrates after timer drift" `Quick
      test_mac_recalibrates_after_timer_drift;
    Alcotest.test_case "mac budget zero degrades" `Quick test_mac_budget_zero_degrades;
    Alcotest.test_case "fccd reorders after inversion" `Quick
      test_fccd_reorders_after_inversion;
    Alcotest.test_case "fccd budget zero degrades" `Quick
      test_fccd_budget_zero_degrades;
    Alcotest.test_case "adaptive deterministic" `Quick test_adaptive_deterministic;
  ]

(* Fault-injection plane: zero cost when off, determinism under faults,
   transient-error retries, ICL resilience and confidence, timer
   coarsening, and crash-path resource reclamation. *)

open Simos
open Graybox_core

let mib = 1024 * 1024
let kib = 1024

let tiny_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.05

let boot ?faults ?(platform = tiny_linux) ?(seed = 11) () =
  let engine = Engine.create () in
  (engine, Ambient.boot ~engine ~platform ~data_disks:1 ~seed ?faults ())

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Kernel.error_to_string e)

let small_config ~seed =
  {
    (Fccd.default_config ~seed ()) with
    Fccd.access_unit = 1 * mib;
    prediction_unit = 256 * kib;
  }

(* ---- the off switch is free ---- *)

(* The whole fault plane must be invisible when no fault fires: booting
   with the all-zeros [quiet] scenario — the plane installed but inert —
   must reproduce a plain boot's run bit for bit (same virtual end time,
   same probe timings, same plan). *)
let fingerprint ?faults () =
  let engine = Engine.create () in
  let k = Kernel.boot ~engine ~platform:tiny_linux ~data_disks:1 ~seed:11 ?faults () in
  let out = ref None in
  Kernel.spawn k (fun env ->
      let paths =
        Gray_apps.Workload.make_files env ~dir:"/d0/data" ~prefix:"f" ~count:4
          ~size:(2 * mib)
      in
      Kernel.flush_file_cache k;
      Gray_apps.Workload.read_file env (List.hd paths);
      let plan = ok (Fccd.probe_file env (small_config ~seed:5) ~path:(List.hd paths)) in
      let ranked = ok (Fccd.order_files env (small_config ~seed:6) ~paths) in
      out :=
        Some
          ( plan.Fccd.plan_extents,
            plan.Fccd.plan_probes,
            List.map (fun r -> (r.Fccd.fr_path, r.Fccd.fr_probe_ns)) ranked ));
  Kernel.run k;
  (Engine.now engine, !out)

let test_quiet_scenario_bit_identical () =
  Alcotest.(check bool)
    "fingerprints equal" true
    (fingerprint () = fingerprint ~faults:Fault.quiet ())

let test_deterministic_under_faults () =
  let go () =
    let engine, k = boot ~faults:Fault.canonical () in
    Kernel.start_fault_daemons k;
    let out = ref None in
    Kernel.spawn k (fun env ->
        let paths =
          Gray_apps.Workload.make_files env ~dir:"/d0/data" ~prefix:"f" ~count:3
            ~size:(2 * mib)
        in
        Kernel.flush_file_cache k;
        let plan = ok (Fccd.probe_file env (small_config ~seed:5) ~path:(List.hd paths)) in
        out := Some plan.Fccd.plan_extents;
        Kernel.stop_faults k);
    Kernel.run k;
    let stats = Option.map Fault.stats (Kernel.fault_plane k) in
    (Engine.now engine, !out, stats)
  in
  Alcotest.(check bool) "identical runs" true (go () = go ())

(* ---- transient errors and the retry combinator ---- *)

let always_failing_reads =
  { Fault.quiet with Fault.sc_error_prob = 1.0; sc_error_targets = [ Fault.Read ] }

let test_transient_error_surfaces () =
  let _, k = boot ~faults:always_failing_reads () in
  Kernel.spawn k (fun env ->
      let fd = ok (Kernel.create_file env "/d0/a") in
      ignore (ok (Kernel.write env fd ~off:0 ~len:(16 * 4096)));
      (* writes are not targeted, reads always are *)
      (match Kernel.read env fd ~off:0 ~len:4096 with
      | Error Kernel.Retryable -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Kernel.error_to_string e)
      | Ok _ -> Alcotest.fail "read should have been interrupted");
      (* the retry combinator gives up after its attempts, spending
         max_attempts - 1 retries *)
      let policy = Resilient.policy ~max_attempts:4 ~seed:3 () in
      (match Resilient.retry ~policy (fun () -> Kernel.read env fd ~off:0 ~len:4096) with
      | Error Kernel.Retryable -> ()
      | _ -> Alcotest.fail "retry against a dead channel must fail");
      Alcotest.(check int) "retries spent" 3 (Resilient.retries_spent policy);
      Kernel.close env fd);
  Kernel.run k

let test_retry_recovers_flaky_channel () =
  let flaky =
    { Fault.quiet with Fault.sc_error_prob = 0.5; sc_error_targets = [ Fault.Read ] }
  in
  let _, k = boot ~faults:flaky () in
  Kernel.spawn k (fun env ->
      let fd = ok (Kernel.create_file env "/d0/a") in
      ignore (ok (Kernel.write env fd ~off:0 ~len:(16 * 4096)));
      let policy = Resilient.policy ~max_attempts:20 ~seed:3 () in
      let recovered = ref 0 in
      for _ = 1 to 20 do
        match Resilient.retry ~policy (fun () -> Kernel.read env fd ~off:0 ~len:4096) with
        | Ok _ -> incr recovered
        | Error _ -> ()
      done;
      (* a 50% flaky channel behind 20 attempts recovers essentially always *)
      Alcotest.(check int) "all reads recovered" 20 !recovered;
      Alcotest.(check bool) "retries actually happened" true
        (Resilient.retries_spent policy > 0);
      Kernel.close env fd);
  Kernel.run k

let test_retry_budget_exhausts () =
  let _, k = boot ~faults:always_failing_reads () in
  Kernel.spawn k (fun env ->
      let fd = ok (Kernel.create_file env "/d0/a") in
      ignore (ok (Kernel.write env fd ~off:0 ~len:4096));
      let policy = Resilient.policy ~max_attempts:1000 ~budget:5 ~seed:3 () in
      ignore (Resilient.retry ~policy (fun () -> Kernel.read env fd ~off:0 ~len:4096));
      Alcotest.(check int) "stopped at the budget" 5 (Resilient.retries_spent policy);
      Kernel.close env fd);
  Kernel.run k

(* ---- ICLs stay standing under the canonical scenario ---- *)

let test_icls_complete_under_canonical () =
  let _, k = boot ~faults:Fault.canonical () in
  Kernel.start_fault_daemons k;
  Kernel.spawn k (fun env ->
      let paths =
        Gray_apps.Workload.make_files env ~dir:"/d0/data" ~prefix:"f" ~count:4
          ~size:(2 * mib)
      in
      Kernel.flush_file_cache k;
      Gray_apps.Workload.read_file env (List.hd paths);
      (* FCCD completes and reports a confidence *)
      let config = { (small_config ~seed:5) with Fccd.resample = 1 } in
      let plan = ok (Fccd.probe_file env config ~path:(List.hd paths)) in
      Alcotest.(check bool) "plan confidence in range" true
        (plan.Fccd.plan_confidence >= 0.0 && plan.Fccd.plan_confidence <= 1.0);
      Alcotest.(check bool) "plan covers the file" true
        (List.length plan.Fccd.plan_extents > 0);
      (* FLDC completes (stats retried under the hood) *)
      let ordered = ok (Fldc.order_by_inumber env ~paths) in
      Alcotest.(check int) "all files ordered" (List.length paths) (List.length ordered);
      (* MAC completes with robust calibration and scores its channel *)
      let mac = { (Mac.default_config ()) with Mac.robust = true } in
      (match Mac.gb_alloc env mac ~min:(2 * mib) ~max:(8 * mib) ~multiple:mib with
      | Some a ->
        Alcotest.(check bool) "mac confidence in range" true
          (Mac.confidence a >= 0.0 && Mac.confidence a <= 1.0);
        Mac.gb_free env a
      | None -> ());
      let stats = Mac.last_stats () in
      Alcotest.(check bool) "chunks were classified" true (stats.Mac.s_chunks > 0);
      Kernel.stop_faults k);
  Kernel.run k;
  let fstats = Option.get (Option.map Fault.stats (Kernel.fault_plane k)) in
  Alcotest.(check bool) "the scenario actually interfered" true
    (fstats.Fault.f_errors > 0 || fstats.Fault.f_spikes > 0
   || fstats.Fault.f_burst_hits > 0)

let test_fccd_low_confidence_falls_back_sequential () =
  let _, k = boot () in
  Kernel.spawn k (fun env ->
      let paths =
        Gray_apps.Workload.make_files env ~dir:"/d0/data" ~prefix:"f" ~count:1
          ~size:(4 * mib)
      in
      Kernel.flush_file_cache k;
      let config = { (small_config ~seed:5) with Fccd.min_confidence = 1.1 } in
      let plan = ok (Fccd.probe_file env config ~path:(List.hd paths)) in
      let exts = Fccd.extents_or_sequential config plan in
      let offsets = List.map (fun e -> e.Fccd.ext_off) exts in
      Alcotest.(check bool) "sequential offsets" true
        (offsets = List.sort compare offsets));
  Kernel.run k

(* ---- timer coarsening ---- *)

let test_timer_coarsening_observable () =
  let coarse = { Fault.quiet with Fault.sc_timer_factor = 8 } in
  let _, k = boot ~faults:coarse () in
  let base = tiny_linux.Platform.timer_resolution_ns in
  Kernel.spawn k (fun env ->
      for _ = 1 to 5 do
        Kernel.compute env ~ns:12_345;
        Alcotest.(check int) "quantised to coarse grid" 0
          (Kernel.gettime env mod (8 * base))
      done);
  Kernel.run k

(* ---- crash-path resource reclamation ---- *)

let test_crash_reclaims_resources () =
  let _, k = boot () in
  (* the victim holds an open fd and touched anonymous memory, parked in
     the middle of a long syscall when the crasher dies *)
  Kernel.spawn k ~name:"victim" (fun env ->
      let region = Kernel.valloc env ~pages:64 in
      ignore (Kernel.touch_pages env region ~first:0 ~count:64);
      let fd = ok (Kernel.create_file env "/d0/victim") in
      ignore (ok (Kernel.write env fd ~off:0 ~len:(8 * mib)));
      ignore (ok (Kernel.read env fd ~off:0 ~len:(8 * mib)));
      Kernel.close env fd;
      Kernel.vfree env region);
  Kernel.spawn k ~name:"crasher" ~at:1000 (fun env ->
      let region = Kernel.valloc env ~pages:32 in
      ignore (Kernel.touch_pages env region ~first:0 ~count:32);
      failwith "dies mid-run");
  (match Kernel.run k with
  | () -> Alcotest.fail "crash should propagate"
  | exception Engine.Fiber_crash ("crasher", Failure _) -> ());
  (* both the crasher's and the cancelled victim's resources are gone *)
  Alcotest.(check int) "no live processes" 0 (Kernel.live_procs k);
  Alcotest.(check int) "no resident anonymous pages" 0
    (Memory.resident_anon (Kernel.memory k))

let test_cancelled_fiber_finalisers_run () =
  let e = Engine.create () in
  let cleaned = ref [] in
  Engine.spawn e ~name:"holder" (fun () ->
      Fun.protect
        ~finally:(fun () -> cleaned := "holder" :: !cleaned)
        (fun () -> Engine.delay 1_000_000));
  Engine.spawn e ~name:"boom" (fun () ->
      Engine.delay 10;
      failwith "bad");
  (match Engine.run e with
  | () -> Alcotest.fail "crash should propagate"
  | exception Engine.Fiber_crash ("boom", Failure _) -> ());
  Alcotest.(check (list string)) "finaliser ran" [ "holder" ] !cleaned

(* ---- install-time validation ---- *)

(* A malformed scenario must be rejected by [Fault.create] with the
   offending field named, not surface as wrong arithmetic (or a
   Division_by_zero from a zero period-modulus) mid-run. *)
let test_scenario_validation_rejects () =
  let rejects label sc expected_field =
    match Fault.create sc with
    | _ -> Alcotest.failf "%s: accepted a malformed scenario" label
    | exception Invalid_argument msg ->
      let mentions needle msg =
        let nl = String.length needle and ml = String.length msg in
        let rec at i = i + nl <= ml && (String.sub msg i nl = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s names %s (got %S)" label expected_field msg)
        true
        (mentions expected_field msg)
  in
  let c = Fault.canonical in
  rejects "negative prob" { c with Fault.sc_error_prob = -0.1 } "sc_error_prob";
  rejects "prob above 1" { c with Fault.sc_spike_prob = 1.5 } "sc_spike_prob";
  rejects "negative spike" { c with Fault.sc_spike_ns = -1 } "sc_spike_ns";
  rejects "timer factor 0" { c with Fault.sc_timer_factor = 0 } "sc_timer_factor";
  rejects "negative jitter" { c with Fault.sc_timer_jitter_ns = -5 } "sc_timer_jitter_ns";
  rejects "zero burst period"
    {
      c with
      Fault.sc_burst =
        Some { Fault.bu_period_ns = 0; bu_duration_ns = 1; bu_extra_ns = 1 };
    }
    "bu_period_ns";
  rejects "evict frac above 1"
    {
      c with
      Fault.sc_disturb =
        Some { Fault.di_period_ns = 1000; di_evict_frac = 2.0; di_horizon_ns = 1000 };
    }
    "di_evict_frac";
  rejects "negative pressure pages"
    {
      c with
      Fault.sc_pressure =
        Some { Fault.pr_pages = -1; pr_hold_ns = 0; pr_gap_ns = 0; pr_horizon_ns = 0 };
    }
    "pr_pages";
  (* the presets themselves must stay installable *)
  List.iter
    (fun sc -> ignore (Fault.create sc))
    [ Fault.quiet; Fault.canonical; Fault.heavy ]

(* ---- one grammar for the flag and the variable ---- *)

(* [gbp --faults] and the edge reader of GRAYBOX_FAULTS both decode
   through [of_string]: each token, errors included, reads as below. *)
let test_of_string_matches_env () =
  List.iter
    (fun (token, expected) ->
      let decoded =
        match Fault.of_string token with
        | sc -> Ok sc
        | exception Invalid_argument _ -> Error ()
      in
      Alcotest.(check bool) (Printf.sprintf "%S: expected" token) true (decoded = expected))
    [
      ("", Ok None);
      ("none", Ok None);
      ("canonical", Ok (Some Fault.canonical));
      ("HEAVY", Ok (Some Fault.heavy));
      (" 0.5 ", Ok (Some (Fault.of_intensity ~intensity:0.5 ())));
      ("-1", Error ());
      ("bogus", Error ());
    ]

let suite =
  [
    Alcotest.test_case "of_string matches GRAYBOX_FAULTS" `Quick test_of_string_matches_env;
    Alcotest.test_case "quiet scenario is bit-identical" `Quick
      test_quiet_scenario_bit_identical;
    Alcotest.test_case "scenario validation rejects" `Quick
      test_scenario_validation_rejects;
    Alcotest.test_case "deterministic under faults" `Quick test_deterministic_under_faults;
    Alcotest.test_case "transient error surfaces" `Quick test_transient_error_surfaces;
    Alcotest.test_case "retry recovers flaky channel" `Quick
      test_retry_recovers_flaky_channel;
    Alcotest.test_case "retry budget exhausts" `Quick test_retry_budget_exhausts;
    Alcotest.test_case "ICLs complete under canonical faults" `Quick
      test_icls_complete_under_canonical;
    Alcotest.test_case "low-confidence plan goes sequential" `Quick
      test_fccd_low_confidence_falls_back_sequential;
    Alcotest.test_case "timer coarsening observable" `Quick test_timer_coarsening_observable;
    Alcotest.test_case "crash reclaims resources" `Quick test_crash_reclaims_resources;
    Alcotest.test_case "cancelled finalisers run" `Quick test_cancelled_fiber_finalisers_run;
  ]

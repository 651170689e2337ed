(* gbp/search/scan odds and ends not covered elsewhere, plus FLDC path
   helpers. *)

open Graybox_core

let test_dirname_basename () =
  Alcotest.(check string) "dirname" "/d0/a" (Fldc.dirname "/d0/a/b");
  Alcotest.(check string) "dirname root" "/" (Fldc.dirname "/x");
  Alcotest.(check string) "basename" "b" (Fldc.basename "/d0/a/b");
  Alcotest.(check string) "basename bare" "x" (Fldc.basename "x")

let test_crash_points_enumeration () =
  Alcotest.(check int) "five points" 5 (List.length Fldc.crash_points);
  Alcotest.(check bool) "includes no-crash" true
    (List.mem Fldc.No_crash Fldc.crash_points)

let test_journal_name_stable () =
  (* the repair scan keys off this prefix; changing it breaks recovery of
     in-flight refreshes across versions *)
  Alcotest.(check string) "journal prefix" ".gb_refresh_journal" Fldc.journal_name

let test_fccd_config_align_validation () =
  let c = Fccd.default_config ~seed:1 () in
  Alcotest.(check bool) "rejects zero" true
    (try
       ignore (Fccd.with_align c 0);
       false
     with Invalid_argument _ -> true);
  let c100 = Fccd.with_align c 100 in
  Alcotest.(check int) "align stored" 100 c100.Fccd.align

let test_fccd_default_config_sizes () =
  let c = Fccd.default_config ~seed:2 () in
  Alcotest.(check int) "access unit 20MB" (20 * 1024 * 1024) c.Fccd.access_unit;
  Alcotest.(check int) "prediction unit 5MB" (5 * 1024 * 1024) c.Fccd.prediction_unit;
  (* repo override *)
  let repo = Gray_util.Param_repo.create () in
  Gray_util.Param_repo.set repo ~key:Gray_util.Param_repo.key_access_unit_bytes
    ~value:(8.0 *. 1024.0 *. 1024.0) ~source:"test";
  let c2 = Fccd.default_config ~repo ~seed:3 () in
  Alcotest.(check int) "repo override" (8 * 1024 * 1024) c2.Fccd.access_unit

let test_mac_default_config () =
  let c = Mac.default_config () in
  Alcotest.(check bool) "no threshold without repo" true (c.Mac.slow_threshold_ns = None);
  Alcotest.(check bool) "headroom sane" true (c.Mac.headroom > 0.0 && c.Mac.headroom < 0.5);
  let repo = Gray_util.Param_repo.create () in
  Gray_util.Param_repo.set repo ~key:Gray_util.Param_repo.key_page_in_ns ~value:9e6
    ~source:"test";
  Gray_util.Param_repo.set repo ~key:Gray_util.Param_repo.key_page_alloc_zero_ns
    ~value:9e3 ~source:"test";
  match (Mac.default_config ~repo ()).Mac.slow_threshold_ns with
  | Some t ->
    (* geometric mean of 9ms and 9us = ~285us *)
    Alcotest.(check bool) "threshold between" true (t > 9_000 && t < 9_000_000)
  | None -> Alcotest.fail "expected threshold"

(* ---- fallback ordering (the degraded gbp pipeline) ---- *)

open Simos

let mib = 1024 * 1024

let tiny_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.0

let in_sim body =
  let engine = Engine.create () in
  let k = Ambient.boot ~engine ~platform:tiny_linux ~data_disks:1 ~seed:11 () in
  Kernel.spawn k (fun env -> body env);
  Kernel.run k

let small_config ~seed =
  {
    (Fccd.default_config ~seed ()) with
    Fccd.access_unit = 1 * mib;
    prediction_unit = 256 * 1024;
  }

let test_gbp_fallback_low_confidence () =
  in_sim (fun env ->
      let paths =
        Gray_apps.Workload.make_files env ~dir:"/d0/data" ~prefix:"f" ~count:3
          ~size:(1 * mib)
      in
      (* an impossible bar forces the low-confidence passthrough *)
      let ordered, reason =
        Gbp.best_order_or_fallback env (small_config ~seed:4) ~min_confidence:1.1
          Gbp.Mem ~paths
      in
      Alcotest.(check (list string)) "argument order preserved" paths ordered;
      (match reason with
      | Some (Gbp.Low_confidence c) ->
        Alcotest.(check bool) "confidence in range" true (c >= 0.0 && c <= 1.0)
      | Some r -> Alcotest.failf "wrong reason: %s" (Gbp.fallback_reason_to_string r)
      | None -> Alcotest.fail "expected low-confidence fallback");
      (* the default bar accepts the same ordering *)
      let _, reason0 =
        Gbp.best_order_or_fallback env (small_config ~seed:5) Gbp.Mem ~paths
      in
      Alcotest.(check bool) "no fallback by default" true (reason0 = None))

let test_gbp_fallback_file_mode_error () =
  in_sim (fun env ->
      let paths = [ "/d0/data/ghost1"; "/d0/data/ghost2" ] in
      let ordered, reason =
        Gbp.best_order_or_fallback env (small_config ~seed:6) Gbp.File ~paths
      in
      Alcotest.(check (list string)) "argument order preserved" paths ordered;
      Alcotest.(check bool) "degraded with an error" true
        (match reason with Some (Gbp.Degraded_error _) -> true | _ -> false))

(* The mem-mode confidence cap is applied in [Gbp.Make], on every
   backend: a backend whose timer supports at most 0.25 belief must fall
   back where the exact sim clears the same bar. *)
module Capped = struct
  include Os_sim

  let timing_confidence_cap _ = 0.25
end

(* The mem-mode verdict at a 0.5 bar on a fresh sigma = 0 machine with
   half the files warmed; [order] is one backend's
   [best_order_or_fallback] (a fresh machine each, since probing warms
   what it touches). *)
let half_warmed_verdict order =
  let engine = Engine.create () in
  let k = Kernel.boot ~engine ~platform:tiny_linux ~data_disks:1 ~seed:11 () in
  let verdict = ref None in
  Kernel.spawn k (fun env ->
      let paths =
        Gray_apps.Workload.make_files env ~dir:"/d0/data" ~prefix:"f" ~count:4
          ~size:(1 * mib)
      in
      Kernel.flush_file_cache k;
      List.iter (Gray_apps.Workload.read_file env) [ List.nth paths 1; List.nth paths 3 ];
      verdict := Some (paths, order env (small_config ~seed:7) ~paths));
  Kernel.run k;
  Option.get !verdict

let test_gbp_confidence_cap () =
  let module G = Gbp.Make (Capped) in
  let _, (_, reason) =
    half_warmed_verdict (fun env config ~paths ->
        Gbp.best_order_or_fallback env config ~min_confidence:0.5 Gbp.Mem ~paths)
  in
  Alcotest.(check bool) "the sim clears the bar" true (reason = None);
  let paths, (ordered, reason) =
    half_warmed_verdict (fun env config ~paths ->
        G.best_order_or_fallback env config ~min_confidence:0.5 Gbp.Mem ~paths)
  in
  Alcotest.(check (list string)) "argument order preserved" paths ordered;
  match reason with
  | Some (Gbp.Low_confidence c) ->
    Alcotest.(check bool) (Printf.sprintf "capped (%.2f)" c) true (c <= 0.25)
  | Some r -> Alcotest.failf "wrong reason: %s" (Gbp.fallback_reason_to_string r)
  | None -> Alcotest.fail "expected the cap to force a fallback"

let test_gbp_exit_codes_distinct () =
  let kernel_codes =
    List.map Gbp.exit_code_of_error
      [
        Kernel.Bad_path;
        Kernel.Bad_fd;
        Kernel.Retryable;
        Kernel.Fs_error Fs.Enoent;
        Kernel.Fs_error Fs.Eexist;
        Kernel.Fs_error Fs.Enospc;
        Kernel.Unsupported "vmstat";
      ]
  in
  let all =
    (0 :: 1 :: kernel_codes)
    @ [
        Gbp.exit_export_failed;
        Gbp.exit_crash_recovered;
        Gbp.exit_recovery_failed;
        Gbp.exit_stale;
      ]
  in
  Alcotest.(check int) "all exit codes distinct" (List.length all)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check int) "export failure is 8" 8 Gbp.exit_export_failed;
  Alcotest.(check int) "crash recovered is 9" 9 Gbp.exit_crash_recovered;
  Alcotest.(check int) "recovery failed is 10" 10 Gbp.exit_recovery_failed;
  Alcotest.(check int) "stale budget exhausted is 11" 11 Gbp.exit_stale;
  (* the host additions fold into the same space: an unavailable host
     capability is its own code, the host-only transients/errnos reuse
     the matching sim codes *)
  Alcotest.(check int) "host unavailable is 12" 12 Gbp.exit_host_unavailable;
  Alcotest.(check int) "Unsupported = host unavailable"
    Gbp.exit_host_unavailable
    (Gbp.exit_code_of_error (Kernel.Unsupported "vmstat"));
  Alcotest.(check int) "Timeout retries like Retryable"
    (Gbp.exit_code_of_error Kernel.Retryable)
    (Gbp.exit_code_of_error Kernel.Timeout);
  Alcotest.(check int) "Sys_error lands with the residual fs errors"
    (Gbp.exit_code_of_error (Kernel.Fs_error Fs.Enospc))
    (Gbp.exit_code_of_error (Kernel.Sys_error "EACCES"))

(* ---- the plane variables are read at the program edge ---- *)

(* [f] with each variable set to its value, restored afterwards (unset
   and empty read the same). *)
let with_env bindings f =
  let saved = List.map (fun (var, _) -> (var, Sys.getenv_opt var)) bindings in
  List.iter (fun (var, value) -> Unix.putenv var value) bindings;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (var, v) -> Unix.putenv var (Option.value v ~default:"")) saved)
    f

let test_boot_reads_no_environment () =
  with_env
    [ ("GRAYBOX_FAULTS", "canonical"); ("GRAYBOX_CRASH", "durable"); ("GRAYBOX_DRIFT", "canonical") ]
    (fun () ->
      let k = Kernel.boot ~engine:(Engine.create ()) ~platform:tiny_linux ~seed:1 () in
      Alcotest.(check bool) "no fault plane" true (Option.is_none (Kernel.fault_plane k));
      Alcotest.(check bool) "no crash plane" true (Option.is_none (Kernel.crash_plane k));
      Alcotest.(check bool) "no drift plane" true (Option.is_none (Kernel.drift_plane k)))

let test_planes_of_env () =
  List.iter
    (fun (faults, crash, drift) ->
      with_env
        [ ("GRAYBOX_FAULTS", faults); ("GRAYBOX_CRASH", crash); ("GRAYBOX_DRIFT", drift) ]
        (fun () ->
          let p = Planes.of_env () in
          let label = Printf.sprintf "%S %S %S" faults crash drift in
          Alcotest.(check bool) (label ^ ": faults") true (p.Planes.faults = Fault.of_string faults);
          Alcotest.(check bool) (label ^ ": crash") true (p.Planes.crash = Crash.of_string crash);
          Alcotest.(check bool) (label ^ ": drift") true (p.Planes.drift = Drift.of_string drift)))
    [
      ("", "", "");
      ("canonical", "durable", "canonical");
      (" HEAVY ", "at:37", "quiet");
      ("0.5", "0.25", "none");
    ]

let suite =
  [
    Alcotest.test_case "dirname/basename" `Quick test_dirname_basename;
    Alcotest.test_case "gbp exit codes distinct" `Quick test_gbp_exit_codes_distinct;
    Alcotest.test_case "crash points" `Quick test_crash_points_enumeration;
    Alcotest.test_case "journal name stable" `Quick test_journal_name_stable;
    Alcotest.test_case "fccd align validation" `Quick test_fccd_config_align_validation;
    Alcotest.test_case "fccd default config" `Quick test_fccd_default_config_sizes;
    Alcotest.test_case "mac default config" `Quick test_mac_default_config;
    Alcotest.test_case "gbp fallback on low confidence" `Quick
      test_gbp_fallback_low_confidence;
    Alcotest.test_case "gbp fallback on file-mode error" `Quick
      test_gbp_fallback_file_mode_error;
    Alcotest.test_case "gbp confidence cap in Gbp.Make" `Quick test_gbp_confidence_cap;
    Alcotest.test_case "boot reads no environment" `Quick test_boot_reads_no_environment;
    Alcotest.test_case "planes read at the edge" `Quick test_planes_of_env;
  ]

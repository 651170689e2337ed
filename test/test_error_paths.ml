(* Kernel error paths as the ICLs and gbp see them: missing files, bad
   descriptors, malformed paths, and the exit-code mapping. *)

open Simos
open Graybox_core

let mib = 1024 * 1024

let tiny_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.0

let boot () =
  let engine = Engine.create () in
  Ambient.boot ~engine ~platform:tiny_linux ~data_disks:1 ~seed:11 ()

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Kernel.error_to_string e)

let config ~seed =
  {
    (Fccd.default_config ~seed ()) with
    Fccd.access_unit = 1 * mib;
    prediction_unit = 256 * 1024;
  }

let check_error name expected = function
  | Error e when e = expected -> ()
  | Error e -> Alcotest.failf "%s: wrong error %s" name (Kernel.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: unexpectedly succeeded" name

let test_fccd_missing_and_malformed () =
  let k = boot () in
  Kernel.spawn k (fun env ->
      check_error "missing file" (Kernel.Fs_error Fs.Enoent)
        (Fccd.probe_file env (config ~seed:1) ~path:"/d0/nope");
      check_error "malformed path" Kernel.Bad_path
        (Fccd.probe_file env (config ~seed:2) ~path:"bogus");
      check_error "order_files missing" (Kernel.Fs_error Fs.Enoent)
        (Fccd.order_files env (config ~seed:3) ~paths:[ "/d0/nope" ]));
  Kernel.run k

let test_fldc_missing_and_malformed () =
  let k = boot () in
  Kernel.spawn k (fun env ->
      check_error "stat missing" (Kernel.Fs_error Fs.Enoent)
        (Fldc.order_by_inumber env ~paths:[ "/d0/nope" ]);
      check_error "stat malformed" Kernel.Bad_path
        (Fldc.order_by_inumber env ~paths:[ "not-a-path" ]));
  Kernel.run k

let test_probe_bad_fd_not_retried () =
  let k = boot () in
  Kernel.spawn k (fun env ->
      let fd = ok (Kernel.create_file env "/d0/a") in
      ignore (ok (Kernel.write env fd ~off:0 ~len:4096));
      Kernel.close env fd;
      (* a permanent error must come back immediately, not after a retry
         storm: the policy's retry counter stays at zero *)
      let policy = Resilient.policy ~seed:7 () in
      check_error "closed fd" Kernel.Bad_fd (Probe.file_byte_r env ~policy fd ~off:0);
      Alcotest.(check int) "no retries burned" 0 (Resilient.retries_spent policy));
  Kernel.run k

(* ---- Resilient degradation bounds ---- *)

(* A channel that never recovers must cost exactly the budget and then
   surface the last error — not an unbounded stall, not a success. *)
let test_retry_budget_exhaustion () =
  let k = boot () in
  Kernel.spawn k (fun _env ->
      let policy =
        Resilient.policy ~max_attempts:100 ~budget:3 ~seed:9 ()
      in
      let calls = ref 0 in
      let r =
        Resilient.retry ~policy (fun () ->
            incr calls;
            Error Kernel.Retryable)
      in
      check_error "last error surfaces" Kernel.Retryable r;
      Alcotest.(check int) "budget spent exactly" 3 (Resilient.retries_spent policy);
      (* budget retries = budget + 1 issues of the call *)
      Alcotest.(check int) "calls = budget + 1" 4 !calls;
      (* a drained policy stops paying on the next call too *)
      let r2 = Resilient.retry ~policy (fun () -> Error Kernel.Retryable) in
      check_error "drained policy returns immediately" Kernel.Retryable r2;
      Alcotest.(check int) "no further retries" 3 (Resilient.retries_spent policy));
  Kernel.run k

(* Backoff saturates at the cap: with a tiny cap, the virtual time burned
   by a full retry storm is bounded by retries * cap, and [retries_spent]
   never exceeds either bound (attempts - 1, budget). *)
let test_retry_backoff_cap_saturation () =
  let k = boot () in
  let engine_now = ref 0 in
  Kernel.spawn k (fun env ->
      let cap = 200_000 (* 200 us *) in
      let policy =
        Resilient.policy ~max_attempts:8 ~base_backoff_ns:50_000
          ~max_backoff_ns:cap ~budget:1000 ~seed:10 ()
      in
      let t0 = Kernel.gettime env in
      let r = Resilient.retry ~policy (fun () -> Error Kernel.Retryable) in
      check_error "last error after attempts" Kernel.Retryable r;
      let spent = Resilient.retries_spent policy in
      Alcotest.(check int) "retries = attempts - 1" 7 spent;
      Alcotest.(check bool) "spent within budget" true (spent <= 1000);
      engine_now := Kernel.gettime env - t0;
      (* every sleep is capped, so elapsed <= retries * cap (plus a
         little timer-quantisation slack on the clock reads) *)
      let slack = 1_000 in
      Alcotest.(check bool) "elapsed bounded by cap"
        true
        (!engine_now <= (spent * cap) + slack));
  Kernel.run k;
  Alcotest.(check bool) "some backoff actually slept" true (!engine_now > 0)

let test_classify () =
  Alcotest.(check bool) "retryable is transient" true
    (Resilient.classify Kernel.Retryable = `Transient);
  List.iter
    (fun e ->
      Alcotest.(check bool) "permanent" true (Resilient.classify e = `Permanent))
    [ Kernel.Bad_fd; Kernel.Bad_path; Kernel.Fs_error Fs.Enoent ]

let test_exit_codes_distinct_and_nonzero () =
  let errors =
    [
      Kernel.Bad_path;
      Kernel.Bad_fd;
      Kernel.Retryable;
      Kernel.Fs_error Fs.Enoent;
      Kernel.Fs_error Fs.Eexist;
      Kernel.Fs_error Fs.Enospc;
    ]
  in
  let codes =
    List.map Gbp.exit_code_of_error errors
    @ [ Gbp.exit_export_failed; Gbp.exit_crash_recovered; Gbp.exit_recovery_failed ]
  in
  List.iter
    (fun c -> Alcotest.(check bool) "not 0 or 1" true (c <> 0 && c <> 1))
    codes;
  Alcotest.(check int) "distinct codes" (List.length codes)
    (List.length (List.sort_uniq compare codes))

let test_gbp_error_fallback_passthrough () =
  let k = boot () in
  Kernel.spawn k (fun env ->
      let paths =
        Gray_apps.Workload.make_files env ~dir:"/d0/data" ~prefix:"f" ~count:3
          ~size:(1 * mib)
      in
      let with_ghost = paths @ [ "/d0/data/ghost" ] in
      let ordered, reason =
        Gbp.best_order_or_fallback env (config ~seed:4) Gbp.Mem ~paths:with_ghost
      in
      Alcotest.(check (list string)) "argument order preserved" with_ghost ordered;
      match reason with
      | Some (Gbp.Degraded_error (Kernel.Fs_error Fs.Enoent)) -> ()
      | Some r -> Alcotest.failf "wrong reason: %s" (Gbp.fallback_reason_to_string r)
      | None -> Alcotest.fail "expected a fallback reason");
  Kernel.run k

let suite =
  [
    Alcotest.test_case "fccd missing/malformed" `Quick test_fccd_missing_and_malformed;
    Alcotest.test_case "fldc missing/malformed" `Quick test_fldc_missing_and_malformed;
    Alcotest.test_case "probe bad fd not retried" `Quick test_probe_bad_fd_not_retried;
    Alcotest.test_case "retry budget exhaustion" `Quick test_retry_budget_exhaustion;
    Alcotest.test_case "retry backoff cap saturation" `Quick
      test_retry_backoff_cap_saturation;
    Alcotest.test_case "error classification" `Quick test_classify;
    Alcotest.test_case "exit codes distinct" `Quick test_exit_codes_distinct_and_nonzero;
    Alcotest.test_case "gbp fallback passthrough" `Quick test_gbp_error_fallback_passthrough;
  ]

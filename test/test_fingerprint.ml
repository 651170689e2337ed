(* Policy fingerprinting: gray-box identification vs the preset's truth. *)

open Simos
open Graybox_core

let mib = 1024 * 1024

(* small machines so capacity probes stay quick *)
let platform_with ?(file_cache = `Fixed_mib 48) policy =
  Platform.with_noise
    (Platform.with_file_policy
       { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32;
         file_cache }
       policy)
    ~sigma:0.0

let run_proc platform body =
  let engine = Engine.create () in
  let k = Kernel.boot ~engine ~platform ~data_disks:1 ~seed:606 () in
  let result = ref None in
  Kernel.spawn k (fun env -> result := Some (body env));
  Kernel.run k;
  Option.get !result

let classify platform =
  run_proc platform (fun env ->
      Fingerprint.classify env ~scratch_dir:"/d0" ~capacity_hint:(48 * mib) ())

let test_lru_is_recency () =
  let v = classify (platform_with Replacement.lru) in
  Alcotest.(check string) v.Fingerprint.v_evidence "recency"
    (match v.Fingerprint.v_policy with
    | `Recency -> "recency"
    | `Fifo -> "fifo"
    | `Sticky -> "sticky"
    | `Unknown -> "unknown")

let test_clock_is_recency () =
  let v = classify (platform_with Replacement.clock) in
  Alcotest.(check bool) v.Fingerprint.v_evidence true (v.Fingerprint.v_policy = `Recency)

let test_fifo_is_fifo () =
  let v = classify (platform_with Replacement.fifo) in
  Alcotest.(check bool) v.Fingerprint.v_evidence true (v.Fingerprint.v_policy = `Fifo)

let test_mru_is_sticky () =
  let v = classify (platform_with Replacement.mru_sticky) in
  Alcotest.(check bool) v.Fingerprint.v_evidence true (v.Fingerprint.v_policy = `Sticky)

let test_capacity_estimate () =
  let estimated =
    run_proc
      (platform_with ~file_cache:`Unified Replacement.clock)
      (fun env -> Fingerprint.estimate_capacity env ~scratch_dir:"/d0" ~max_bytes:(192 * mib))
  in
  (* 64 MB usable on this machine *)
  Alcotest.(check bool)
    (Printf.sprintf "estimated %d MB ~ 64 MB" (estimated / mib))
    true
    (estimated >= 32 * mib && estimated <= 96 * mib)

let test_capacity_estimate_fixed () =
  let estimated =
    run_proc (platform_with Replacement.lru) (fun env ->
        Fingerprint.estimate_capacity env ~scratch_dir:"/d0" ~max_bytes:(192 * mib))
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimated %d MB ~ 48 MB fixed cache" (estimated / mib))
    true
    (estimated >= 24 * mib && estimated <= 80 * mib)

let test_scratch_cleanup () =
  let leftovers =
    run_proc (platform_with Replacement.lru) (fun env ->
        ignore (Fingerprint.classify env ~scratch_dir:"/d0" ~capacity_hint:(48 * mib) ());
        Gray_apps.Workload.ok_exn (Kernel.readdir env "/d0"))
  in
  Alcotest.(check (list string)) "no leftovers" [] leftovers

let suite =
  [
    Alcotest.test_case "lru -> recency" `Quick test_lru_is_recency;
    Alcotest.test_case "clock -> recency" `Quick test_clock_is_recency;
    Alcotest.test_case "fifo -> fifo" `Quick test_fifo_is_fifo;
    Alcotest.test_case "mru-sticky -> sticky" `Quick test_mru_is_sticky;
    Alcotest.test_case "capacity estimate (unified)" `Quick test_capacity_estimate;
    Alcotest.test_case "capacity estimate (fixed)" `Quick test_capacity_estimate_fixed;
    Alcotest.test_case "scratch cleanup" `Quick test_scratch_cleanup;
  ]

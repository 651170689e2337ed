(* FCCD: does probe-and-sort actually find the cached data? *)

open Simos
open Graybox_core

let mib = 1024 * 1024

let tiny_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.0

let noisy_linux = Platform.with_noise tiny_linux ~sigma:0.08

let run_proc ?(platform = tiny_linux) body =
  let engine = Engine.create () in
  let k = Ambient.boot ~engine ~platform ~data_disks:2 ~seed:33 () in
  let result = ref None in
  Kernel.spawn k (fun env -> result := Some (body env));
  Kernel.run k;
  (k, Option.get !result)

let ok = Gray_apps.Workload.ok_exn

(* FCCD config scaled to the tiny platform: 4 MB access units, 1 MB
   prediction units. *)
let small_config seed =
  let c = Fccd.default_config ~seed () in
  { c with Fccd.access_unit = 4 * mib; prediction_unit = 1 * mib }

let test_plan_covers_file () =
  let _, () =
    run_proc (fun env ->
        Gray_apps.Workload.write_file env "/d0/a" ((10 * mib) + 12345);
        let plan = ok (Fccd.probe_file env (small_config 1) ~path:"/d0/a") in
        let extents =
          List.sort (fun a b -> compare a.Fccd.ext_off b.Fccd.ext_off) (Fccd.extents plan)
        in
        let expected_off = ref 0 in
        List.iter
          (fun e ->
            Alcotest.(check int) "contiguous" !expected_off e.Fccd.ext_off;
            expected_off := !expected_off + e.Fccd.ext_len)
          extents;
        Alcotest.(check int) "covers size" ((10 * mib) + 12345) !expected_off)
  in
  ()

let test_alignment_respected () =
  let _, () =
    run_proc (fun env ->
        Gray_apps.Workload.write_file env "/d0/a" (10 * mib);
        let config = Fccd.with_align (small_config 2) 100 in
        let plan = ok (Fccd.probe_file env config ~path:"/d0/a") in
        List.iter
          (fun e -> Alcotest.(check int) "offset aligned" 0 (e.Fccd.ext_off mod 100))
          (Fccd.extents plan))
  in
  ()

let test_detects_cached_tail () =
  (* 120 MB file on a 64 MB machine: after one linear scan the tail is
     cached; FCCD must rank tail extents first, matching the bitmap. *)
  let _, accuracy =
    run_proc (fun env ->
        let k = Kernel.kernel_of_env env in
        Gray_apps.Workload.write_file env "/d0/big" (120 * mib);
        Kernel.flush_file_cache k;
        Gray_apps.Workload.read_file env "/d0/big";
        let plan = ok (Fccd.probe_file env (small_config 3) ~path:"/d0/big") in
        let bitmap =
          match Introspect.cache_bitmap k ~path:"/d0/big" with
          | Ok b -> b
          | Error _ -> Alcotest.fail "bitmap"
        in
        let page = 4096 in
        let cached_fraction e =
          let first = e.Fccd.ext_off / page in
          let last = (e.Fccd.ext_off + e.Fccd.ext_len - 1) / page in
          let hits = ref 0 in
          for p = first to last do
            if bitmap.(p) then incr hits
          done;
          float_of_int !hits /. float_of_int (last - first + 1)
        in
        (* fraction of "first half of the plan" extents that are mostly
           cached: should be near 1 *)
        let extents = Fccd.extents plan in
        let n = List.length extents in
        let truly_cached =
          List.filteri (fun i _ -> i < n / 2) extents
          |> List.filter (fun e -> cached_fraction e > 0.5)
          |> List.length
        in
        float_of_int truly_cached /. float_of_int (n / 2))
  in
  Alcotest.(check bool)
    (Printf.sprintf "plan front is cached (%.2f)" accuracy)
    true (accuracy > 0.85)

let test_works_under_noise () =
  let _, accuracy =
    run_proc ~platform:noisy_linux (fun env ->
        let k = Kernel.kernel_of_env env in
        Gray_apps.Workload.write_file env "/d0/big" (120 * mib);
        Kernel.flush_file_cache k;
        Gray_apps.Workload.read_file env "/d0/big";
        let plan = ok (Fccd.probe_file env (small_config 4) ~path:"/d0/big") in
        let extents = Fccd.extents plan in
        let n = List.length extents in
        let frac = Introspect.cached_fraction k ~path:"/d0/big" in
        let front = List.filteri (fun i _ -> i < int_of_float (frac *. float_of_int n)) extents in
        let bitmap =
          match Introspect.cache_bitmap k ~path:"/d0/big" with
          | Ok b -> b
          | Error _ -> [||]
        in
        let page = 4096 in
        let mostly_cached e =
          let first = e.Fccd.ext_off / page in
          let last = (e.Fccd.ext_off + e.Fccd.ext_len - 1) / page in
          let hits = ref 0 in
          for p = first to last do
            if bitmap.(p) then incr hits
          done;
          2 * !hits > last - first + 1
        in
        let good = List.length (List.filter mostly_cached front) in
        float_of_int good /. float_of_int (max 1 (List.length front)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "noise-robust (%.2f)" accuracy)
    true (accuracy > 0.8)

let test_small_file_not_probed () =
  let _, plan =
    run_proc (fun env ->
        Gray_apps.Workload.write_file env "/d0/tiny" 1000;
        let k = Kernel.kernel_of_env env in
        Kernel.flush_file_cache k;
        let plan = ok (Fccd.probe_file env (small_config 5) ~path:"/d0/tiny") in
        (* Heisenberg: the tiny file must not have been faulted in *)
        Alcotest.(check int) "still cold" 0 (Introspect.file_cached_pages k ~path:"/d0/tiny");
        plan)
  in
  Alcotest.(check int) "no probes" 0 plan.Fccd.plan_probes;
  match plan.Fccd.plan_extents with
  | [ (_, t) ] -> Alcotest.(check bool) "fake high" true (t >= 1_000_000_000)
  | _ -> Alcotest.fail "expected one extent"

let test_empty_file () =
  let _, plan =
    run_proc (fun env ->
        let fd = ok (Kernel.create_file env "/d0/empty") in
        Kernel.close env fd;
        ok (Fccd.probe_file env (small_config 6) ~path:"/d0/empty"))
  in
  Alcotest.(check int) "no extents" 0 (List.length plan.Fccd.plan_extents)

let test_missing_file () =
  let _, r =
    run_proc (fun env -> Fccd.probe_file env (small_config 7) ~path:"/d0/nope")
  in
  match r with
  | Error (Kernel.Fs_error Fs.Enoent) -> ()
  | _ -> Alcotest.fail "expected Enoent"

let test_order_files_ranks_cached_first () =
  let _, order =
    run_proc (fun env ->
        let k = Kernel.kernel_of_env env in
        let paths =
          Gray_apps.Workload.make_files env ~dir:"/d0/set" ~prefix:"f" ~count:6
            ~size:(4 * mib)
        in
        Kernel.flush_file_cache k;
        (* warm files 1 and 4 *)
        Gray_apps.Workload.read_file env (List.nth paths 1);
        Gray_apps.Workload.read_file env (List.nth paths 4);
        let ranked = ok (Fccd.order_files env (small_config 8) ~paths) in
        List.map (fun r -> r.Fccd.fr_path) ranked)
  in
  Alcotest.(check (list string)) "cached files first"
    [ "/d0/set/f0001"; "/d0/set/f0004" ]
    (List.filteri (fun i _ -> i < 2) order |> List.sort compare)

let test_gray_scan_beats_linear_when_warm () =
  let _, (linear_warm, gray_warm) =
    run_proc (fun env ->
        let k = Kernel.kernel_of_env env in
        Gray_apps.Workload.write_file env "/d0/big" (120 * mib);
        let config = small_config 9 in
        (* linear steady state *)
        Kernel.flush_file_cache k;
        let linear_time = ref 0 in
        for _ = 1 to 3 do
          linear_time := Gray_apps.Scan.linear env ~path:"/d0/big" ~unit_bytes:(4 * mib)
        done;
        (* gray steady state *)
        Kernel.flush_file_cache k;
        let gray_time = ref 0 in
        for _ = 1 to 3 do
          gray_time := Gray_apps.Scan.gray env config ~path:"/d0/big"
        done;
        (!linear_time, !gray_time))
  in
  Alcotest.(check bool)
    (Printf.sprintf "gray %.2fs < linear %.2fs"
       (Gray_util.Units.sec_of_ns gray_warm)
       (Gray_util.Units.sec_of_ns linear_warm))
    true
    (float_of_int gray_warm < 0.7 *. float_of_int linear_warm)

let test_probe_counts () =
  let _, plan =
    run_proc (fun env ->
        Gray_apps.Workload.write_file env "/d0/a" (8 * mib);
        ok (Fccd.probe_file env (small_config 10) ~path:"/d0/a"))
  in
  (* 8 MB / 4 MB access units = 2 extents; 4 probes each at 1 MB prediction *)
  Alcotest.(check int) "extents" 2 (List.length plan.Fccd.plan_extents);
  Alcotest.(check int) "probes" 8 plan.Fccd.plan_probes

let suite =
  [
    Alcotest.test_case "plan covers file" `Quick test_plan_covers_file;
    Alcotest.test_case "alignment respected" `Quick test_alignment_respected;
    Alcotest.test_case "detects cached tail" `Quick test_detects_cached_tail;
    Alcotest.test_case "works under noise" `Quick test_works_under_noise;
    Alcotest.test_case "small file not probed" `Quick test_small_file_not_probed;
    Alcotest.test_case "empty file" `Quick test_empty_file;
    Alcotest.test_case "missing file" `Quick test_missing_file;
    Alcotest.test_case "order_files ranks cached first" `Quick
      test_order_files_ranks_cached_first;
    Alcotest.test_case "gray scan beats linear" `Quick test_gray_scan_beats_linear_when_warm;
    Alcotest.test_case "probe counts" `Quick test_probe_counts;
  ]

(* Applications: grep / search / fastsort behaviour on the simulated OS. *)

open Simos
open Graybox_core
open Gray_apps

let mib = 1024 * 1024

let tiny_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.0

let run_proc ?(data_disks = 3) body =
  let engine = Engine.create () in
  let k = Kernel.boot ~engine ~platform:tiny_linux ~data_disks ~seed:123 () in
  let result = ref None in
  Kernel.spawn k (fun env -> result := Some (body env));
  Kernel.run k;
  (k, Option.get !result)

let small_config seed =
  let c = Fccd.default_config ~seed () in
  { c with Fccd.access_unit = 4 * mib; prediction_unit = 1 * mib }

let test_grep_variants_ranking () =
  (* warm cache: gray beats unmodified; gbp sits between *)
  let _, (unmod, gray, via_gbp) =
    run_proc (fun env ->
        let k = Kernel.kernel_of_env env in
        let paths =
          Workload.make_files env ~dir:"/d0/txt" ~prefix:"t" ~count:20 ~size:(5 * mib)
        in
        let matches _ = 1 in
        let config = small_config 1 in
        let steady variant =
          Kernel.flush_file_cache k;
          let t = ref 0 in
          for _ = 1 to 3 do
            let _, ns = Grep.run env config variant ~paths ~matches in
            t := ns
          done;
          !t
        in
        (steady Grep.Unmodified, steady Grep.Gray, steady Grep.Via_gbp))
  in
  Alcotest.(check bool)
    (Printf.sprintf "gray %.2fs < unmodified %.2fs"
       (Gray_util.Units.sec_of_ns gray) (Gray_util.Units.sec_of_ns unmod))
    true
    (float_of_int gray < 0.6 *. float_of_int unmod);
  Alcotest.(check bool)
    (Printf.sprintf "gbp %.2fs between gray %.2fs and unmodified %.2fs"
       (Gray_util.Units.sec_of_ns via_gbp) (Gray_util.Units.sec_of_ns gray)
       (Gray_util.Units.sec_of_ns unmod))
    true
    (float_of_int via_gbp >= 0.95 *. float_of_int gray
    && float_of_int via_gbp < 0.9 *. float_of_int unmod)

let test_grep_counts_matches () =
  let _, total =
    run_proc (fun env ->
        let paths =
          Workload.make_files env ~dir:"/d0/txt" ~prefix:"t" ~count:5 ~size:mib
        in
        let matches p = if p = "/d0/txt/t0002" then 7 else 0 in
        let total, _ = Grep.run env (small_config 2) Grep.Unmodified ~paths ~matches in
        total)
  in
  Alcotest.(check int) "matches" 7 total

let test_search_early_exit () =
  (* match in a cached file listed last: gray search finds it fast *)
  let _, (unmod_ns, gray_ns, found_unmod, found_gray) =
    run_proc (fun env ->
        let k = Kernel.kernel_of_env env in
        let paths =
          Workload.make_files env ~dir:"/d0/txt" ~prefix:"t" ~count:12 ~size:(4 * mib)
        in
        let target = List.nth paths 11 in
        let match_in p = p = target in
        Kernel.flush_file_cache k;
        Workload.read_file env target;
        let f1, unmod_ns = Search.run env ~paths ~match_in () in
        Kernel.flush_file_cache k;
        Workload.read_file env target;
        let f2, gray_ns = Search.run env ~gray:(small_config 3) ~paths ~match_in () in
        (unmod_ns, gray_ns, f1, f2))
  in
  Alcotest.(check (option string)) "unmodified finds it" (Some "/d0/txt/t0011") found_unmod;
  Alcotest.(check (option string)) "gray finds it" (Some "/d0/txt/t0011") found_gray;
  Alcotest.(check bool)
    (Printf.sprintf "gray %.2fs << unmodified %.2fs"
       (Gray_util.Units.sec_of_ns gray_ns) (Gray_util.Units.sec_of_ns unmod_ns))
    true
    (float_of_int gray_ns < 0.2 *. float_of_int unmod_ns)

let test_search_no_match () =
  let _, (found, _) =
    run_proc (fun env ->
        let paths =
          Workload.make_files env ~dir:"/d0/txt" ~prefix:"t" ~count:3 ~size:mib
        in
        Search.run env ~paths ~match_in:(fun _ -> false) ())
  in
  Alcotest.(check (option string)) "no match" None found

let test_fastsort_read_phase_orders () =
  let _, (linear_ns, gray_ns, gbp_ns) =
    run_proc (fun env ->
        let k = Kernel.kernel_of_env env in
        Workload.write_file env "/d0/input" (96 * mib);
        let config = Fastsort.default_config ~input:"/d0/input" ~run_dir:"/d1/runs" in
        let warm_then order =
          (* recreate pipeline conditions: rewrite the input, leaving its
             tail cached, as the paper does between runs *)
          Kernel.flush_file_cache k;
          Workload.read_file env "/d0/input";
          Fastsort.read_phase_only env config ~order ~pass_bytes:(16 * mib)
        in
        let linear = warm_then Fastsort.Linear in
        let gray = warm_then (Fastsort.Gray_fccd (small_config 4)) in
        let gbp = warm_then (Fastsort.Via_gbp_out (small_config 5)) in
        (linear, gray, gbp))
  in
  Alcotest.(check bool)
    (Printf.sprintf "gray %.2fs < linear %.2fs"
       (Gray_util.Units.sec_of_ns gray_ns) (Gray_util.Units.sec_of_ns linear_ns))
    true
    (float_of_int gray_ns < 0.85 *. float_of_int linear_ns);
  Alcotest.(check bool)
    (Printf.sprintf "gbp %.2fs >= gray %.2fs"
       (Gray_util.Units.sec_of_ns gbp_ns) (Gray_util.Units.sec_of_ns gray_ns))
    true
    (gbp_ns >= gray_ns)

let test_fastsort_phase1_static_no_pressure () =
  let k, (times, run_files) =
    run_proc (fun env ->
        Workload.write_file env "/d0/input" (48 * mib);
        let config = Fastsort.default_config ~input:"/d0/input" ~run_dir:"/d1/runs" in
        Kernel.flush_file_cache (Kernel.kernel_of_env env);
        let times =
          Fastsort.run_phase1 env config ~policy:(Fastsort.Static_pass (16 * mib))
            ~total_bytes:(48 * mib)
        in
        (times, Workload.ok_exn (Kernel.readdir env "/d1/runs")))
  in
  Alcotest.(check int) "three passes" 3 times.Fastsort.pt_passes;
  Alcotest.(check (list int)) "pass sizes"
    [ 16 * mib; 16 * mib; 16 * mib ]
    times.Fastsort.pt_pass_bytes;
  Alcotest.(check int) "no paging" 0 (Kernel.counters k).Kernel.c_page_ins;
  Alcotest.(check bool) "phases measured" true
    (times.Fastsort.pt_read > 0 && times.Fastsort.pt_sort > 0 && times.Fastsort.pt_write > 0);
  Alcotest.(check int) "one run file per pass" 3 (List.length run_files)

let test_fastsort_oversized_pass_pages () =
  let k, _times =
    run_proc (fun env ->
        Workload.write_file env "/d0/input" (96 * mib);
        let config = Fastsort.default_config ~input:"/d0/input" ~run_dir:"/d1/runs" in
        Kernel.flush_file_cache (Kernel.kernel_of_env env);
        (* 80 MB pass on a 64 MB machine: must thrash *)
        Fastsort.run_phase1 env config ~policy:(Fastsort.Static_pass (80 * mib))
          ~total_bytes:(96 * mib))
  in
  Alcotest.(check bool) "paged" true ((Kernel.counters k).Kernel.c_page_ins > 0)

let test_fastsort_mac_adapts_and_avoids_paging () =
  let _, (times, static_times, page_ins_during_mac) =
    run_proc (fun env ->
        let k = Kernel.kernel_of_env env in
        Workload.write_file env "/d0/input" (96 * mib);
        let config = Fastsort.default_config ~input:"/d0/input" ~run_dir:"/d1/runs" in
        let mac =
          {
            (Mac.default_config ()) with
            Mac.initial_increment = 2 * mib;
            max_increment = 8 * mib;
          }
        in
        Kernel.flush_file_cache k;
        Kernel.reset_counters k;
        let times =
          Fastsort.run_phase1 env config
            ~policy:
              (Fastsort.Mac_adaptive
                 { mac; min_bytes = 8 * mib; retry_ns = 50_000_000 })
            ~total_bytes:(96 * mib)
        in
        let page_ins = (Kernel.counters k).Kernel.c_page_ins in
        Kernel.flush_file_cache k;
        let static_times =
          Fastsort.run_phase1 env config ~policy:(Fastsort.Static_pass (80 * mib))
            ~total_bytes:(96 * mib)
        in
        (times, static_times, page_ins))
  in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive passes sized sensibly (%s)"
       (String.concat ","
          (List.map (fun b -> string_of_int (b / mib)) times.Fastsort.pt_pass_bytes)))
    true
    (List.for_all (fun b -> b <= 64 * mib) times.Fastsort.pt_pass_bytes);
  Alcotest.(check bool)
    (Printf.sprintf "bounded paging with MAC (%d page-ins)" page_ins_during_mac)
    true
    (page_ins_during_mac < 96 * mib / 4096 * 15 / 100);
  Alcotest.(check bool)
    (Printf.sprintf "MAC %.2fs beats oversized static %.2fs"
       (Gray_util.Units.sec_of_ns (Fastsort.total_ns times))
       (Gray_util.Units.sec_of_ns (Fastsort.total_ns static_times)))
    true
    (Fastsort.total_ns times < Fastsort.total_ns static_times)

let suite =
  [
    Alcotest.test_case "grep variants ranking" `Quick test_grep_variants_ranking;
    Alcotest.test_case "grep counts matches" `Quick test_grep_counts_matches;
    Alcotest.test_case "search early exit" `Quick test_search_early_exit;
    Alcotest.test_case "search no match" `Quick test_search_no_match;
    Alcotest.test_case "fastsort read-phase orders" `Quick test_fastsort_read_phase_orders;
    Alcotest.test_case "fastsort static phase1" `Quick test_fastsort_phase1_static_no_pressure;
    Alcotest.test_case "fastsort oversized pass pages" `Quick
      test_fastsort_oversized_pass_pages;
    Alcotest.test_case "fastsort MAC adapts" `Quick test_fastsort_mac_adapts_and_avoids_paging;
  ]

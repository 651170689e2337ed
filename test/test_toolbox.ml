(* Toolbox microbenchmarks: gray-box parameter discovery vs the platform's
   true cost model. *)

open Simos
open Graybox_core
open Gray_util

let tiny_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.0

let run_proc body =
  let engine = Engine.create () in
  let k = Kernel.boot ~engine ~platform:tiny_linux ~data_disks:2 ~seed:202 () in
  let result = ref None in
  Kernel.spawn k (fun env -> result := Some (body env));
  Kernel.run k;
  (k, Option.get !result)

let test_memcopy_measurement () =
  let _, per_page = run_proc (fun env -> Toolbox.measure_memcopy env ~scratch_dir:"/d0") in
  (* true cost: 4096 bytes * 0.007 ns/B ~ 28.7 us per page (plus a small
     syscall share) *)
  let truth = 4096.0 *. tiny_linux.Platform.memcopy_byte_ns in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.0f ~ true %.0f" per_page truth)
    true
    (per_page > 0.8 *. truth && per_page < 2.0 *. truth)

let test_disk_measurement () =
  let _, (seek, bandwidth) = run_proc (fun env -> Toolbox.measure_disk env ~scratch_dir:"/d0") in
  (* true sustained bandwidth: 4 KB / 200 us = 20 MB/s *)
  Alcotest.(check bool)
    (Printf.sprintf "bandwidth %.1f MB/s" (bandwidth /. 1e6))
    true
    (bandwidth > 10e6 && bandwidth < 25e6);
  (* random single-page read: seek (0.8-10.5 ms) + rotation (3 ms) *)
  Alcotest.(check bool)
    (Printf.sprintf "random access %.1f ms" (seek /. 1e6))
    true
    (seek > 2e6 && seek < 20e6)

let test_page_costs () =
  let _, (zero, touch) = run_proc (fun env -> Toolbox.measure_page_costs env) in
  Alcotest.(check bool)
    (Printf.sprintf "zero-fill %.0f >> touch %.0f" zero touch)
    true
    (zero > 5.0 *. touch);
  Alcotest.(check bool) "zero-fill ~9us" true (zero > 4_000.0 && zero < 20_000.0)

let test_run_all_populates_repo () =
  let _, repo = run_proc (fun env -> Toolbox.run_all env ~scratch_dir:"/d0") in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true (Param_repo.mem repo key))
    [
      Param_repo.key_disk_seek_ns;
      Param_repo.key_disk_bandwidth_bytes_per_sec;
      Param_repo.key_memcopy_page_ns;
      Param_repo.key_page_alloc_zero_ns;
      Param_repo.key_cache_hit_read_ns;
      Param_repo.key_cache_miss_read_ns;
      Param_repo.key_access_unit_bytes;
      "fccd.hit_miss_split_ns";
    ];
  let hit = Param_repo.get_exn repo Param_repo.key_cache_hit_read_ns in
  let miss = Param_repo.get_exn repo Param_repo.key_cache_miss_read_ns in
  Alcotest.(check bool)
    (Printf.sprintf "hit %.0f << miss %.0f" hit miss)
    true
    (miss > 50.0 *. hit);
  (* the repo round-trips through its text format *)
  let again = Param_repo.of_string (Param_repo.to_string repo) in
  Alcotest.(check (list string)) "roundtrip keys" (Param_repo.keys repo)
    (Param_repo.keys again);
  (* scratch files cleaned up *)
  ()

let test_scratch_cleanup () =
  let _, leftovers =
    run_proc (fun env ->
        ignore (Toolbox.run_all env ~scratch_dir:"/d0");
        Gray_apps.Workload.ok_exn (Kernel.readdir env "/d0"))
  in
  Alcotest.(check (list string)) "no scratch leftovers" [] leftovers

let test_default_configs_consume_repo () =
  let _, repo = run_proc (fun env -> Toolbox.run_all env ~scratch_dir:"/d0") in
  let fccd = Fccd.default_config ~repo ~seed:1 () in
  Alcotest.(check bool) "access unit from repo" true (fccd.Fccd.access_unit > 0);
  let mac = Mac.default_config ~repo () in
  match mac.Mac.slow_threshold_ns with
  | Some t -> Alcotest.(check bool) "threshold sane" true (t > 1_000 && t < 10_000_000)
  | None -> Alcotest.fail "expected threshold from repo"

let suite =
  [
    Alcotest.test_case "memcopy measurement" `Quick test_memcopy_measurement;
    Alcotest.test_case "disk measurement" `Quick test_disk_measurement;
    Alcotest.test_case "page costs" `Quick test_page_costs;
    Alcotest.test_case "run_all populates repo" `Quick test_run_all_populates_repo;
    Alcotest.test_case "scratch cleanup" `Quick test_scratch_cleanup;
    Alcotest.test_case "default configs consume repo" `Quick
      test_default_configs_consume_repo;
  ]

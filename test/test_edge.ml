(* Cross-cutting edge cases: namespace moves, cache sharing across
   processes, disk contention, determinism. *)

open Simos

let mib = 1024 * 1024

let tiny_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.0

let boot () =
  let engine = Engine.create () in
  Ambient.boot ~engine ~platform:tiny_linux ~data_disks:2 ~seed:707 ()

let run_proc body =
  let k = boot () in
  let result = ref None in
  Kernel.spawn k (fun env -> result := Some (body env));
  Kernel.run k;
  (k, Option.get !result)

let ok = Gray_apps.Workload.ok_exn

let test_rename_directory_moves_subtree () =
  let _, () =
    run_proc (fun env ->
        ok (Kernel.mkdir env "/d0/a");
        ok (Kernel.mkdir env "/d0/a/sub");
        Gray_apps.Workload.write_file env "/d0/a/sub/f" 4096;
        ok (Kernel.rename env ~src:"/d0/a" ~dst:"/d0/b");
        (match Kernel.stat env "/d0/b/sub/f" with
        | Ok st -> Alcotest.(check int) "file size survives" 4096 st.Fs.st_size
        | Error e -> Alcotest.failf "lost subtree: %s" (Kernel.error_to_string e));
        match Kernel.stat env "/d0/a/sub/f" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "old path still resolves")
  in
  ()

let test_cross_volume_rename_rejected () =
  let _, () =
    run_proc (fun env ->
        Gray_apps.Workload.write_file env "/d0/f" 4096;
        match Kernel.rename env ~src:"/d0/f" ~dst:"/d1/f" with
        | Error Kernel.Bad_path -> ()
        | _ -> Alcotest.fail "expected cross-volume rename rejection")
  in
  ()

let test_cache_shared_across_processes () =
  (* one process warms a file; a second process's read must hit *)
  let k = boot () in
  let warm_done = ref false in
  let second_ns = ref max_int in
  Kernel.spawn k ~name:"warmer" (fun env ->
      Gray_apps.Workload.write_file env "/d0/shared" (4 * mib);
      Kernel.flush_file_cache (Kernel.kernel_of_env env);
      Gray_apps.Workload.read_file env "/d0/shared";
      warm_done := true);
  Kernel.spawn k ~name:"reader" (fun env ->
      while not !warm_done do
        Engine.delay 1_000_000
      done;
      let t0 = Kernel.gettime env in
      Gray_apps.Workload.read_file env "/d0/shared";
      second_ns := Kernel.gettime env - t0);
  Kernel.run k;
  (* warm 4 MB at copy rate ~ 28 ms; from disk it would be ~210 ms *)
  Alcotest.(check bool)
    (Printf.sprintf "second reader hits cache (%.1f ms)" (float_of_int !second_ns /. 1e6))
    true
    (!second_ns < 100_000_000)

let test_disk_contention_serializes_same_volume () =
  let time_pair ~vol2 =
    let k = boot () in
    Kernel.spawn k (fun env ->
        Gray_apps.Workload.write_file env "/d0/a" (16 * mib);
        Gray_apps.Workload.write_file env (Printf.sprintf "/d%d/b" vol2) (16 * mib));
    Kernel.run k;
    Kernel.flush_file_cache k;
    let finish = ref 0 in
    Kernel.spawn k (fun env ->
        Gray_apps.Workload.read_file env "/d0/a";
        finish := max !finish (Kernel.gettime env));
    Kernel.spawn k (fun env ->
        Gray_apps.Workload.read_file env (Printf.sprintf "/d%d/b" vol2);
        finish := max !finish (Kernel.gettime env));
    Kernel.run k;
    !finish
  in
  let same = time_pair ~vol2:0 in
  let different = time_pair ~vol2:1 in
  Alcotest.(check bool)
    (Printf.sprintf "same disk %.2fs > different disks %.2fs"
       (Gray_util.Units.sec_of_ns same)
       (Gray_util.Units.sec_of_ns different))
    true
    (float_of_int same > 1.5 *. float_of_int different)

let test_simulation_determinism_end_to_end () =
  (* identical seeds: identical virtual end times, byte counts, paging *)
  let run () =
    let k = boot () in
    let endt = ref 0 in
    Kernel.spawn k (fun env ->
        let paths =
          Gray_apps.Workload.make_files env ~dir:"/d0/set" ~prefix:"f" ~count:10
            ~size:(2 * mib)
        in
        Kernel.flush_file_cache (Kernel.kernel_of_env env);
        let config =
          { (Graybox_core.Fccd.default_config ~seed:1 ()) with
            Graybox_core.Fccd.access_unit = mib; prediction_unit = mib / 2 }
        in
        (match Graybox_core.Fccd.order_files env config ~paths with
        | Ok ranked -> List.iter (fun r -> Gray_apps.Workload.read_file env r.Graybox_core.Fccd.fr_path) ranked
        | Error _ -> ());
        endt := Kernel.gettime env);
    Kernel.run k;
    (!endt, Kernel.counters k)
  in
  let t1, c1 = run () in
  let t2, c2 = run () in
  Alcotest.(check int) "same end time" t1 t2;
  Alcotest.(check bool) "same counters" true (c1 = c2)

let test_file_size_tracks_writes () =
  let _, () =
    run_proc (fun env ->
        let fd = ok (Kernel.create_file env "/d0/grow") in
        Alcotest.(check int) "empty" 0 (Kernel.file_size env fd);
        ignore (ok (Kernel.write env fd ~off:10_000 ~len:1));
        Alcotest.(check int) "sparse write extends" 10_001 (Kernel.file_size env fd);
        ignore (ok (Kernel.write env fd ~off:0 ~len:100));
        Alcotest.(check int) "inner write keeps size" 10_001 (Kernel.file_size env fd);
        Kernel.close env fd)
  in
  ()

let suite =
  [
    Alcotest.test_case "rename directory moves subtree" `Quick
      test_rename_directory_moves_subtree;
    Alcotest.test_case "cross-volume rename rejected" `Quick
      test_cross_volume_rename_rejected;
    Alcotest.test_case "cache shared across processes" `Quick
      test_cache_shared_across_processes;
    Alcotest.test_case "disk contention same volume" `Quick
      test_disk_contention_serializes_same_volume;
    Alcotest.test_case "end-to-end determinism" `Quick
      test_simulation_determinism_end_to_end;
    Alcotest.test_case "file size tracks writes" `Quick test_file_size_tracks_writes;
  ]

(* Workload generators, scan/search helpers, timers, and an engine
   conservation property. *)

open Simos

let mib = 1024 * 1024

let tiny_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.0

let run_proc body =
  let engine = Engine.create () in
  let k = Ambient.boot ~engine ~platform:tiny_linux ~data_disks:2 ~seed:404 () in
  let result = ref None in
  Kernel.spawn k (fun env -> result := Some (body env));
  Kernel.run k;
  (k, Option.get !result)

let ok = Gray_apps.Workload.ok_exn

let test_make_files () =
  let _, sizes =
    run_proc (fun env ->
        let paths =
          Gray_apps.Workload.make_files env ~dir:"/d0/w" ~prefix:"x" ~count:7
            ~size:(3 * 4096)
        in
        Alcotest.(check int) "seven files" 7 (List.length paths);
        List.map (fun p -> (ok (Kernel.stat env p)).Fs.st_size) paths)
  in
  List.iter (fun s -> Alcotest.(check int) "size" (3 * 4096) s) sizes

let test_make_files_existing_dir () =
  let _, () =
    run_proc (fun env ->
        ignore (Gray_apps.Workload.make_files env ~dir:"/d0/w" ~prefix:"a" ~count:2 ~size:4096);
        (* a second population into the same directory must not fail *)
        ignore (Gray_apps.Workload.make_files env ~dir:"/d0/w" ~prefix:"b" ~count:2 ~size:4096);
        Alcotest.(check int) "four files" 4
          (List.length (Gray_apps.Workload.paths_in env ~dir:"/d0/w")))
  in
  ()

let test_age_directory_conserves_count () =
  let _, counts =
    run_proc (fun env ->
        ignore
          (Gray_apps.Workload.make_files env ~dir:"/d0/w" ~prefix:"f" ~count:20
             ~size:4096);
        let rng = Gray_util.Rng.create ~seed:9 in
        List.init 5 (fun _ ->
            Gray_apps.Workload.age_directory env rng ~dir:"/d0/w" ~deletes:5 ~creates:5
              ~size:4096;
            List.length (Gray_apps.Workload.paths_in env ~dir:"/d0/w")))
  in
  List.iter (fun c -> Alcotest.(check int) "steady population" 20 c) counts

let test_paths_in_sorted () =
  let _, paths =
    run_proc (fun env ->
        ignore (Gray_apps.Workload.make_files env ~dir:"/d0/w" ~prefix:"f" ~count:5 ~size:4096);
        Gray_apps.Workload.paths_in env ~dir:"/d0/w")
  in
  Alcotest.(check (list string)) "sorted" (List.sort compare paths) paths

let test_read_file_counts_bytes () =
  let k, () =
    run_proc (fun env ->
        Gray_apps.Workload.write_file env "/d0/f" ((2 * mib) + 123);
        Kernel.reset_counters (Kernel.kernel_of_env env);
        Gray_apps.Workload.read_file env "/d0/f")
  in
  Alcotest.(check int) "all bytes read" ((2 * mib) + 123)
    (Kernel.counters k).Kernel.c_bytes_read

let test_timer_elapsed () =
  let fake_now = ref 0 in
  let t = Gray_util.Timer.of_fun ~resolution_ns:100 (fun () -> !fake_now) in
  let result, d =
    Gray_util.Timer.elapsed t (fun () ->
        fake_now := 1234;
        "done")
  in
  Alcotest.(check string) "result" "done" result;
  Alcotest.(check int) "quantised duration" 1200 d

let test_timer_validates () =
  Alcotest.(check bool) "bad resolution" true
    (try
       ignore (Gray_util.Timer.of_fun ~resolution_ns:0 (fun () -> 0));
       false
     with Invalid_argument _ -> true)

(* Engine conservation: with any set of fibers and delay lists, the final
   clock is the max per-fiber total, and every delay produces exactly one
   event. *)
let prop_engine_conservation =
  QCheck2.Test.make ~name:"engine: clock = max fiber total" ~count:100
    QCheck2.Gen.(
      list_size (int_range 1 8) (list_size (int_range 0 20) (int_range 0 1000)))
    (fun fibers ->
      let e = Engine.create () in
      List.iter
        (fun delays -> Engine.spawn e (fun () -> List.iter Engine.delay delays))
        fibers;
      Engine.run e;
      let expected =
        List.fold_left
          (fun acc delays -> max acc (List.fold_left ( + ) 0 delays))
          0 fibers
      in
      Engine.now e = expected)

let suite =
  [
    Alcotest.test_case "make_files" `Quick test_make_files;
    Alcotest.test_case "make_files existing dir" `Quick test_make_files_existing_dir;
    Alcotest.test_case "aging conserves count" `Quick test_age_directory_conserves_count;
    Alcotest.test_case "paths_in sorted" `Quick test_paths_in_sorted;
    Alcotest.test_case "read_file counts bytes" `Quick test_read_file_counts_bytes;
    Alcotest.test_case "timer elapsed" `Quick test_timer_elapsed;
    Alcotest.test_case "timer validates" `Quick test_timer_validates;
    QCheck_alcotest.to_alcotest prop_engine_conservation;
  ]

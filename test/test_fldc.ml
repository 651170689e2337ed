(* FLDC: i-number ordering, aging, refresh, crash recovery. *)

open Simos
open Graybox_core

let tiny_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.0

let run_proc ?(platform = tiny_linux) body =
  let engine = Engine.create () in
  let k = Ambient.boot ~engine ~platform ~data_disks:2 ~seed:55 () in
  let result = ref None in
  Kernel.spawn k (fun env -> result := Some (body env));
  Kernel.run k;
  (k, Option.get !result)

let ok = Gray_apps.Workload.ok_exn
let kib8 = 8192

let test_inumber_order_is_creation_order () =
  let _, order =
    run_proc (fun env ->
        let paths =
          Gray_apps.Workload.make_files env ~dir:"/d0/dir" ~prefix:"f" ~count:10
            ~size:kib8
        in
        let shuffled = List.rev paths in
        let sorted = ok (Fldc.order_by_inumber env ~paths:shuffled) in
        (paths, List.map (fun s -> s.Fldc.so_path) sorted))
  in
  let created, recovered = order in
  Alcotest.(check (list string)) "recovered creation order" created recovered

let test_order_by_directory () =
  let paths = [ "/d0/b/x"; "/d0/a/y"; "/d0/b/z"; "/d0/a/w" ] in
  Alcotest.(check (list string)) "grouped"
    [ "/d0/a/y"; "/d0/a/w"; "/d0/b/x"; "/d0/b/z" ]
    (Fldc.order_by_directory ~paths)

let test_inumber_read_faster_than_random () =
  let _, (random_ns, inumber_ns) =
    run_proc (fun env ->
        let k = Kernel.kernel_of_env env in
        let paths =
          Gray_apps.Workload.make_files env ~dir:"/d0/dir" ~prefix:"f" ~count:100
            ~size:kib8
        in
        let rng = Gray_util.Rng.create ~seed:17 in
        let shuffled = Array.of_list paths in
        Gray_util.Rng.shuffle rng shuffled;
        Kernel.flush_file_cache k;
        let t0 = Kernel.gettime env in
        Array.iter (fun p -> Gray_apps.Workload.read_file env p) shuffled;
        let random_ns = Kernel.gettime env - t0 in
        Kernel.flush_file_cache k;
        let ordered = ok (Fldc.order_by_inumber env ~paths) in
        let t0 = Kernel.gettime env in
        List.iter
          (fun s -> Gray_apps.Workload.read_file env s.Fldc.so_path)
          ordered;
        let inumber_ns = Kernel.gettime env - t0 in
        (random_ns, inumber_ns))
  in
  Alcotest.(check bool)
    (Printf.sprintf "i-number %.0fms << random %.0fms"
       (float_of_int inumber_ns /. 1e6)
       (float_of_int random_ns /. 1e6))
    true
    (float_of_int inumber_ns < 0.5 *. float_of_int random_ns)

let age env rng ~dir ~epochs =
  for _ = 1 to epochs do
    Gray_apps.Workload.age_directory env rng ~dir ~deletes:5 ~creates:5 ~size:kib8
  done

let test_aging_degrades_then_refresh_restores () =
  let _, (fresh_frag, aged_frag, refreshed_frag) =
    run_proc (fun env ->
        let k = Kernel.kernel_of_env env in
        ignore
          (Gray_apps.Workload.make_files env ~dir:"/d0/dir" ~prefix:"f" ~count:100
             ~size:(4 * kib8));
        let avg_order_frag () =
          (* how contiguous is the walk of files in i-number order? use the
             white-box layout: mean absolute block distance between
             consecutive files' first blocks, normalised *)
          let ordered =
            ok (Fldc.order_by_inumber env ~paths:(Gray_apps.Workload.paths_in env ~dir:"/d0/dir"))
          in
          let firsts =
            List.map
              (fun s ->
                match Introspect.file_layout k ~path:s.Fldc.so_path with
                | Ok l when Array.length l > 0 -> float_of_int l.(0)
                | _ -> 0.0)
              ordered
          in
          let rec gaps acc = function
            | a :: (b :: _ as rest) -> gaps (Float.abs (b -. a) :: acc) rest
            | _ -> acc
          in
          Gray_util.Stats.mean_of (Array.of_list (gaps [] firsts))
        in
        let fresh = avg_order_frag () in
        let rng = Gray_util.Rng.create ~seed:7 in
        age env rng ~dir:"/d0/dir" ~epochs:30;
        let aged = avg_order_frag () in
        ok
          (Result.map_error
             (fun e -> failwith (Kernel.error_to_string e))
             (Fldc.refresh_directory env ~dir:"/d0/dir" ()));
        let refreshed = avg_order_frag () in
        (fresh, aged, refreshed))
  in
  Alcotest.(check bool)
    (Printf.sprintf "aged %.0f > fresh %.0f" aged_frag fresh_frag)
    true
    (aged_frag > 2.0 *. fresh_frag);
  Alcotest.(check bool)
    (Printf.sprintf "refreshed %.0f < aged %.0f" refreshed_frag aged_frag)
    true
    (refreshed_frag < 0.5 *. aged_frag)

let test_refresh_preserves_contents () =
  let _, () =
    run_proc (fun env ->
        let paths =
          Gray_apps.Workload.make_files env ~dir:"/d0/dir" ~prefix:"f" ~count:10
            ~size:kib8
        in
        (* remember sizes and times *)
        let before =
          List.map
            (fun p ->
              let st = ok (Result.map_error (fun e -> failwith (Kernel.error_to_string e)) (Kernel.stat env p)) in
              (p, st.Fs.st_size, st.Fs.st_mtime))
            paths
        in
        ok
          (Result.map_error
             (fun e -> failwith (Kernel.error_to_string e))
             (Fldc.refresh_directory env ~dir:"/d0/dir" ()));
        List.iter
          (fun (p, size, mtime) ->
            match Kernel.stat env p with
            | Error _ -> Alcotest.failf "missing after refresh: %s" p
            | Ok st ->
              Alcotest.(check int) (p ^ " size") size st.Fs.st_size;
              Alcotest.(check int) (p ^ " mtime") mtime st.Fs.st_mtime)
          before;
        (* no journal, no temp dir left behind *)
        let entries = ok (Kernel.readdir env "/d0") in
        Alcotest.(check (list string)) "clean parent" [ "dir" ] entries)
  in
  ()

let test_refresh_small_files_first () =
  let _, () =
    run_proc (fun env ->
        ok
          (Result.map_error
             (fun e -> failwith (Kernel.error_to_string e))
             (Kernel.mkdir env "/d0/dir"));
        Gray_apps.Workload.write_file env "/d0/dir/big" (20 * kib8);
        Gray_apps.Workload.write_file env "/d0/dir/small" kib8;
        Gray_apps.Workload.write_file env "/d0/dir/medium" (4 * kib8);
        ok
          (Result.map_error
             (fun e -> failwith (Kernel.error_to_string e))
             (Fldc.refresh_directory env ~dir:"/d0/dir" ()));
        let inos =
          List.map
            (fun name ->
              let st =
                ok
                  (Result.map_error
                     (fun e -> failwith (Kernel.error_to_string e))
                     (Kernel.stat env ("/d0/dir/" ^ name)))
              in
              (name, st.Fs.st_ino))
            [ "small"; "medium"; "big" ]
        in
        let get n = List.assoc n inos in
        Alcotest.(check bool) "small < medium" true (get "small" < get "medium");
        Alcotest.(check bool) "medium < big" true (get "medium" < get "big"))
  in
  ()

let test_crash_recovery_all_points () =
  List.iter
    (fun point ->
      if point <> Fldc.No_crash then begin
        let _, () =
          run_proc (fun env ->
              let paths =
                Gray_apps.Workload.make_files env ~dir:"/d0/dir" ~prefix:"f"
                  ~count:8 ~size:kib8
              in
              (try
                 ignore (Fldc.refresh_directory env ~crash_at:point ~dir:"/d0/dir" ())
               with Fldc.Injected_crash _ -> ());
              (* nightly repair *)
              let repaired =
                ok
                  (Result.map_error
                     (fun e -> failwith (Kernel.error_to_string e))
                     (Fldc.repair env ~parent:"/d0"))
              in
              Alcotest.(check bool) "repair ran" true repaired;
              (* directory back with the same names *)
              let entries = List.sort compare (ok (Kernel.readdir env "/d0/dir")) in
              Alcotest.(check (list string))
                (Printf.sprintf "entries after crash")
                (List.sort compare (List.map (fun p -> Fldc.basename p) paths))
                entries;
              (* parent clean: only the directory remains *)
              let parent_entries = ok (Kernel.readdir env "/d0") in
              Alcotest.(check (list string)) "parent clean" [ "dir" ] parent_entries)
        in
        ()
      end)
    Fldc.crash_points

let test_repair_without_crash_is_noop () =
  let _, repaired =
    run_proc (fun env ->
        ignore
          (Gray_apps.Workload.make_files env ~dir:"/d0/dir" ~prefix:"f" ~count:3
             ~size:kib8);
        ok
          (Result.map_error
             (fun e -> failwith (Kernel.error_to_string e))
             (Fldc.repair env ~parent:"/d0")))
  in
  Alcotest.(check bool) "nothing to repair" false repaired

let test_ordering_robust_to_noise () =
  (* stat-based ordering has no timing dependence at all; verify it holds
     verbatim under heavy service-time noise *)
  let noisy = Platform.with_noise tiny_linux ~sigma:0.5 in
  let _, (created, recovered) =
    run_proc ~platform:noisy (fun env ->
        let paths =
          Gray_apps.Workload.make_files env ~dir:"/d0/dir" ~prefix:"f" ~count:12
            ~size:kib8
        in
        let sorted = ok (Fldc.order_by_inumber env ~paths:(List.rev paths)) in
        (paths, List.map (fun s -> s.Fldc.so_path) sorted))
  in
  Alcotest.(check (list string)) "order unaffected by noise" created recovered

(* A refresh that dies on a plain typed error (not an injected crash)
   must roll its scratch state back: no journal and no temp directory
   stranded in the parent, originals untouched — the caller sees
   [Error], not a half-moved directory plus debris. *)
let test_refresh_error_rolls_back_scratch () =
  let failing_reads =
    { Fault.quiet with Fault.sc_error_prob = 1.0; sc_error_targets = [ Fault.Read ] }
  in
  let engine = Engine.create () in
  let k =
    Kernel.boot ~engine ~platform:tiny_linux ~data_disks:2 ~seed:55
      ~faults:failing_reads ()
  in
  Kernel.spawn k (fun env ->
      let paths =
        Gray_apps.Workload.make_files env ~dir:"/d0/dir" ~prefix:"f" ~count:6
          ~size:kib8
      in
      let before =
        List.map (fun p -> (p, (ok (Kernel.stat env p)).Fs.st_size)) paths
      in
      (match Fldc.refresh_directory env ~dir:"/d0/dir" () with
      | Ok () -> Alcotest.fail "refresh succeeded under always-failing reads"
      | Error _ -> ());
      List.iter
        (fun (p, size) ->
          Alcotest.(check int) (p ^ " intact") size
            (ok (Kernel.stat env p)).Fs.st_size)
        before;
      Alcotest.(check (list string)) "no journal, no tmp dir" [ "dir" ]
        (List.sort compare (ok (Kernel.readdir env "/d0")));
      Alcotest.(check bool) "nothing for repair to find" false
        (ok (Fldc.repair env ~parent:"/d0")));
  Kernel.run k

let suite =
  [
    Alcotest.test_case "i-number order = creation order" `Quick
      test_inumber_order_is_creation_order;
    Alcotest.test_case "order by directory" `Quick test_order_by_directory;
    Alcotest.test_case "i-number read beats random" `Quick
      test_inumber_read_faster_than_random;
    Alcotest.test_case "aging degrades, refresh restores" `Quick
      test_aging_degrades_then_refresh_restores;
    Alcotest.test_case "refresh preserves contents" `Quick test_refresh_preserves_contents;
    Alcotest.test_case "refresh small files first" `Quick test_refresh_small_files_first;
    Alcotest.test_case "crash recovery at every point" `Quick
      test_crash_recovery_all_points;
    Alcotest.test_case "repair without crash" `Quick test_repair_without_crash_is_noop;
    Alcotest.test_case "ordering robust to noise" `Quick test_ordering_robust_to_noise;
    Alcotest.test_case "refresh error rolls back scratch" `Quick
      test_refresh_error_rolls_back_scratch;
  ]

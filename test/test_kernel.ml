(* Kernel: syscall semantics, caching, paging, timing shapes. *)

open Simos

let mib = 1024 * 1024
let kib4 = 4096

(* A scaled-down noiseless Linux for fast, exact tests: 96 MB physical,
   64 MB usable. *)
let tiny_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.0

let boot ?faults ?(platform = tiny_linux) ?(data_disks = 2) () =
  let engine = Engine.create () in
  Ambient.boot ~engine ~platform ~data_disks ~seed:11 ?faults ()

(* [~faults:Fault.quiet] (bit-identical to no plane) is for tests whose
   timing thresholds cannot tolerate GRAYBOX_FAULTS chaos injection. *)
let run_proc ?faults ?platform ?data_disks body =
  let k = boot ?faults ?platform ?data_disks () in
  let result = ref None in
  Kernel.spawn k (fun env -> result := Some (body env));
  Kernel.run k;
  match !result with
  | Some v -> (k, v)
  | None -> Alcotest.fail "process did not finish"

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Kernel.error_to_string e)

let make_file env path size =
  let fd = ok (Kernel.create_file env path) in
  ignore (ok (Kernel.write env fd ~off:0 ~len:size));
  Kernel.close env fd

let timed env f =
  let t0 = Kernel.gettime env in
  let r = f () in
  (r, Kernel.gettime env - t0)

(* ---- basic file I/O ---- *)

let test_create_write_read () =
  let _, () =
    run_proc (fun env ->
        make_file env "/d0/a" (100 * kib4);
        let fd = ok (Kernel.open_file env "/d0/a") in
        Alcotest.(check int) "size" (100 * kib4) (Kernel.file_size env fd);
        Alcotest.(check int) "full read" (100 * kib4)
          (ok (Kernel.read env fd ~off:0 ~len:(100 * kib4)));
        Alcotest.(check int) "short read" kib4
          (ok (Kernel.read env fd ~off:(99 * kib4) ~len:(8 * kib4)));
        Alcotest.(check int) "past end" 0 (ok (Kernel.read env fd ~off:(200 * kib4) ~len:1));
        Kernel.close env fd)
  in
  ()

let test_bad_fd_and_path () =
  let _, () =
    run_proc (fun env ->
        (match Kernel.open_file env "/nope" with
        | Error Kernel.Bad_path -> ()
        | _ -> Alcotest.fail "expected Bad_path");
        (match Kernel.open_file env "/d0/missing" with
        | Error (Kernel.Fs_error Fs.Enoent) -> ()
        | _ -> Alcotest.fail "expected Enoent");
        match Kernel.read env 99 ~off:0 ~len:1 with
        | Error Kernel.Bad_fd -> ()
        | _ -> Alcotest.fail "expected Bad_fd")
  in
  ()

let test_volumes_are_separate () =
  let _, () =
    run_proc (fun env ->
        make_file env "/d0/a" kib4;
        (match Kernel.open_file env "/d1/a" with
        | Error (Kernel.Fs_error Fs.Enoent) -> ()
        | _ -> Alcotest.fail "volumes must be independent");
        make_file env "/d1/a" kib4)
  in
  ()

let test_cold_vs_warm_read () =
  let _, (cold, warm) =
    run_proc (fun env ->
        make_file env "/d0/a" (4 * mib);
        let k = Kernel.kernel_of_env env in
        Kernel.flush_file_cache k;
        let fd = ok (Kernel.open_file env "/d0/a") in
        let _, cold = timed env (fun () -> ok (Kernel.read env fd ~off:0 ~len:(4 * mib))) in
        let _, warm = timed env (fun () -> ok (Kernel.read env fd ~off:0 ~len:(4 * mib))) in
        Kernel.close env fd;
        (cold, warm))
  in
  (* disk ~20 MB/s vs memcopy ~150 MB/s: expect roughly 7x *)
  Alcotest.(check bool)
    (Printf.sprintf "cold %dns >> warm %dns" cold warm)
    true
    (cold > 4 * warm)

let test_probe_is_destructive () =
  (* The Heisenberg effect: a 1-byte read faults in the whole page. *)
  let k, () =
    run_proc (fun env ->
        make_file env "/d0/a" (16 * kib4);
        Kernel.flush_file_cache (Kernel.kernel_of_env env);
        let fd = ok (Kernel.open_file env "/d0/a") in
        ignore (ok (Kernel.read env fd ~off:(5 * kib4) ~len:1));
        Kernel.close env fd)
  in
  let bitmap = match Introspect.cache_bitmap k ~path:"/d0/a" with
    | Ok b -> b
    | Error _ -> Alcotest.fail "bitmap"
  in
  Alcotest.(check bool) "probed page resident" true bitmap.(5);
  Alcotest.(check bool) "neighbour not resident" false bitmap.(6);
  Alcotest.(check int) "exactly one page" 1
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 bitmap)

let test_lru_worst_case_scan () =
  (* file ~2x the cache: repeated linear scans miss every page
     (Section 4.1, "LRU worst-case mode"). *)
  let k, () =
    run_proc (fun env ->
        let file_bytes = 120 * mib in
        make_file env "/d0/big" file_bytes;
        let k = Kernel.kernel_of_env env in
        Kernel.flush_file_cache k;
        let fd = ok (Kernel.open_file env "/d0/big") in
        let scan () =
          let unit_bytes = 4 * mib in
          let off = ref 0 in
          while !off < file_bytes do
            ignore (ok (Kernel.read env fd ~off:!off ~len:unit_bytes));
            off := !off + unit_bytes
          done
        in
        scan ();
        Kernel.reset_counters k;
        scan ();
        Kernel.close env fd)
  in
  let c = Kernel.counters k in
  (* second scan should re-fetch essentially everything *)
  Alcotest.(check bool)
    (Printf.sprintf "refetched %d pages" c.Kernel.c_file_fetches)
    true
    (c.Kernel.c_file_fetches > 120 * mib / kib4 * 9 / 10)

let test_small_file_fits_cache () =
  let k, () =
    run_proc (fun env ->
        make_file env "/d0/small" (8 * mib);
        let k = Kernel.kernel_of_env env in
        Kernel.flush_file_cache k;
        let fd = ok (Kernel.open_file env "/d0/small") in
        ignore (ok (Kernel.read env fd ~off:0 ~len:(8 * mib)));
        Kernel.reset_counters k;
        ignore (ok (Kernel.read env fd ~off:0 ~len:(8 * mib)));
        Kernel.close env fd)
  in
  let c = Kernel.counters k in
  Alcotest.(check int) "no refetch" 0 c.Kernel.c_file_fetches

let test_write_then_read_cached () =
  let k, () =
    run_proc (fun env ->
        make_file env "/d0/a" (2 * mib);
        let k = Kernel.kernel_of_env env in
        Kernel.reset_counters k;
        let fd = ok (Kernel.open_file env "/d0/a") in
        ignore (ok (Kernel.read env fd ~off:0 ~len:(2 * mib)));
        Kernel.close env fd)
  in
  let c = Kernel.counters k in
  Alcotest.(check int) "written data still cached" 0 c.Kernel.c_file_fetches

let test_stat_caches_inode () =
  let _, (first, second) =
    run_proc ~faults:Fault.quiet (fun env ->
        make_file env "/d0/a" kib4;
        Kernel.flush_file_cache (Kernel.kernel_of_env env);
        let _, first = timed env (fun () -> ok (Kernel.stat env "/d0/a")) in
        let _, second = timed env (fun () -> ok (Kernel.stat env "/d0/a")) in
        (first, second))
  in
  Alcotest.(check bool)
    (Printf.sprintf "cold stat %dns is a disk access, warm %dns is not" first second)
    true
    (first > 1_000_000 && second < 100_000)

let test_stat_reports_ino_and_size () =
  let _, () =
    run_proc (fun env ->
        make_file env "/d0/x" (3 * kib4);
        let st = ok (Kernel.stat env "/d0/x") in
        Alcotest.(check int) "size" (3 * kib4) st.Fs.st_size;
        Alcotest.(check bool) "not dir" false st.Fs.st_is_dir;
        let st2 = ok (Kernel.stat env "/d0") in
        Alcotest.(check bool) "root is dir" true st2.Fs.st_is_dir)
  in
  ()

let test_namespace_syscalls () =
  let _, () =
    run_proc (fun env ->
        ok (Kernel.mkdir env "/d0/dir");
        make_file env "/d0/dir/a" kib4;
        make_file env "/d0/dir/b" kib4;
        let names = List.sort compare (ok (Kernel.readdir env "/d0/dir")) in
        Alcotest.(check (list string)) "readdir" [ "a"; "b" ] names;
        ok (Kernel.rename env ~src:"/d0/dir/a" ~dst:"/d0/dir/c");
        ok (Kernel.unlink env "/d0/dir/b");
        let names = ok (Kernel.readdir env "/d0/dir") in
        Alcotest.(check (list string)) "after rename+unlink" [ "c" ] names;
        ok (Kernel.utimes env "/d0/dir/c" ~atime:5 ~mtime:6);
        let st = ok (Kernel.stat env "/d0/dir/c") in
        Alcotest.(check int) "mtime" 6 st.Fs.st_mtime)
  in
  ()

let test_unlink_invalidates_cache () =
  let k, () =
    run_proc (fun env ->
        make_file env "/d0/a" (4 * mib);
        ok (Kernel.unlink env "/d0/a"))
  in
  (* only inode-table (metadata) pages may remain *)
  Alcotest.(check bool) "data pages gone" true (Introspect.resident_file_pages k < 4)

(* ---- memory ---- *)

let test_touch_zero_fill_then_resident () =
  let _, (first, second) =
    run_proc (fun env ->
        let r = Kernel.valloc env ~pages:64 in
        let first = Kernel.touch_pages env r ~first:0 ~count:64 in
        let second = Kernel.touch_pages env r ~first:0 ~count:64 in
        Kernel.vfree env r;
        (first, second))
  in
  let mean a = Array.fold_left ( + ) 0 a / Array.length a in
  Alcotest.(check bool)
    (Printf.sprintf "zero-fill %dns > resident %dns" (mean first) (mean second))
    true
    (mean first > 3 * mean second)

let test_overcommit_pages_out () =
  let k, observed =
    run_proc (fun env ->
        (* 64 MB usable; allocate 80 MB and touch it all *)
        let pages = 80 * mib / kib4 in
        let r = Kernel.valloc env ~pages in
        let times = Kernel.touch_pages env r ~first:0 ~count:pages in
        (* touch the first pages again: they were evicted and must page in *)
        let again = Kernel.touch_pages env r ~first:0 ~count:16 in
        Kernel.vfree env r;
        (times, again))
  in
  let times, again = observed in
  ignore times;
  let c = Kernel.counters k in
  Alcotest.(check bool) "paged out" true (c.Kernel.c_page_outs > 0);
  Alcotest.(check bool) "paged in" true (c.Kernel.c_page_ins >= 16);
  let mean a = Array.fold_left ( + ) 0 a / Array.length a in
  Alcotest.(check bool) "page-ins are slow (ms)" true (mean again > 1_000_000)

let test_fit_no_paging () =
  let k, () =
    run_proc (fun env ->
        let pages = 32 * mib / kib4 in
        let r = Kernel.valloc env ~pages in
        ignore (Kernel.touch_pages env r ~first:0 ~count:pages);
        ignore (Kernel.touch_pages env r ~first:0 ~count:pages);
        Kernel.vfree env r)
  in
  let c = Kernel.counters k in
  Alcotest.(check int) "no page-outs" 0 c.Kernel.c_page_outs;
  Alcotest.(check int) "no page-ins" 0 c.Kernel.c_page_ins

let test_anon_pressure_shrinks_file_cache () =
  (* unified layout: file pages yield to anonymous demand *)
  let k, () =
    run_proc (fun env ->
        make_file env "/d0/a" (32 * mib);
        let before = Introspect.resident_file_pages (Kernel.kernel_of_env env) in
        Alcotest.(check bool) "file pages resident" true (before > 0);
        let pages = 60 * mib / kib4 in
        let r = Kernel.valloc env ~pages in
        ignore (Kernel.touch_pages env r ~first:0 ~count:pages);
        Kernel.vfree env r)
  in
  ignore k

let test_vfree_releases () =
  let k, pid =
    run_proc (fun env ->
        let r = Kernel.valloc env ~pages:1024 in
        ignore (Kernel.touch_pages env r ~first:0 ~count:1024);
        Kernel.vfree env r;
        Kernel.pid env)
  in
  Alcotest.(check int) "nothing resident" 0 (Introspect.resident_anon_pages k ~pid)

let test_process_exit_cleans_up () =
  let k = boot () in
  let pid_holder = ref 0 in
  Kernel.spawn k (fun env ->
      pid_holder := Kernel.pid env;
      let r = Kernel.valloc env ~pages:512 in
      ignore (Kernel.touch_pages env r ~first:0 ~count:512)
      (* no vfree: exit must clean up *));
  Kernel.run k;
  Alcotest.(check int) "exit reclaimed pages" 0
    (Introspect.resident_anon_pages k ~pid:!pid_holder)

let test_two_processes_share_memory_pressure () =
  let k = boot () in
  let done_count = ref 0 in
  for _ = 1 to 2 do
    Kernel.spawn k (fun env ->
        let pages = 24 * mib / kib4 in
        let r = Kernel.valloc env ~pages in
        ignore (Kernel.touch_pages env r ~first:0 ~count:pages);
        ignore (Kernel.touch_pages env r ~first:0 ~count:pages);
        Kernel.vfree env r;
        incr done_count)
  done;
  Kernel.run k;
  Alcotest.(check int) "both finished" 2 !done_count;
  (* 24 + 24 < 64 MB: no paging *)
  Alcotest.(check int) "no paging" 0 (Kernel.counters k).Kernel.c_page_outs

let test_vrelease_drops_range () =
  let _, (mid_resident, after_touch) =
    run_proc ~faults:Fault.quiet (fun env ->
        let r = Kernel.valloc env ~pages:256 in
        ignore (Kernel.touch_pages env r ~first:0 ~count:256);
        (* drop the middle half *)
        Kernel.vrelease env r ~first:64 ~count:128;
        let mid =
          Introspect.resident_anon_pages (Kernel.kernel_of_env env)
            ~pid:(Kernel.pid env)
        in
        (* re-touch: released pages must zero-fill, not page in *)
        let times = Kernel.touch_pages env r ~first:64 ~count:128 in
        Kernel.vfree env r;
        (mid, times))
  in
  Alcotest.(check int) "released frames gone" 128 mid_resident;
  (* zero-fill is ~9us; a swap page-in would be ms *)
  Alcotest.(check bool) "re-touch zero-fills" true
    (Array.for_all (fun t -> t < 1_000_000) after_touch)

let test_vrelease_validates () =
  let _, () =
    run_proc (fun env ->
        let r = Kernel.valloc env ~pages:16 in
        Alcotest.(check bool) "range check" true
          (try
             Kernel.vrelease env r ~first:8 ~count:16;
             false
           with Invalid_argument _ -> true);
        Kernel.vfree env r)
  in
  ()

let test_compute_contends_for_cpus () =
  (* 3 equal compute bursts on 2 CPUs: makespan ~ 2 bursts *)
  let k = boot () in
  let finish = ref 0 in
  for _ = 1 to 3 do
    Kernel.spawn k (fun env ->
        Kernel.compute env ~ns:1_000_000;
        finish := max !finish (Kernel.gettime env))
  done;
  Kernel.run k;
  Alcotest.(check bool)
    (Printf.sprintf "makespan %d" !finish)
    true
    (!finish >= 2_000_000 && !finish < 2_200_000)

let test_gettime_resolution () =
  let _, t =
    run_proc (fun env ->
        let t = Kernel.gettime env in
        t)
  in
  Alcotest.(check int) "quantised" 0 (t mod tiny_linux.Platform.timer_resolution_ns)

let test_counters_track_bytes () =
  let k, () =
    run_proc (fun env ->
        make_file env "/d0/a" (1 * mib);
        let fd = ok (Kernel.open_file env "/d0/a") in
        ignore (ok (Kernel.read env fd ~off:0 ~len:(1 * mib)));
        Kernel.close env fd)
  in
  let c = Kernel.counters k in
  Alcotest.(check int) "bytes read" (1 * mib) c.Kernel.c_bytes_read;
  Alcotest.(check int) "bytes written" (1 * mib) c.Kernel.c_bytes_written

(* Words [f] allocates: minor-heap words plus the words put straight into
   the major heap (major minus promoted).  [Gc.minor_words] is exact,
   unlike [Gc.quick_stat]'s minor count, which on OCaml 5.1 moves only at
   minor collections. *)
let words_allocated f =
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let m0 = Gc.minor_words () and d0 = direct () in
  let v = f () in
  (v, Gc.minor_words () -. m0 +. (direct () -. d0))

(* The file systems' per-block maps are bits and bytes made as the run
   touches them, so a paper-setup boot (four whole 8.8 GB volumes) stays
   far below the 19 M words that one word per block costs. *)
let test_boot_allocation () =
  let engine = Engine.create () in
  let k, words =
    words_allocated (fun () -> Kernel.boot ~engine ~platform:Platform.linux_2_2 ~seed:11 ())
  in
  Alcotest.(check int) "four volumes" 4 (Kernel.data_disks k);
  if words >= 1e6 then Alcotest.failf "boot allocated %.0f words, want < 1 M" words

let suite =
  [
    Alcotest.test_case "create/write/read" `Quick test_create_write_read;
    Alcotest.test_case "bad fd and path" `Quick test_bad_fd_and_path;
    Alcotest.test_case "volumes separate" `Quick test_volumes_are_separate;
    Alcotest.test_case "cold vs warm read" `Quick test_cold_vs_warm_read;
    Alcotest.test_case "probe is destructive" `Quick test_probe_is_destructive;
    Alcotest.test_case "lru worst-case scan" `Quick test_lru_worst_case_scan;
    Alcotest.test_case "small file fits cache" `Quick test_small_file_fits_cache;
    Alcotest.test_case "write keeps pages cached" `Quick test_write_then_read_cached;
    Alcotest.test_case "stat caches inode" `Quick test_stat_caches_inode;
    Alcotest.test_case "stat reports ino/size" `Quick test_stat_reports_ino_and_size;
    Alcotest.test_case "namespace syscalls" `Quick test_namespace_syscalls;
    Alcotest.test_case "unlink invalidates cache" `Quick test_unlink_invalidates_cache;
    Alcotest.test_case "touch zero-fill vs resident" `Quick
      test_touch_zero_fill_then_resident;
    Alcotest.test_case "overcommit pages out" `Quick test_overcommit_pages_out;
    Alcotest.test_case "fit does not page" `Quick test_fit_no_paging;
    Alcotest.test_case "anon pressure shrinks file cache" `Quick
      test_anon_pressure_shrinks_file_cache;
    Alcotest.test_case "vfree releases" `Quick test_vfree_releases;
    Alcotest.test_case "exit cleans up" `Quick test_process_exit_cleans_up;
    Alcotest.test_case "two processes fit" `Quick test_two_processes_share_memory_pressure;
    Alcotest.test_case "vrelease drops range" `Quick test_vrelease_drops_range;
    Alcotest.test_case "vrelease validates" `Quick test_vrelease_validates;
    Alcotest.test_case "compute contends for cpus" `Quick test_compute_contends_for_cpus;
    Alcotest.test_case "gettime resolution" `Quick test_gettime_resolution;
    Alcotest.test_case "counters track bytes" `Quick test_counters_track_bytes;
    Alcotest.test_case "boot allocates under 1 M words" `Quick test_boot_allocation;
  ]

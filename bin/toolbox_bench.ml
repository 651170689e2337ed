(* toolbox_bench — run the gray-toolbox configuration microbenchmarks on a
   simulated platform and print (or save) the parameter repository in its
   persistent text format (Section 5: "a common format kept in persistent
   storage; each microbenchmark then only needs to be run once").

   -p accepts a comma-separated list of presets (or "all"); the platforms
   fan out over a domain pool (-j) and print in the order given, so the
   output is independent of the parallelism. *)

open Cmdliner
open Simos

let bench_platform ~noise ~seed platform_name =
  let platform = Platform.with_noise (Platform.by_name platform_name) ~sigma:noise in
  let engine = Engine.create () in
  let k = Kernel.boot ~engine ~platform ~data_disks:1 ~seed () in
  let repo = ref None in
  Kernel.spawn k (fun env ->
      repo := Some (Graybox_core.Toolbox.run_all env ~scratch_dir:"/d0"));
  Kernel.run k;
  (platform.Platform.name, !repo)

(* --hot-paths: bechamel measurement of the batched run API against the
   per-page path, isolated from the experiment harness.  The numbers are
   hardware measurements of this machine (like bench/main.exe micro), so
   this mode prints ns/page and the speedup ratio instead of publishing
   figures.  Hits and misses are measured separately: a hit is one policy
   lookup either way, a miss adds insert + eviction + (per-page only) the
   result-list allocation. *)

let run_len = 64

let hot_paths_benchmark test =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  let raw = Benchmark.all cfg instances test in
  let results =
    List.map
      (fun instance ->
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
          instance raw)
      instances
  in
  let merged =
    Analyze.merge
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      instances results
  in
  (* one instance, one test: pull out the single OLS estimate *)
  let est = ref None in
  Hashtbl.iter
    (fun _clock tbl ->
      Hashtbl.iter
        (fun _name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ e ] -> est := Some e
          | _ -> ())
        tbl)
    merged;
  !est

let rec run_hot_paths () =
  let open Bechamel in
  let fkey i = Page.File { ino = 1; idx = i } in
  let capacity = 4096 in
  let no_evict _ ~dirty:_ = () in
  let mk name =
    let p = Pool.create ~name ~capacity_pages:capacity ~policy:Replacement.lru in
    for i = 0 to capacity - 1 do
      ignore (Pool.access p (fkey i) ~dirty:false)
    done;
    p
  in
  (* hits: the working set stays resident, every access is one lookup *)
  let hit_per_page =
    let p = mk "hit-pp" and base = ref 0 in
    Test.make ~name:"hit/per-page" (Staged.stage (fun () ->
        let b = !base in
        for i = b to b + run_len - 1 do
          ignore (Pool.access p (fkey (i mod capacity)) ~dirty:false)
        done;
        base := (b + run_len) mod capacity))
  in
  let hit_batched =
    let p = mk "hit-run" and base = ref 0 in
    Test.make ~name:"hit/batched" (Staged.stage (fun () ->
        let b = !base in
        for i = b to b + run_len - 1 do
          ignore (Pool.try_hit p (fkey (i mod capacity)) ~dirty:false)
        done;
        base := (b + run_len) mod capacity))
  in
  (* misses: an endless sequential scan, every access evicts one page *)
  let miss_per_page =
    let p = mk "miss-pp" and next = ref capacity in
    Test.make ~name:"miss/per-page" (Staged.stage (fun () ->
        let b = !next in
        for i = b to b + run_len - 1 do
          ignore (Pool.access p (fkey i) ~dirty:false)
        done;
        next := b + run_len))
  in
  let miss_batched =
    let p = mk "miss-run" and next = ref capacity in
    Test.make ~name:"miss/batched" (Staged.stage (fun () ->
        let b = !next in
        for i = b to b + run_len - 1 do
          if not (Pool.try_hit p (fkey i) ~dirty:false) then
            Pool.fill p (fkey i) ~dirty:false ~on_evict:no_evict
        done;
        next := b + run_len))
  in
  Printf.printf
    "# page-pool hot paths: batched run API vs per-page (%d-page runs, lru, \
     capacity %d)\n"
    run_len capacity;
  let measure test =
    match hot_paths_benchmark test with
    | Some est -> Some (est /. float_of_int run_len)
    | None -> None
  in
  let report label per_page batched =
    match (measure per_page, measure batched) with
    | Some pp, Some bt ->
      Printf.printf "  %-5s per-page %7.1f ns/page   batched %7.1f ns/page   (%.2fx)\n"
        label pp bt (pp /. bt)
    | _ -> Printf.printf "  %-5s (no estimate)\n" label
  in
  report "hit" hit_per_page hit_batched;
  report "miss" miss_per_page miss_batched;
  (* the accounting ledger's cost on the same batched read path: one
     add to a cached per-process stats row per hit run, and the flight
     recorder storing five ints per call — vs the bare run above.  The
     kernel cannot run without the ledger (it is the only count), so
     this row is the measure of what the ledger costs per page. *)
  let hit_accounted =
    let p = mk "hit-acct" and base = ref 0 in
    let acct = Account.create () in
    let st = Account.note_spawn acct ~pid:1 ~name:"bench" in
    let fl = Gray_util.Flight.create () in
    Test.make ~name:"hit/accounted"
      (Staged.stage (fun () ->
           let b = !base in
           Gray_util.Flight.record fl ~ts:b ~code:Gray_util.Flight.Read ~pid:1
             ~a:0 ~b:0;
           let h = ref 0 in
           for i = b to b + run_len - 1 do
             if Pool.try_hit p (fkey (i mod capacity)) ~dirty:false then incr h
           done;
           st.Account.hits <- st.Account.hits + !h;
           base := (b + run_len) mod capacity))
  in
  Printf.printf
    "# per-process accounting on the batched read path: ledger bumps + flight \
     record vs no-ops\n";
  (match (measure hit_batched, measure hit_accounted) with
  | Some bare, Some ledger ->
    Printf.printf
      "  acct  no-ops   %7.1f ns/page   ledger  %7.1f ns/page   (%+.1f%%)\n" bare
      ledger
      (if bare > 0.0 then (ledger -. bare) /. bare *. 100.0 else 0.0)
  | _ -> Printf.printf "  acct  (no estimate)\n");
  run_hot_paths_policies ();
  run_hot_paths_kernel ();
  run_hot_paths_fs ()

(* One row per replacement policy at a DRAM-sized pool: linux-2.2's usable
   memory, the unified cache the grep and layout figures run on, so the
   resident set is far larger than the CPU cache and each page pays the
   memory latency of its frame and index slot.  A hit pass cycles once
   through the resident pages; a miss pass streams one pool's worth of
   fresh pages into the full pool, so each page evicts one, after one
   such pass of warm-up so that clock's first sweep over the hit-warmed
   pages is not charged to it.  Clock's sweep is lumpy (a long sweep
   every pool turnover), so the rows time whole passes with the wall
   clock rather than fitting short bechamel runs.  Words are minor words
   allocated per page; the run's key closure builds one 3-word key per
   page. *)
and run_hot_paths_policies () =
  let usable = Platform.usable_pages Platform.linux_2_2 in
  let noop2 _ _ = () and no_evict _ ~dirty:_ = () and no_end _ ~evicted:_ = () in
  let access m ~ino ~first ~n =
    Memory.access_run m ~n
      ~key:(fun i -> Page.File { ino; idx = first + i })
      ~dirty:false ~on_hit:noop2 ~on_miss:noop2 ~on_evict:no_evict ~on_page_end:no_end
  in
  let runs = usable / run_len in
  (* ns and minor words per page over [runs] calls of [step] *)
  let pass step =
    let w0 = Gc.minor_words () in
    let t0 = Monotonic_clock.now () in
    for _ = 1 to runs do
      step ()
    done;
    let ns = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
    let pages = float_of_int (runs * run_len) in
    (ns /. pages, (Gc.minor_words () -. w0) /. pages)
  in
  Printf.printf
    "# per-policy Memory.access_run, %d-page runs, unified pool of %d pages \
     (linux-2.2)\n"
    run_len usable;
  Printf.printf "  %-14s %12s %13s %13s %14s\n" "policy" "hit ns/page" "hit words/pg"
    "miss ns/page" "miss words/pg";
  List.iter
    (fun name ->
      let m =
        Memory.create ~usable_pages:usable (Memory.Unified (Replacement.of_name name))
      in
      let first = ref 0 in
      while !first < usable do
        access m ~ino:1 ~first:!first ~n:(min run_len (usable - !first));
        first := !first + run_len
      done;
      let base = ref 0 in
      let hit () =
        access m ~ino:1 ~first:!base ~n:run_len;
        base := (!base + run_len) mod (usable - run_len)
      in
      let next = ref 0 in
      let miss () =
        access m ~ino:2 ~first:!next ~n:run_len;
        next := !next + run_len
      in
      let hit_ns, hit_words = pass hit in
      ignore (pass miss);
      let miss_ns, miss_words = pass miss in
      Printf.printf "  %-14s %12.1f %13.2f %13.1f %14.2f\n%!" name hit_ns hit_words miss_ns
        miss_words)
    Replacement.all_names

(* The kernel's page loops on resident pages of a noisy linux-2.2
   (sigma 0.05): a [touch_pages] of a 64 MB region, where each call is
   one hit run settled by a ledger add and a tick sample per page, and a
   4 MB [read], one hit run settled by a ledger add and its copy costs.
   Whole calls timed with the wall clock.  Words are minor words per
   page: the key each page is looked up by (the touch's result array
   is large enough to go straight to the major heap). *)
and run_hot_paths_kernel () =
  let must = function Ok v -> v | Error e -> failwith (Kernel.error_to_string e) in
  let k = Kernel.boot ~engine:(Engine.create ()) ~platform:Platform.linux_2_2 ~data_disks:1 ~seed:42 () in
  let per_page ~calls ~pages f =
    f ();
    let w0 = Gc.minor_words () in
    let t0 = Monotonic_clock.now () in
    for _ = 1 to calls do
      f ()
    done;
    let ns = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
    let n = float_of_int (calls * pages) in
    (ns /. n, (Gc.minor_words () -. w0) /. n)
  in
  Kernel.spawn k (fun env ->
      let region_pages = 16_384 in
      let r = Kernel.valloc env ~pages:region_pages in
      let touch_ns, touch_words =
        per_page ~calls:20 ~pages:region_pages (fun () ->
            ignore (Kernel.touch_pages env r ~first:0 ~count:region_pages))
      in
      let len = 4 * 1024 * 1024 in
      let fd = must (Kernel.create_file env "/d0/hot") in
      ignore (must (Kernel.write env fd ~off:0 ~len));
      let read_ns, read_words =
        per_page ~calls:500 ~pages:(len / 4096) (fun () ->
            ignore (must (Kernel.read env fd ~off:0 ~len)))
      in
      Printf.printf "# kernel page loops on resident pages (linux-2.2, sigma 0.05)\n";
      Printf.printf "  %-34s %8.1f ns/page %7.2f words/page\n"
        "touch_pages, 16384-page hit run" touch_ns touch_words;
      Printf.printf "  %-34s %8.1f ns/page %7.2f words/page\n%!" "read, resident 4 MB" read_ns
        read_words);
  Kernel.run k

(* The Fs surfaces on one trendline: a whole-disk boot, which makes every
   data volume's cylinder-group maps (ms and words per boot, minor plus
   direct-major); the incremental fsck against the full-scan oracle it
   replaces on the explorer's per-boundary path; and the arena extent path
   behind read/write (append-grow + truncate, chunks recycling through
   the free lists with no OCaml allocation in steady state). *)
and run_hot_paths_fs () =
  let open Bechamel in
  let must = function Ok v -> v | Error e -> failwith (Fs.error_to_string e) in
  let boot_row ~data_disks ~boots =
    let words () =
      let _, promoted, major = Gc.counters () in
      Gc.minor_words () +. major -. promoted
    in
    let w0 = words () in
    let t0 = Monotonic_clock.now () in
    for _ = 1 to boots do
      ignore
        (Kernel.boot ~engine:(Engine.create ()) ~platform:Platform.linux_2_2 ~data_disks
           ~seed:42 ())
    done;
    let ns = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
    let n = float_of_int boots in
    Printf.printf "  boot, %d volume%s %10.2f ms/boot %12.0f words/boot\n%!" data_disks
      (if data_disks = 1 then " " else "s")
      (ns /. n /. 1e6)
      ((words () -. w0) /. n)
  in
  Printf.printf "# boot: whole-disk data volumes (linux-2.2)\n";
  boot_row ~data_disks:1 ~boots:20;
  boot_row ~data_disks:4 ~boots:10;
  let block = 4096 in
  let fs = Fs.create (Fs.default_config ~total_blocks:16384) in
  ignore (must (Fs.mkdir fs "/dir"));
  let inos =
    List.init 32 (fun i ->
        let ino = must (Fs.create_file fs (Printf.sprintf "/dir/f%02d" i)) in
        must (Fs.resize fs ~ino ~size:(8 * block));
        ino)
  in
  let cp = Fs.checkpoint fs in
  (* a boundary-sized dirty set: one grown file, one unlink, one create *)
  must (Fs.resize fs ~ino:(List.hd inos) ~size:(12 * block));
  must (Fs.unlink fs "/dir/f01");
  let fresh = must (Fs.create_file fs "/dir/f32") in
  must (Fs.resize fs ~ino:fresh ~size:(4 * block));
  let fsck_full =
    Test.make ~name:"fsck/full" (Staged.stage (fun () -> ignore (Fs.check_full fs)))
  in
  let fsck_incr =
    Test.make ~name:"fsck/incremental"
      (Staged.stage (fun () -> ignore (Fs.check_incremental fs cp)))
  in
  Printf.printf "# fsck: full scan vs incremental (32 files, 3 inodes dirty)\n";
  (match (hot_paths_benchmark fsck_full, hot_paths_benchmark fsck_incr) with
  | Some full, Some incr ->
    Printf.printf "  fsck  full     %7.1f ns/check  incremental %7.1f ns/check  (%.2fx)\n"
      full incr (full /. incr)
  | _ -> Printf.printf "  fsck  (no estimate)\n");
  let cycle_blocks = 64 in
  let victim = List.nth inos 16 in
  let extent_cycle =
    Test.make ~name:"extent/grow-shrink"
      (Staged.stage (fun () ->
           must (Fs.resize fs ~ino:victim ~size:(cycle_blocks * block));
           must (Fs.resize fs ~ino:victim ~size:(8 * block))))
  in
  Printf.printf "# arena extent path: %d-block append-grow + truncate cycle\n"
    cycle_blocks;
  (match hot_paths_benchmark extent_cycle with
  | Some est ->
    (* 56 blocks attached + 56 detached per cycle *)
    Printf.printf "  resize         %7.1f ns/block\n"
      (est /. float_of_int (2 * (cycle_blocks - 8)))
  | None -> Printf.printf "  resize (no estimate)\n");
  run_adapter_overhead ()

(* The Os_sim adapter's promise is that going through the OS functor costs
   nothing over calling the kernel directly: its bindings are eta-equal
   aliases, so the two paths should be the same closure and the same
   ns/call.  Measured on a live simulated volume with the wall clock. *)
and run_adapter_overhead () =
  let must = function Ok v -> v | Error e -> failwith (Kernel.error_to_string e) in
  let platform = Platform.with_noise Platform.linux_2_2 ~sigma:0.0 in
  let engine = Engine.create () in
  let k = Kernel.boot ~engine ~platform ~data_disks:1 ~seed:42 () in
  Kernel.spawn k (fun env ->
      must (Kernel.mkdir env "/d0/data");
      let fd = must (Kernel.create_file env "/d0/data/probe") in
      ignore (must (Kernel.write env fd ~off:0 ~len:(4 * 1024 * 1024)));
      let iters = 10_000 in
      let time_loop f =
        for _ = 1 to 1_000 do
          f ()
        done;
        let t0 = Monotonic_clock.now () in
        for _ = 1 to iters do
          f ()
        done;
        let t1 = Monotonic_clock.now () in
        Int64.to_float (Int64.sub t1 t0) /. float_of_int iters
      in
      let direct = time_loop (fun () -> ignore (Kernel.read env fd ~off:0 ~len:1)) in
      let via =
        time_loop (fun () ->
            ignore (Graybox_core.Os_sim.read env fd ~off:0 ~len:1))
      in
      Printf.printf
        "# Os_sim adapter overhead: direct kernel calls vs the OS functor \
         surface (%d reads each)\n"
        iters;
      Printf.printf
        "  read  direct   %7.1f ns/call   via-adapter %7.1f ns/call   (%+.1f%%)%s\n"
        direct via
        (if direct > 0.0 then (via -. direct) /. direct *. 100.0 else 0.0)
        (if Graybox_core.Os_sim.read == Kernel.read then "   [same closure]"
         else "");
      Kernel.close env fd);
  Kernel.run k

(* --top: a deterministic contention scenario on a memory-starved machine,
   rendered as the per-process accounting table plus the who-evicted-whom
   blame matrix.  Three readers scan 12 MB files while two anonymous-memory
   hogs each touch 16 MB: ~68 MB of working set against 24 MB of usable
   memory, so every process finishes the run having evicted the others'
   pages — file victims land in the "(file)" column, the hogs' swapped-out
   regions show up as pid-attributed victims. *)
let run_top ~noise ~seed =
  let mib = 1024 * 1024 in
  let platform =
    Platform.with_noise
      { Platform.linux_2_2 with Platform.memory_mib = 40; kernel_reserved_mib = 16 }
      ~sigma:noise
  in
  let engine = Engine.create () in
  let k = Kernel.boot ~engine ~platform ~data_disks:1 ~seed () in
  let must = function Ok v -> v | Error e -> failwith (Kernel.error_to_string e) in
  Kernel.spawn k ~name:"setup" (fun env ->
      must (Kernel.mkdir env "/d0/data");
      for i = 0 to 2 do
        let fd = must (Kernel.create_file env (Printf.sprintf "/d0/data/f%d" i)) in
        ignore (must (Kernel.write env fd ~off:0 ~len:(12 * mib)));
        Kernel.close env fd
      done);
  Kernel.run k;
  Kernel.flush_file_cache k;
  for r = 0 to 2 do
    Kernel.spawn k ~name:(Printf.sprintf "reader%d" r) (fun env ->
        let path = Printf.sprintf "/d0/data/f%d" r in
        for _pass = 1 to 3 do
          let fd = must (Kernel.open_file env path) in
          let size = Kernel.file_size env fd in
          let off = ref 0 in
          while !off < size do
            ignore (must (Kernel.read env fd ~off:!off ~len:mib));
            off := !off + mib
          done;
          Kernel.close env fd
        done)
  done;
  for h = 0 to 1 do
    Kernel.spawn k ~name:(Printf.sprintf "hog%d" h) (fun env ->
        let pages = 16 * mib / 4096 in
        let r = Kernel.valloc env ~pages in
        for _pass = 1 to 3 do
          ignore (Kernel.touch_pages env r ~first:0 ~count:pages)
        done;
        Kernel.vfree env r)
  done;
  Kernel.run k;
  match Kernel.account k with
  | None -> assert false (* the ledger is always on *)
  | Some a ->
    Printf.printf
      "# per-process accounting: 3 readers + 2 memory hogs on %s (%d MB usable)\n"
      platform.Platform.name
      (platform.Platform.memory_mib - platform.Platform.kernel_reserved_mib);
    print_string (Account.top_table a);
    print_string (Account.blame_table a)

(* --fleet: the scheduler-plane scaling row — mixed-profile fleets of
   growing size on one proportional-share kernel (ledger reaped every 64
   exits), with the simulated horizon, real
   wall-clock cost, event count, scheduler slices and ledger footprint
   per size.  The table is the "thousands of contending processes cost
   this much to simulate" answer; the experiment itself lives in
   `bench/main.exe fleet`. *)
let run_fleet ~noise ~seed =
  let platform =
    Platform.with_noise
      { Platform.linux_2_2 with Platform.memory_mib = 48; kernel_reserved_mib = 32 }
      ~sigma:noise
  in
  Printf.printf
    "# fleet scaling on %s (%d MB usable): mixed profiles, 2 rounds each, reap every 64 exits\n"
    platform.Platform.name
    (platform.Platform.memory_mib - platform.Platform.kernel_reserved_mib);
  Printf.printf "  %-8s %10s %10s %12s %10s %11s %8s\n" "procs" "sim-ms" "wall-ms"
    "events" "slices" "live-rows" "reaped";
  List.iter
    (fun procs ->
      let d =
        {
          Graybox_core.Fleet.default_descriptor with
          Graybox_core.Fleet.fd_procs = procs;
          fd_seed = seed;
          fd_reap_every = 64;
        }
      in
      let engine = Engine.create () in
      let k =
        Kernel.boot ~engine ~platform ~data_disks:1 ~seed
          ~sched:(Graybox_core.Fleet.sched_config d) ~procs:(procs + 8) ()
      in
      let prof_rng = Gray_util.Rng.create ~seed:(seed + 1) in
      let profiles =
        Array.init procs (fun _ -> Gray_apps.Workload.draw_profile prof_rng)
      in
      let paths_cell = ref [||] in
      Kernel.spawn k ~name:"setup" (fun env ->
          paths_cell :=
            Gray_apps.Workload.fleet_population env ~dir:"/d0/pop" ~files:32
              ~file_kb:256;
          Kernel.flush_file_cache k);
      Kernel.run k;
      Graybox_core.Fleet.spawn_fleet k d
        ~name:(fun i -> "fleet." ^ Gray_apps.Workload.profile_name profiles.(i))
        ~body:(fun ~index ~rng env ->
          Gray_apps.Workload.run_profile env rng profiles.(index)
            ~paths:!paths_cell ~rounds:2)
        ();
      let t0 = Unix.gettimeofday () in
      Kernel.run k;
      let wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let slices =
        match Kernel.sched k with Some s -> Sched.slices s | None -> 0
      in
      let live_rows, reaped =
        match Kernel.account k with
        | Some a -> (List.length (Account.rows a), Account.reaped_procs a)
        | None -> (0, 0)
      in
      Printf.printf "  %-8d %10.1f %10.1f %12d %10d %11d %8d\n" procs
        (float_of_int (Engine.now engine) /. 1e6)
        wall_ms
        (Engine.events_processed engine)
        slices live_rows reaped)
    [ 64; 256; 1024 ]

let run_platforms platform_names noise seed jobs output =
  let names =
    match String.split_on_char ',' platform_names with
    | [ "all" ] -> List.map (fun p -> p.Platform.name) Platform.all
    | names -> List.map String.trim names
  in
  (* fail on typos before spending any simulation time *)
  (try List.iter (fun n -> ignore (Platform.by_name n)) names
   with Invalid_argument msg ->
     Printf.eprintf "toolbox_bench: %s (try \"all\")\n" msg;
     exit 1);
  let pool = Gray_util.Domain_pool.create ~size:(min jobs (List.length names)) in
  let results =
    Fun.protect
      ~finally:(fun () -> Gray_util.Domain_pool.shutdown pool)
      (fun () -> Gray_util.Domain_pool.map pool (bench_platform ~noise ~seed) names)
  in
  let failed = ref false in
  List.iter
    (fun (name, repo) ->
      match repo with
      | None ->
        Printf.eprintf "toolbox_bench: benchmark process failed on %s\n" name;
        failed := true
      | Some repo -> (
        Printf.printf "# gray-toolbox microbenchmark results for %s (noise sigma %.2f)\n"
          name noise;
        print_string (Gray_util.Param_repo.to_string repo);
        match output with
        | None -> ()
        | Some path ->
          let path =
            if List.length results = 1 then path else Printf.sprintf "%s.%s" path name
          in
          Gray_util.Param_repo.save repo ~path;
          Printf.printf "# saved to %s\n" path))
    results;
  if !failed then exit 1

let run hot_paths top fleet platform_names noise seed jobs output =
  if top then run_top ~noise ~seed
  else if fleet then run_fleet ~noise ~seed
  else if hot_paths then run_hot_paths ()
  else run_platforms platform_names noise seed jobs output

let top_arg =
  Arg.(
    value & flag
    & info [ "top" ]
        ~doc:
          "Run a deterministic multi-process contention scenario on a \
           memory-starved platform and print the per-process accounting \
           table plus the who-evicted-whom blame matrix.")

let fleet_arg =
  Arg.(
    value & flag
    & info [ "fleet" ]
        ~doc:
          "Print the multi-tenant fleet scaling table: mixed-profile fleets of \
           64/256/1024 processes on one proportional-share scheduler kernel, \
           with simulated horizon, wall-clock cost, event count and ledger \
           footprint per size (mid-run reaping).")

let hot_paths_arg =
  Arg.(
    value & flag
    & info [ "hot-paths" ]
        ~doc:
          "Instead of the toolbox microbenchmarks, run a bechamel comparison of \
           the page pool's batched run API against the per-page path (hits and \
           misses separately), then one hit and one miss row per replacement \
           policy at linux-2.2's usable memory (ns and minor words per page).  \
           Numbers measure this machine.")

let platform_arg =
  Arg.(
    value
    & opt string "linux-2.2"
    & info [ "platform"; "p" ]
        ~doc:
          "Platform preset(s): linux-2.2, netbsd-1.5 or solaris-7; a comma-separated \
           list or \"all\" benchmarks several in parallel (see $(b,-j)).")

let noise_arg = Arg.(value & opt float 0.05 & info [ "noise" ] ~doc:"Timing noise sigma.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")

let jobs_arg =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "j"; "jobs" ]
        ~doc:"Domains to fan platforms out over (results are order-independent).")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ]
        ~doc:
          "Save the repository to a file (suffixed with the platform name when \
           benchmarking several).")

let cmd =
  Cmd.v
    (Cmd.info "toolbox_bench" ~doc:"Gray-toolbox microbenchmarks on the simulated OS")
    Term.(
      const run $ hot_paths_arg $ top_arg $ fleet_arg $ platform_arg $ noise_arg
      $ seed_arg $ jobs_arg $ output_arg)

let () = exit (Cmd.eval cmd)

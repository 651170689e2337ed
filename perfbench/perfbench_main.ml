(* The benchmark's workload process.  [run.py] builds this executable and
   starts one process per run:

     perfbench_main.exe measure --workload W --seed S
       runs set-up and the measured phase once, untraced, and prints
       their host times, the heap peak and the simulated results;

     perfbench_main.exe trace --workload W --seed S --out FILE
       runs one traced iteration, reads the exact counts, runs the layer
       probes and the two-seed domain-pool comparison, writes a Chrome
       trace to FILE and prints the per-layer ledger.

   Both print a [digest W <hex>] line and then one JSON object as the
   last line of standard output. *)

open Simos
open Perfbench
module J = Gray_util.Json
module W = Workloads

let usage () =
  prerr_endline
    "usage: perfbench_main.exe (measure|trace) --workload NAME --seed N [--out FILE]";
  exit 2

(* The figure harness's GC settings. *)
let () = Gc.set { (Gc.get ()) with minor_heap_size = 8 * 1024 * 1024; space_overhead = 200 }
let secs ns = float_of_int ns /. 1e9
let host f =
  let t0 = Spans.now_ns () in
  let v = f () in
  (v, secs (Spans.now_ns () - t0))

let peak_mem_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let emit_digest name digest = Printf.printf "digest %s %s\n" name digest

let result_fields (r : W.result) =
  [
    ("sim_s", J.Float r.W.sim_s);
    ("baseline_s", J.Float r.W.baseline_s);
    ("paper_err", J.Float r.W.paper_err);
    ("attempted", J.Int r.W.attempted);
    ("failed", J.Int r.W.failed);
    ("digest", J.String r.W.digest);
  ]

(* ---- measure ---- *)

let measure name ~seed =
  let inst, setup_s = host (fun () -> W.setup name ~mode:W.Plain ~seed) in
  let r, wall_s = host inst.W.measured in
  emit_digest name r.W.digest;
  J.Obj
    ([
       ("workload", J.String name);
       ("seed", J.Int seed);
       ("setup_s", J.Float setup_s);
       ("wall_s", J.Float wall_s);
       ("peak_mem_mb", J.Float (peak_mem_mb ()));
     ]
    @ result_fields r)

(* ---- trace ---- *)

let div a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* The value of a per-layer metric that this workload cannot measure: a
   host time or count no span or ledger kind records, or a correlation
   or mean over an ICL the workload does not run. *)
let not_measured = -1.0

(* Two independent seeds of one workload, serially and then on a domain
   pool; reports the speedup and whether every digest matched. *)
let domain_pool_point name ~seed =
  let iteration s = ((W.setup name ~mode:W.Plain ~seed:s).W.measured ()).W.digest in
  let seeds = [ seed; seed + 1 ] in
  let serial, serial_s = host (fun () -> List.map iteration seeds) in
  Gc.compact ();
  let pool = Gray_util.Domain_pool.create ~size:(Domain.recommended_domain_count ()) in
  let parallel, parallel_s = host (fun () -> Gray_util.Domain_pool.map pool iteration seeds) in
  Gray_util.Domain_pool.shutdown pool;
  (div serial_s parallel_s, serial = parallel)

let trace name ~seed ~out =
  Spans.enabled := true;
  let inst, setup_s = host (fun () -> Spans.span "phase.setup" (fun () -> W.setup name ~mode:W.Traced ~seed)) in
  Spans.reset_counts ();
  let before = Ledger.snapshot inst.W.kernels in
  let r, run_s = host (fun () -> Spans.span "phase.run" inst.W.measured) in
  let after = Ledger.snapshot inst.W.kernels in
  Spans.enabled := false;
  emit_digest name r.W.digest;
  let d = Ledger.diff after before in
  let k = Ledger.kind d in
  (* ---- probes ---- *)
  let platform = inst.W.platform in
  let page_size = platform.Platform.page_size in
  let ev = Probes.engine ~fibers:inst.W.fibers in
  (* the kernel and scheduler probes run one and two fibers; net out the
     engine event at their own queue depth *)
  let ev1 = if inst.W.fibers = 1 then ev else Probes.engine ~fibers:1 in
  let ev2 = Probes.engine ~fibers:2 in
  let anon_misses = d.Ledger.zero_fills + d.page_ins in
  let file_misses = d.misses - anon_misses in
  let accesses = d.hits + d.misses in
  (* Page accesses by kind.  Without anonymous activity every access is a
     file page.  Otherwise (sort) the file side is derived from the bytes
     moved: page-aligned writes are exact, and each read may straddle one
     extra page. *)
  let file_accesses =
    if k "touch" = 0 && anon_misses = 0 then accesses
    else min accesses (((d.bytes_moved + page_size - 1) / page_size) + k "read")
  in
  let file_hits = file_accesses - file_misses in
  let anon_hits = accesses - file_accesses - anon_misses in
  let io_calls = k "read" + k "write" in
  let file_run = max 1 (file_accesses / max 1 io_calls) in
  let anon_run = max 1 ((accesses - file_accesses) / max 1 (k "touch")) in
  let hit = Probes.cache_hit ~platform ~run:file_run in
  let miss = Probes.cache_miss ~platform ~run:file_run in
  let hit1 = Probes.cache_hit ~platform ~run:1 in
  let rr = Probes.resident_read ~platform in
  let sys = Probes.sub (Probes.sub rr hit1) ev1 in
  let anon_touch = (Probes.touch ~platform ~run:anon_run).Probes.ns in
  let disk = Probes.disk ~platform ~blocks:(max 1 (d.disk_blocks / max 1 d.disk_requests)) in
  let fs = Probes.fs ~platform in
  let slice = Probes.sub (Probes.sched ~platform) ev2 in
  (* ---- per-layer estimates ---- *)
  let ns_s x = x /. 1e9 in
  let engine_est = ns_s (fi d.events *. ev.ns) in
  let kernel_est = ns_s (fi d.syscalls *. sys.ns) in
  let cache_est =
    ns_s
      ((fi file_hits *. hit.ns) +. (fi d.misses *. miss.ns) +. (fi anon_hits *. anon_touch))
  in
  let disk_est = ns_s (fi d.disk_requests *. disk.ns) in
  let creates = k "create" and unlinks = k "unlink" in
  let namespace_ops =
    List.fold_left (fun acc kind -> acc + k kind) 0
      [ "open"; "create"; "unlink"; "rename"; "mkdir"; "readdir"; "stat"; "utimes" ]
  in
  let cycles = (creates + unlinks) / 2 in
  let lookups = namespace_ops - creates - unlinks in
  let block_lookups = d.file_fetches + d.file_writebacks in
  let fs_est =
    ns_s
      ((fi lookups *. fs.Probes.lookup.ns)
      +. (fi cycles *. fs.create_unlink.ns)
      +. (fi block_lookups *. fs.block_of_page.ns))
  in
  let sched_est = ns_s (fi d.slices *. slice.ns) in
  let icl ?(absent = 0.0) name = Option.value ~default:absent (List.assoc_opt name r.W.icl) in
  let icl_self = icl "fccd.self_s" +. icl "fldc.self_s" in
  (* white-box ground truth for the rank correlations runs inside the
     traced measured phase; it is the benchmark's own work, not a layer's *)
  let explained =
    engine_est +. kernel_est +. cache_est +. disk_est +. fs_est +. sched_est +. icl_self
    +. secs (Spans.total_ns "bench.ground_truth")
  in
  (* ---- multicore data point ---- *)
  let speedup, pool_match = domain_pool_point name ~seed in
  (* ---- per-call metrics ---- *)
  (* Workloads that run the shipped flat-API apps make no [Timed] calls.
     Their per-call counts come from the ledger, and what it cannot give
     reads [not_measured]: every host time, and the count of a call the
     ledger has no kind for.  The ledger bills [compute_bytes] as
     [compute], so [os.compute.calls] counts both there. *)
  let flat = Array.for_all (( = ) 0) Spans.call_count in
  let ledger_kind = function
    | "open_file" -> Some "open"
    | "create_file" -> Some "create"
    | "touch_pages" -> Some "touch"
    | "gettime" | "timing_confidence_cap" | "sleep_ns" | "file_size" | "durability_on"
    | "compute_bytes" | "pid" | "flight" ->
      None
    | c -> Some c
  in
  let os_metrics =
    List.concat_map
      (fun c ->
        let i = Spans.call_index c in
        let calls, host_s =
          if not flat then (fi Spans.call_count.(i), secs Spans.call_ns.(i))
          else
            ( (match ledger_kind c with Some kind -> fi (k kind) | None -> not_measured),
              not_measured )
        in
        [ ("os." ^ c ^ ".calls", calls); ("os." ^ c ^ ".host_s", host_s) ])
      (Array.to_list Spans.calls)
  in
  let metrics =
    [
      ("engine.events", fi d.events);
      ("engine.ns_per_event", ev.ns);
      ("engine.words_per_event", ev.words);
      ("engine.est_s", engine_est);
      ("kernel.syscalls", fi d.syscalls);
      ("kernel.ns_per_syscall", sys.ns);
      ("kernel.words_per_syscall", sys.words);
      ("kernel.est_s", kernel_est);
    ]
    @ os_metrics
    @ [
        ("cache.file_hits", fi file_hits);
        ("cache.file_misses", fi file_misses);
        ("cache.anon_hits", fi anon_hits);
        ("cache.anon_misses", fi anon_misses);
        ("cache.evictions", fi d.evictions);
        ("cache.writebacks", fi (d.file_writebacks + d.page_outs));
        ("cache.hit_ratio", div (fi d.hits) (fi accesses));
        ("cache.ns_per_hit", hit.ns);
        ("cache.ns_per_miss", miss.ns);
        ("cache.ns_per_anon_touch", anon_touch);
        ( "cache.words_per_page",
          div ((fi file_hits *. hit.words) +. (fi d.misses *. miss.words)) (fi (file_hits + d.misses)) );
        ("cache.est_s", cache_est);
        ("disk.requests", fi d.disk_requests);
        ("disk.blocks", fi d.disk_blocks);
        ("disk.seq_frac", div (fi d.disk_seq) (fi d.disk_requests));
        ("disk.sim_busy_s", secs d.disk_busy_ns);
        ("disk.ns_per_request", disk.ns);
        ("disk.est_s", disk_est);
        ("fs.namespace_ops", fi namespace_ops);
        ("fs.ns_per_lookup", fs.lookup.ns);
        ("fs.ns_per_create_unlink", fs.create_unlink.ns);
        ("fs.ns_per_block_of_page", fs.block_of_page.ns);
        ("fs.est_s", fs_est);
        ("sched.slices", fi d.slices);
        ("sched.ns_per_slice", slice.ns);
        ("sched.est_s", sched_est);
        ("fccd.probes", icl "fccd.probes");
        ("fccd.self_s", icl "fccd.self_s");
        ("fccd.rank_rho", icl ~absent:not_measured "fccd.rank_rho");
        ("mac.passes", icl "mac.passes");
        ("mac.avg_pass_mb", icl ~absent:not_measured "mac.avg_pass_mb");
        ("mac.probe_sim_s", icl "mac.probe_sim_s");
        ("fldc.stats", icl "fldc.stats");
        ("fldc.self_s", icl "fldc.self_s");
        ("fldc.layout_rho", icl ~absent:not_measured "fldc.layout_rho");
        ("gc.minor_words", d.minor_words);
        ("gc.major_words", d.major_words);
        ("gc.major_collections", fi d.major_collections);
        ("gc.words_per_page", div d.minor_words (fi accesses));
        ("sim.baseline_s", r.W.baseline_s);
        ("sim.cpu_busy_s", secs d.cpu_busy_ns);
        ("model.paper_err", r.W.paper_err);
        ("phase.setup_s", setup_s);
        ("phase.run_s", run_s);
        ("trace.unexplained_frac", 1.0 -. div explained run_s);
        ("domain_pool.speedup", speedup);
      ]
  in
  Spans.write_chrome ~path:out
    ~meta:[ ("workload", name); ("seed", string_of_int seed); ("digest", r.W.digest) ];
  J.Obj
    ([
       ("workload", J.String name);
       ("seed", J.Int seed);
       ("pool_digests_match", J.Bool pool_match);
       ("metrics", J.Obj (List.map (fun (n, v) -> (n, J.Float v)) metrics));
     ]
    @ result_fields r)

(* ---- command line ---- *)

(* The simulator reads GRAYBOX_* variables where a plane is not passed
   explicitly; the benchmark's numbers must not depend on them. *)
let refuse_tainted_environment () =
  let tainted =
    Array.to_list (Unix.environment ())
    |> List.filter_map (fun kv ->
           match String.index_opt kv '=' with
           | Some i
             when String.starts_with ~prefix:"GRAYBOX_" kv
                  && String.trim (String.sub kv (i + 1) (String.length kv - i - 1)) <> "" ->
             Some (String.sub kv 0 i)
           | _ -> None)
  in
  if tainted <> [] then begin
    prerr_endline ("perfbench: refusing to run with " ^ String.concat ", " tainted ^ " set");
    exit 2
  end

let () =
  refuse_tainted_environment ();
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      opts ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  match args with
  | cmd :: rest ->
    let o = opts [] rest in
    let get key = match List.assoc_opt key o with Some v -> v | None -> usage () in
    let name = get "workload" in
    if not (List.mem name W.names) then usage ();
    let seed = match int_of_string_opt (get "seed") with Some s -> s | None -> usage () in
    let out =
      match cmd with
      | "measure" -> measure name ~seed
      | "trace" -> trace name ~seed ~out:(get "out")
      | _ -> usage ()
    in
    print_endline (J.to_string out)
  | [] -> usage ()

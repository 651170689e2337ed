(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the ablations and toolbox microbenchmarks.

     dune exec bench/main.exe                        # default set
     dune exec bench/main.exe -- fig2 fig7           # a subset
     dune exec bench/main.exe -- -j 8                # eight domains
     dune exec bench/main.exe -- --json out.json     # perf trajectory
     GRAYBOX_TRIALS=30 dune exec bench/main.exe -- fig5

   Every experiment builds a plan of self-contained tasks; the driver
   fans all tasks over a domain pool and renders afterwards in
   submission order, so stdout and the JSON are byte-identical at any
   -j.  `micro` (hardware microbenchmarks) only runs when named
   explicitly, because its numbers are measurements of this machine.

   Experiment ids: fig1..fig7, tables, ablation, baselines,
   fingerprint, faults, micro, crash. *)

open Gray_bench

let experiments =
  [
    ("fig1", Fig1.plan, "probe correlation vs prediction-unit size");
    ("fig2", Fig2.plan, "single-file scan, linear vs gray-box vs models");
    ("fig3", Fig3.plan, "grep and fastsort application performance");
    ("fig4", Fig4.plan, "multi-platform scans and searches");
    ("fig5", Fig5.plan, "file ordering: random vs directory vs i-number");
    ("fig6", Fig6.plan, "file-system aging and directory refresh");
    ("fig7", Fig7.plan, "four competing fastsorts with MAC");
    ("tables", Tables.plan, "techniques in existing systems and the case studies");
    ("ablation", Ablation.plan, "policy / noise / increment ablations");
    ("baselines", Baselines.plan, "SLEDs / vmstat / interposition comparators");
    ("fingerprint", Fingerprint_bench.plan, "identify the cache policy from user level");
    ("faults", Faults.plan, "accuracy vs fault-intensity degradation curves");
    ("micro", Micro.plan, "bechamel microbenchmarks of the toolbox (hardware-dependent)");
    ("crash", Crash_bench.plan, "exhaustive crash-point exploration of ICL recovery");
    ("drift", Drift_bench.plan, "frozen vs adaptive ICL accuracy under environment drift");
    ("fleet", Fleet_bench.plan, "multi-tenant fleets: scheduler scale, MAC fairness, FCCD pollution");
  ]

let default_set =
  (* micro measures the host machine, not the simulation; crash, drift
     and fleet are robustness/regime gates rather than paper figures:
     all only on request (keeping drift out also keeps the default suite
     byte-identical with the drift plane compiled in) *)
  List.filter
    (fun (name, _, _) ->
      name <> "micro" && name <> "crash" && name <> "drift" && name <> "fleet")
    experiments

let usage () =
  print_endline
    "usage: main.exe [-j N] [--json PATH] [--strict] [--trials N] [--trace PATH]";
  print_endline "               [--trace-summary] [--compare BASELINE.json]";
  print_endline "               [--compare-threshold PCT] [experiment ...]";
  print_endline "options:";
  print_endline "  -j N            run experiment tasks on N domains (default: the host's";
  print_endline "                  recommended domain count; results identical at any N)";
  print_endline "  --json PATH     write the machine-readable perf trajectory (BENCH_suite.json)";
  print_endline "  --strict        exit non-zero if any expected-shape check fails";
  print_endline "  --trials N      same as GRAYBOX_TRIALS=N";
  print_endline "  --trace PATH    write a Chrome trace_event JSON (Perfetto-loadable);";
  print_endline "                  turns telemetry on (full) unless GRAYBOX_TELEMETRY says";
  print_endline "                  otherwise";
  print_endline "  --trace-summary print a human-readable span/metric summary table;";
  print_endline "                  also turns telemetry on";
  print_endline "  --compare BASELINE.json";
  print_endline "                  print per-experiment wall-time deltas against an earlier";
  print_endline "                  trajectory; exit 4 if any experiment regressed past the";
  print_endline "                  threshold (gate skipped when trial counts differ)";
  print_endline "  --compare-threshold PCT";
  print_endline "                  regression threshold for --compare, percent (default 25;";
  print_endline "                  wall time on shared runners jitters ~10%)";
  print_endline "experiments (default: all but micro, crash, drift and fleet):";
  List.iter (fun (name, _, doc) -> Printf.printf "  %-12s %s\n" name doc) experiments

let parse_args () =
  let jobs = ref (Domain.recommended_domain_count ()) in
  let json = ref None in
  let strict = ref false in
  let trace = ref None in
  let trace_summary = ref false in
  let compare_path = ref None in
  let compare_threshold = ref 25.0 in
  let names = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> prerr_endline s; usage (); exit 2) fmt in
  let int_arg flag = function
    | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | Some _ | None -> bad "%s expects an integer >= 1, got %s" flag s)
    | None -> bad "%s expects an argument" flag
  in
  let rec go = function
    | [] -> ()
    | ("--help" | "-h" | "help") :: _ ->
      usage ();
      exit 0
    | "-j" :: rest ->
      let v, rest = (match rest with x :: r -> (Some x, r) | [] -> (None, [])) in
      jobs := int_arg "-j" v;
      go rest
    | "--json" :: rest ->
      let v, rest = (match rest with x :: r -> (Some x, r) | [] -> (None, [])) in
      (match v with Some p -> json := Some p | None -> bad "--json expects a path");
      go rest
    | "--trials" :: rest ->
      let v, rest = (match rest with x :: r -> (Some x, r) | [] -> (None, [])) in
      Bench_common.set_trials (int_arg "--trials" v);
      go rest
    | "--strict" :: rest ->
      strict := true;
      go rest
    | "--trace" :: rest ->
      let v, rest = (match rest with x :: r -> (Some x, r) | [] -> (None, [])) in
      (match v with Some p -> trace := Some p | None -> bad "--trace expects a path");
      go rest
    | "--trace-summary" :: rest ->
      trace_summary := true;
      go rest
    | "--compare" :: rest ->
      let v, rest = (match rest with x :: r -> (Some x, r) | [] -> (None, [])) in
      (match v with
      | Some p -> compare_path := Some p
      | None -> bad "--compare expects a path");
      go rest
    | "--compare-threshold" :: rest ->
      let v, rest = (match rest with x :: r -> (Some x, r) | [] -> (None, [])) in
      (match v with
      | Some s -> (
        match float_of_string_opt s with
        | Some pct when pct > 0.0 -> compare_threshold := pct
        | Some _ | None ->
          bad "--compare-threshold expects a positive percentage, got %s" s)
      | None -> bad "--compare-threshold expects an argument");
      go rest
    | name :: rest ->
      (match List.find_opt (fun (n, _, _) -> n = name) experiments with
      | Some exp -> names := exp :: !names
      | None -> bad "unknown experiment %s" name);
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  let selected = match List.rev !names with [] -> default_set | l -> l in
  ( !jobs, !json, !strict, !trace, !trace_summary,
    !compare_path, !compare_threshold, selected )

(* Export-write failures get their own exit code (3), distinct from the
   strict-check failure (1) and the usage error (2); a perf regression
   caught by --compare is 4. *)
let exit_export_failed = 3
let exit_perf_regressed = 4

let save_or_die ~what ~path json =
  try Gray_util.Json.save ~path json
  with Sys_error msg ->
    Printf.eprintf "error: cannot write %s to %s: %s\n%!" what path msg;
    exit exit_export_failed

(* ---- perf gate (--compare) -------------------------------------------- *)

(* Per-experiment wall-time deltas against an earlier BENCH_suite.json.
   Experiment wall time is the sum of task work times, so the comparison
   is meaningful even when the two runs used different -j; trial counts
   must match, though — when they differ the deltas still print but the
   gate does not fire.  Returns the names of experiments present in both
   trajectories that slowed down past [threshold_pct] — the JSON writer
   attaches their flight-recorder tails as the post-mortem. *)
let perf_gate ~baseline_path ~threshold_pct results =
  let open Gray_util.Json in
  let die msg =
    Printf.eprintf "error: --compare: %s\n%!" msg;
    exit exit_export_failed
  in
  let base =
    match load ~path:baseline_path with Ok v -> v | Error e -> die e
  in
  let base_trials = Option.bind (member "trials" base) to_float_opt in
  let trials_match =
    base_trials = Some (float_of_int (Bench_common.trials ()))
  in
  let base_wall =
    match Option.bind (member "experiments" base) to_list_opt with
    | None -> die "baseline has no experiments array"
    | Some exps ->
      List.filter_map
        (fun e ->
          match
            ( Option.bind (member "name" e) to_string_opt,
              Option.bind (member "wall_ns" e) to_float_opt )
          with
          | Some n, Some w -> Some (n, w)
          | _ -> None)
        exps
  in
  let regressed = ref [] in
  Printf.printf "\nperf vs %s (threshold +%.0f%%):\n" baseline_path threshold_pct;
  if not trials_match then
    Printf.printf
      "  note: trial counts differ (baseline %s, this run %d) — deltas are\n\
      \  not comparable, gate disabled\n"
      (match base_trials with
      | Some t -> string_of_int (int_of_float t)
      | None -> "unknown")
      (Bench_common.trials ());
  List.iter
    (fun (name, _, plan, _) ->
      let now_s =
        float_of_int (Bench_common.plan_stats plan).Bench_common.st_wall_ns /. 1e9
      in
      match List.assoc_opt name base_wall with
      | None -> Printf.printf "  %-12s %8.1f s   (not in baseline)\n" name now_s
      | Some base_ns ->
        let base_s = base_ns /. 1e9 in
        let delta_pct =
          if base_s > 0.0 then (now_s -. base_s) /. base_s *. 100.0 else 0.0
        in
        let slow = trials_match && delta_pct > threshold_pct in
        if slow then regressed := name :: !regressed;
        Printf.printf "  %-12s %8.1f s  -> %8.1f s   %+6.1f%%%s\n" name base_s
          now_s delta_pct
          (if slow then "  REGRESSED" else ""))
    results;
  List.rev !regressed

let () =
  (* The simulator is allocation-heavy (fibers, per-syscall records); a
     larger minor heap keeps short-lived values out of the major heap.
     GC settings cannot affect results — the simulation is deterministic
     in its own virtual clock. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 8 * 1024 * 1024; space_overhead = 200 };
  let jobs, json_path, strict, trace_path, trace_summary, compare_path,
      compare_threshold, selected =
    parse_args ()
  in
  (* Asking for a trace export opts into telemetry; an explicit
     GRAYBOX_TELEMETRY (e.g. a sample rate) still wins. *)
  if trace_path <> None || trace_summary then begin
    match Gray_util.Telemetry.of_env () with
    | Gray_util.Telemetry.Off -> Bench_common.set_telemetry_mode Gray_util.Telemetry.Full
    | mode -> Bench_common.set_telemetry_mode mode
  end;
  (* read before any output, so a malformed plane variable is a usage
     error like a malformed GRAYBOX_TRIALS, not a crash mid-run *)
  Bench_common.set_planes (Graybox_core.Planes.of_env ());
  Printf.printf
    "Reproducing %d experiment(s): %d trials per figure (paper used 30), %d domain(s).\n%!"
    (List.length selected) (Bench_common.trials ()) jobs;
  let t0 = Unix.gettimeofday () in
  let plans = List.map (fun (name, plan, doc) -> (name, doc, plan ())) selected in
  let pool = Gray_util.Domain_pool.create ~size:jobs in
  Fun.protect
    ~finally:(fun () -> Gray_util.Domain_pool.shutdown pool)
    (fun () -> Bench_common.execute ~pool (List.map (fun (_, _, p) -> p) plans));
  let results =
    List.map (fun (name, doc, plan) -> (name, doc, plan, plan.Bench_common.p_render ())) plans
  in
  let suite_wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  List.iter (fun (_, _, _, r) -> print_string r.Bench_common.rd_output) results;
  (* check summary *)
  let all_checks =
    List.concat_map (fun (name, _, _, r) ->
        List.map (fun c -> (name, c)) r.Bench_common.rd_checks)
      results
  in
  let failed =
    List.filter (fun (_, c) -> not c.Bench_common.ck_ok) all_checks
  in
  Printf.printf "\nexpected-shape checks: %d/%d passed"
    (List.length all_checks - List.length failed)
    (List.length all_checks);
  Printf.printf "   (suite wall-clock %.1f s, -j %d)\n"
    (float_of_int suite_wall_ns /. 1e9) jobs;
  List.iter
    (fun (name, c) -> Printf.printf "  FAILED [%s] %s\n" name c.Bench_common.ck_name)
    failed;
  (* The gate runs before the JSON write so a regressed experiment's
     flight-recorder tail rides along in the trajectory it failed. *)
  let regressed =
    match compare_path with
    | None -> []
    | Some baseline_path ->
      perf_gate ~baseline_path ~threshold_pct:compare_threshold results
  in
  (match json_path with
  | None -> ()
  | Some path ->
    save_or_die ~what:"perf trajectory" ~path
      (Bench_common.suite_json ~jobs ~suite_wall_ns ~regressed results);
    Printf.printf "perf trajectory written to %s\n" path);
  let bare_plans = List.map (fun (_, _, p) -> p) plans in
  (match trace_path with
  | None -> ()
  | Some path ->
    save_or_die ~what:"trace" ~path (Bench_common.chrome_trace_of bare_plans);
    Printf.printf "chrome trace written to %s\n" path);
  if trace_summary then print_string (Bench_common.telemetry_summary bare_plans);
  if strict && failed <> [] then exit 1;
  if regressed <> [] then exit exit_perf_regressed

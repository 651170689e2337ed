(* gbp — the gray-box probe utility (Section 4.1.2), demonstrated on a
   simulated volume.

   Builds a file population on the simulated OS, optionally warms some of
   the files into the file cache, then prints the order in which an
   unmodified application should access them:

     gbp --mode mem      # FCCD: cache-resident files first
     gbp --mode file     # FLDC: i-number (layout) order
     gbp --mode compose  # cached first, each group i-number sorted

   `gbp --out` additionally streams one file in best-probe order, showing
   the (offset, length) extents an application on the other end of the
   pipe would receive.

   `--faults canonical` boots the kernel under the canonical fault
   scenario; `--extra PATH` adds paths that need not exist (exercising
   the error exit codes); `--min-confidence` makes a noisy mem-mode
   ordering fall back to argument order.  Kernel errors map to distinct
   exit codes (see Gbp.exit_code_of_error); 1 stays for usage errors. *)

open Cmdliner
open Simos
open Graybox_core

let mib = 1024 * 1024

let probe_config ~seed =
  { (Fccd.default_config ~seed ()) with Fccd.access_unit = 4 * mib; prediction_unit = 1 * mib }

(* Warm only files that exist: extras may be ghosts and must not eat warm
   slots either. *)
let warm_set ~seed ~warm made =
  let arr = Array.of_list made in
  Gray_util.Rng.shuffle (Gray_util.Rng.create ~seed:(seed + 1)) arr;
  Array.to_list (Array.sub arr 0 (min warm (Array.length arr)))

let basenames paths = String.concat ", " (List.map Fldc.basename (List.sort compare paths))

(* A degraded gbp keeps the pipeline alive — the caller's own argument
   order passes through — but reports why on stderr and, for kernel
   errors, through a distinct exit code (the result). *)
let print_ordering ~header (ordered, reason) =
  Option.iter
    (fun r ->
      Printf.eprintf "gbp: %s; falling back to argument order\n"
        (Gbp.fallback_reason_to_string r))
    reason;
  Printf.printf "# %s ordering%s:\n" header
    (match reason with Some _ -> " (fallback: argument order)" | None -> "");
  List.iter print_endline ordered;
  match reason with Some (Gbp.Degraded_error e) -> Gbp.exit_code_of_error e | _ -> 0

let run_sim mode files size_mib warm out noise seed fault_scenario crash_scenario
    extra min_confidence trace metrics drift_scenario adaptive rounds recal_budget
    flight_dump =
  let module Tele = Gray_util.Telemetry in
  (* --trace / --metrics opt into telemetry; an explicit GRAYBOX_TELEMETRY
     (e.g. a sample rate) still wins *)
  let tele_mode =
    match Tele.of_env () with
    | Tele.Off when trace <> None || metrics -> Tele.Full
    | m -> m
  in
  let sink =
    match tele_mode with Tele.Off -> None | m -> Some (Tele.create ~mode:m ~name:"gbp" ())
  in
  let platform = Platform.with_noise Platform.linux_2_2 ~sigma:noise in
  let engine = Engine.create () in
  let k =
    Kernel.boot ~engine ~platform ~data_disks:1 ~seed ?faults:fault_scenario
      ?crash:crash_scenario ?drift:drift_scenario ()
  in
  (* no-op without a drift plane; with one, replay the schedule as a
     background process so the orderings below see the machine change *)
  Kernel.start_drift_daemon k;
  let exit_code = ref 0 in
  Kernel.spawn k (fun env ->
      let made =
        Gray_apps.Workload.make_files env ~dir:"/d0/data" ~prefix:"file" ~count:files
          ~size:(size_mib * mib)
      in
      let paths = made @ extra in
      Kernel.flush_file_cache k;
      let warmed = warm_set ~seed ~warm made in
      List.iter (fun p -> Gray_apps.Workload.read_file env p) warmed;
      Printf.printf "# volume: %d files x %d MB on %s; warmed: %s\n" files size_mib
        platform.Platform.name (basenames warmed);
      let config = probe_config ~seed in
      if adaptive then begin
        (* self-healing FCCD ordering: re-order [rounds] times, two
           virtual seconds apart, spot-checking the ranking's health
           before each answer and re-calibrating when it went stale *)
        let acfg = { Adaptive.default_config with Adaptive.recal_budget } in
        match Adaptive.fccd ~config:acfg env ~fccd_config:config ~paths with
        | Error e ->
          Printf.eprintf "gbp: adaptive probe: %s\n" (Kernel.error_to_string e);
          exit_code := Gbp.exit_code_of_error e
        | Ok f ->
          let wd = Adaptive.fccd_watchdog f in
          let rec go round =
            if round < rounds && !exit_code = 0 then begin
              (match Adaptive.fccd_order env f with
              | Ok ordered ->
                Printf.printf "# gbp --adaptive round %d (health %.2f, %s, %d recalibrations):\n"
                  round (Adaptive.health wd)
                  (Adaptive.status_to_string (Adaptive.status wd))
                  (Adaptive.recalibrations wd);
                List.iter print_endline ordered
              | Error (`Kernel e) ->
                Printf.eprintf "gbp: adaptive round %d: %s\n" round
                  (Kernel.error_to_string e);
                exit_code := Gbp.exit_code_of_error e
              | Error `Stale_budget_exhausted ->
                Printf.eprintf
                  "gbp: adaptive round %d: ordering stale and re-calibration \
                   budget exhausted\n"
                  round;
                exit_code := Gbp.exit_stale);
              if round + 1 < rounds && !exit_code = 0 then
                Engine.delay 2_000_000_000;
              go (round + 1)
            end
          in
          go 0
      end
      else
        exit_code :=
          print_ordering
            ~header:("gbp --mode " ^ Gbp.mode_to_string mode)
            (Gbp.best_order_or_fallback env config ~min_confidence mode ~paths);
      if out then begin
        match paths with
        | [] -> ()
        | first :: _ -> (
          Printf.printf "# gbp --out %s extents (best probe order):\n" first;
          match
            Gbp.out env config ~path:first ~consume:(fun ~off ~len ->
                Printf.printf "  offset=%-10d length=%d\n" off len)
          with
          | Ok _ -> ()
          | Error e ->
            Printf.eprintf "gbp: --out %s: %s\n" first (Kernel.error_to_string e);
            exit_code := Gbp.exit_code_of_error e)
      end);
  let run_machine () =
    match sink with
    | None -> Kernel.run k
    | Some s -> Tele.with_sink s (fun () -> Kernel.run k)
  in
  (try run_machine () with
  | Engine.Fiber_crash (_, Crash.Crashed) ->
    (* The scheduled crash fired: restart from the durable image, run the
       FLDC repair pass, and audit the volume.  Two distinct exit codes
       let a crash-matrix CI job tell "died and recovered" (9) from
       "died and recovery failed" (10). *)
    let ok = ref true in
    Kernel.restart k;
    Kernel.spawn k (fun env ->
        match Fldc.repair env ~parent:"/d0" with
        | Ok (_ : bool) -> ()
        | Error e ->
          Printf.eprintf "gbp: repair after crash: %s\n" (Kernel.error_to_string e);
          ok := false);
    (try run_machine () with
    | Engine.Fiber_crash (_, e) ->
      Printf.eprintf "gbp: repair run died: %s\n" (Printexc.to_string e);
      ok := false);
    (match Fs.check (Kernel.volume_fs k 0) with
    | [] -> ()
    | problems ->
      List.iter (fun m -> Printf.eprintf "gbp: fsck: %s\n" m) problems;
      ok := false);
    if Kernel.live_procs k <> 0 then begin
      Printf.eprintf "gbp: %d process(es) leaked across the crash\n" (Kernel.live_procs k);
      ok := false
    end;
    Printf.eprintf "gbp: machine crashed as scheduled; %s\n"
      (if !ok then "volume recovered" else "recovery FAILED");
    exit_code := (if !ok then Gbp.exit_crash_recovered else Gbp.exit_recovery_failed));
  (match (sink, trace) with
  | Some s, Some path -> (
    try
      Gray_util.Json.save ~path (Tele.chrome_trace (Tele.chrome_events s ~pid:1 ~tid:1))
    with Sys_error msg ->
      Printf.eprintf "gbp: cannot write trace to %s: %s\n%!" path msg;
      exit_code := Gbp.exit_export_failed)
  | _ -> ());
  (* after every outcome — clean run, crash + repair, stale exhaustion —
     so the dump is the post-mortem tail of whatever actually happened *)
  (match flight_dump with
  | Some path -> (
    try
      let oc = open_out path in
      output_string oc (Gray_util.Flight.dump (Kernel.flight k));
      close_out oc
    with Sys_error msg ->
      Printf.eprintf "gbp: cannot write flight dump to %s: %s\n%!" path msg;
      exit_code := Gbp.exit_export_failed)
  | None -> ());
  (match sink with
  | Some s when metrics -> print_string (Gray_util.Json.to_string_pretty (Tele.metrics_json s))
  | _ -> ());
  !exit_code

(* ---- the host backend ------------------------------------------------- *)

(* The same pipeline against the real OS through Os_host: build the file
   population in a scratch directory under the system temp dir, warm a
   subset for real, order it through the same Gbp.Make path as the sim,
   and clean everything up on the way out — whatever happened.  Compose's
   cache/disk split is tuned to the simulator's cost model, so it reports
   host-unavailable (12) rather than pretending. *)
let run_host mode files size_mib warm out seed extra min_confidence =
  let module W = Gray_apps.Workload.Make (Os_host) in
  let module F = Fccd.Make (Os_host) in
  let module G = Gbp.Make (Os_host) in
  let rec rm_rf path =
    match (try Some (Sys.is_directory path) with Sys_error _ -> None) with
    | None -> ()
    | Some true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
    | Some false -> ( try Sys.remove path with Sys_error _ -> ())
  in
  match
    try Ok (Filename.temp_dir "gbp-host" "") with Sys_error msg -> Error msg
  with
  | Error msg ->
    Printf.eprintf "gbp: host backend unavailable: %s\n" msg;
    Gbp.exit_host_unavailable
  | Ok root -> (
    match Os_host.create ~root () with
    | Error e ->
      rm_rf root;
      Printf.eprintf "gbp: host backend unavailable: %s\n" (Kernel.error_to_string e);
      Gbp.exit_host_unavailable
    | Ok env ->
      let exit_code = ref 0 in
      Fun.protect
        ~finally:(fun () ->
          Os_host.shutdown env;
          rm_rf root)
        (fun () ->
          try
            if mode = Gbp.Compose then begin
              Printf.eprintf
                "gbp: --mode compose needs the simulator's cost model and is \
                 not available on the host backend\n";
              exit_code := Gbp.exit_host_unavailable
            end
            else begin
              let made =
                W.make_files env ~dir:"/data" ~prefix:"file" ~count:files
                  ~size:(size_mib * mib)
              in
              let paths = made @ extra in
              let warmed = warm_set ~seed ~warm made in
              List.iter (fun p -> W.read_file env p) warmed;
              Printf.printf
                "# volume: %d files x %d MB on host (timer %d ns, confidence cap %.2f); warmed: %s\n"
                files size_mib
                (Os_host.timer_resolution_ns env)
                (Os_host.timing_confidence_cap env)
                (basenames warmed);
              let config = probe_config ~seed in
              exit_code :=
                print_ordering
                  ~header:("gbp --os host --mode " ^ Gbp.mode_to_string mode)
                  (G.best_order_or_fallback env config ~min_confidence mode ~paths);
              if out then begin
                match paths with
                | [] -> ()
                | first :: _ -> (
                  match F.probe_file env config ~path:first with
                  | Error e ->
                    Printf.eprintf "gbp: --out %s: %s\n" first (Kernel.error_to_string e);
                    exit_code := Gbp.exit_code_of_error e
                  | Ok plan -> (
                    match Os_host.open_file env first with
                    | Error e ->
                      Printf.eprintf "gbp: --out %s: %s\n" first
                        (Kernel.error_to_string e);
                      exit_code := Gbp.exit_code_of_error e
                    | Ok fd ->
                      Printf.printf "# gbp --out %s extents (best probe order):\n" first;
                      F.read_plan ?policy:config.Fccd.retry env fd plan
                        ~f:(fun ~off ~len ->
                          Printf.printf "  offset=%-10d length=%d\n" off len);
                      Os_host.close env fd))
              end
            end
          with Failure msg ->
            (* a workload helper hit a permanent syscall error: report it
               like any other degraded pipeline instead of dying raw *)
            Printf.eprintf "gbp: %s\n" msg;
            exit_code := 7);
      !exit_code)

let run os mode files size_mib warm out noise seed fault_scenario crash_scenario
    extra min_confidence trace metrics drift_scenario adaptive rounds recal_budget
    flight_dump =
  match os with
  | Os_choice.Sim ->
    run_sim mode files size_mib warm out noise seed fault_scenario crash_scenario
      extra min_confidence trace metrics drift_scenario adaptive rounds recal_budget
      flight_dump
  | Os_choice.Host ->
    if
      fault_scenario <> None || crash_scenario <> None || drift_scenario <> None
      || adaptive || trace <> None || metrics || flight_dump <> None
    then
      Printf.eprintf
        "gbp: --os host ignores simulation-only options (--faults, --crash-at, \
         --drift, --adaptive, --trace, --metrics, --flight-dump)\n";
    run_host mode files size_mib warm out seed extra min_confidence

(* malformed values are usage errors (exit 124 with a pointer to --help),
   not uncaught exceptions *)
let mode_conv =
  let parse s =
    match Gbp.mode_of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg ("unknown mode: " ^ s ^ " (expected mem, file or compose)"))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Gbp.mode_to_string m))

(* A scenario flag takes exactly its GRAYBOX_* variable's grammar: the
   plane parses it and its message is the usage error.  The variable is
   the flag's default, so an explicit flag — [none] included — wins. *)
let scenario_conv of_string name =
  let parse s =
    match of_string s with
    | sc -> Ok sc
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  let print ppf sc =
    Format.pp_print_string ppf (match sc with None -> "none" | Some sc -> name sc)
  in
  Arg.conv (parse, print)

let fault_conv = scenario_conv Fault.of_string (fun sc -> sc.Fault.sc_name)
let drift_conv = scenario_conv Drift.of_string (fun sc -> sc.Drift.dr_name)

(* Counts, sizes, budgets and sigmas: a negative value is a usage error,
   not an uncaught exception deep in the pipeline. *)
let non_negative conv zero =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when v >= zero -> Ok v
    | Ok _ -> Error (`Msg ("must be non-negative: " ^ s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let count = non_negative Arg.int 0

let crash_at_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok (Some (Crash.at_syscall n))
    | Some _ -> Error (`Msg "crash boundary must be >= 1")
    | None -> Error (`Msg ("bad crash boundary: " ^ s ^ " (expected an integer >= 1)"))
  in
  let print ppf sc =
    Format.pp_print_string ppf (match sc with None -> "none" | Some sc -> sc.Crash.cs_name)
  in
  Arg.conv (parse, print)

let planes = Planes.of_env ()

let os_conv =
  let parse s =
    match Os_choice.of_string (String.lowercase_ascii (String.trim s)) with
    | Some v -> Ok v
    | None -> Error (`Msg ("unknown backend: " ^ s ^ " (expected sim or host)"))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (Os_choice.to_string v))

let os_arg =
  Arg.(
    value
    & opt os_conv (Os_choice.of_env ())
    & info [ "os" ]
        ~doc:
          "Backend: sim (the simulated volume) or host (the real operating \
           system through the hardened Unix backend; files live in a scratch \
           directory under the system temp dir and are removed afterwards).  \
           Exit code 12 means the host backend is unavailable or the requested \
           mode needs a capability it lacks.  GRAYBOX_OS is the environment \
           equivalent.")

let mode_arg =
  Arg.(value & opt mode_conv Gbp.Mem & info [ "mode"; "m" ] ~doc:"Ordering mode: mem, file or compose.")

let files_arg = Arg.(value & opt count 12 & info [ "files"; "n" ] ~doc:"Number of files.")
let size_arg = Arg.(value & opt count 4 & info [ "size" ] ~doc:"File size in MB.")
let warm_arg = Arg.(value & opt count 4 & info [ "warm" ] ~doc:"How many files to pre-warm.")
let out_arg = Arg.(value & flag & info [ "out" ] ~doc:"Also stream the first file (-out mode).")
let noise_arg =
  Arg.(value & opt (non_negative float 0.0) 0.05 & info [ "noise" ] ~doc:"Timing noise sigma.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")

let faults_arg =
  Arg.(
    value & opt fault_conv planes.faults
    & info [ "faults" ]
        ~doc:
          "Fault scenario: none, canonical, heavy, or a float intensity.  \
           Defaults to GRAYBOX_FAULTS.")

let crash_at_arg =
  Arg.(
    value & opt crash_at_conv planes.crash
    & info [ "crash-at" ] ~docv:"N"
        ~doc:
          "Crash the simulated machine at syscall boundary $(docv) (counted \
           from boot, >= 1), then restart it from the durable image and run \
           the repair pass.  Exit code 9 means the volume recovered, 10 means \
           recovery failed; a boundary past the end of the run never fires \
           and the pipeline completes normally.  Defaults to GRAYBOX_CRASH \
           (none, durable, at:N or a probability).")

let extra_arg =
  Arg.(
    value & opt_all string []
    & info [ "extra" ] ~doc:"Extra path to include in the probe set (may not exist).")

let min_confidence_arg =
  Arg.(
    value & opt float 0.0
    & info [ "min-confidence" ]
        ~doc:"Fall back to argument order below this mem-mode probe confidence.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON of the simulated run to $(docv) \
           (Perfetto-loadable); exit code 8 if the file cannot be written.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ] ~doc:"Print the run's telemetry metrics as JSON on stdout.")

let drift_arg =
  Arg.(
    value & opt drift_conv planes.drift
    & info [ "drift" ]
        ~doc:
          "Environment-drift scenario: none, quiet, canonical or heavy.  The \
           machine then changes mid-run (cache resizes, policy swaps, timer \
           coarsening, pressure regimes); combine with $(b,--adaptive) to \
           watch the ordering heal.  Defaults to GRAYBOX_DRIFT.")

let adaptive_arg =
  Arg.(
    value & flag
    & info [ "adaptive" ]
        ~doc:
          "Use the self-healing FCCD wrapper: spot-check the ranking's \
           health each round, re-calibrate when stale, and exit with code \
           11 when the re-calibration budget runs out.")

let rounds_arg =
  Arg.(
    value & opt count 1
    & info [ "rounds" ]
        ~doc:"How many adaptive ordering rounds to run (2 s of virtual time apart).")

let flight_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dump" ] ~docv:"FILE"
        ~doc:
          "Write the kernel's flight-recorder tail (recent syscalls, \
           evictions, faults, drift epochs, ICL phase transitions in \
           simulated time) to $(docv) after the run — whatever its outcome, \
           including crash recovery and stale-budget exhaustion.  Exit code \
           8 if the file cannot be written.")

let recal_budget_arg =
  Arg.(
    value & opt count 8
    & info [ "recal-budget" ]
        ~doc:"Re-calibration budget for --adaptive (0 = fail stale immediately).")

let cmd =
  Cmd.v
    (Cmd.info "gbp" ~doc:"Gray-box probe utility on a simulated volume")
    Term.(
      const run $ os_arg $ mode_arg $ files_arg $ size_arg $ warm_arg $ out_arg $ noise_arg
      $ seed_arg $ faults_arg $ crash_at_arg $ extra_arg $ min_confidence_arg
      $ trace_arg $ metrics_arg $ drift_arg $ adaptive_arg $ rounds_arg
      $ recal_budget_arg $ flight_dump_arg)

let () = exit (Cmd.eval' cmd)

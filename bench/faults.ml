(* Accuracy vs fault intensity: how gracefully the ICLs degrade as the
   observation channel gets noisier and more failure-prone.

   For each intensity (a linear scaling of the canonical scenario,
   Fault.scale), the bench measures

   - FCCD: Spearman rank correlation between the predicted file order
     (probe times) and the white-box ground truth (fraction of each file
     resident in the cache, taken BEFORE the destructive probes);
   - MAC: false-admission rate — how often gb_alloc grants more pages
     than were actually available without paging a competitor out — and
     the confidence MAC itself reports for the decision.

   Everything is seeded and every (intensity, mode, seed) trial is its
   own kernel, so the curve is deterministic at any parallelism. *)

open Simos
open Graybox_core
open Bench_common

let platform =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.05

let intensities = [ 0.0; 0.5; 1.0; 2.0 ]

(* Intensity 0 pins the quiet plane, so the curve's zero point is a clean
   run whatever plane the program installs (GRAYBOX_FAULTS). *)
let scenario ~intensity ~seed =
  if intensity <= 0.0 then Fault.quiet
  else Fault.of_intensity ~seed:(0xFA17 + seed) ~intensity ()

(* ---- FCCD: rank accuracy against the pre-probe cache truth ---- *)

let fccd_trial ~hardened ~intensity ~seed =
  let k =
    boot ~platform ~data_disks:1 ~seed ~faults:(scenario ~intensity ~seed) ()
  in
  Kernel.start_fault_daemons k;
  let rho = ref 0.0 in
  Kernel.spawn k (fun env ->
      let paths =
        Gray_apps.Workload.make_files env ~dir:"/d0/data" ~prefix:"f" ~count:8
          ~size:(2 * mib)
      in
      Kernel.flush_file_cache k;
      (* warm every other file so the truth has real structure *)
      List.iteri
        (fun i p -> if i mod 2 = 0 then Gray_apps.Workload.read_file env p)
        paths;
      let truth =
        Array.of_list
          (List.map (fun p -> 1.0 -. Introspect.cached_fraction k ~path:p) paths)
      in
      let config =
        {
          (Fccd.default_config ~seed:(seed + 7) ()) with
          Fccd.access_unit = 1 * mib;
          prediction_unit = 256 * 1024;
          (* naive = the pre-resilience prober: a transient read error is
             timed as a (fast!) sample, a transient open error aborts the
             whole ordering; hardened = retries + variance-triggered
             resampling *)
          retry = (if hardened then Some (Resilient.policy ~seed:(seed + 11) ()) else None);
          resample = (if hardened then 2 else 0);
        }
      in
      (match Fccd.order_files env config ~paths with
      | Error _ -> rho := 0.0 (* a failed probe pass predicts nothing *)
      | Ok ranked ->
        let by_path = List.map (fun r -> (r.Fccd.fr_path, r.Fccd.fr_probe_ns)) ranked in
        let probe =
          Array.of_list
            (List.map (fun p -> float_of_int (List.assoc p by_path)) paths)
        in
        rho := Gray_util.Correlate.spearman probe truth);
      Kernel.stop_faults k);
  Kernel.run k;
  !rho

(* ---- MAC: admission accuracy against an active competitor ---- *)

(* The competitor keeps re-touching its working set while MAC probes, so
   stealing its memory shows up in MAC's own verification loop (and in
   the ground truth).  A grant above what was genuinely available is a
   false admission; the mean |granted - available| is the admission
   error. *)
let mac_trial ~intensity ~seed =
  let k =
    boot ~platform ~data_disks:1 ~seed ~faults:(scenario ~intensity ~seed) ()
  in
  Kernel.start_fault_daemons k;
  let usable = Platform.usable_pages platform in
  let competitor_pages = usable * 2 / 5 in
  let granted = ref 0 and truth = ref 0 and confidence = ref 1.0 in
  Kernel.spawn k ~name:"competitor" (fun env ->
      let r = Kernel.valloc env ~pages:competitor_pages in
      for _ = 1 to 60 do
        ignore (Kernel.touch_pages env r ~first:0 ~count:competitor_pages);
        Engine.delay 50_000_000
      done;
      Kernel.vfree env r);
  Kernel.spawn k ~name:"prober" ~at:1_000_000 (fun env ->
      let truth_pages =
        Introspect.available_anon_pages k ~exclude_pid:(Kernel.pid env)
      in
      truth := truth_pages;
      let mac = { (Mac.default_config ()) with Mac.robust = true } in
      (match Mac.gb_alloc env mac ~min:(4 * mib) ~max:(48 * mib) ~multiple:mib with
      | Some a ->
        granted := Mac.pages a;
        confidence := Mac.confidence a;
        Mac.gb_free env a
      | None ->
        (* refusing admits nothing *)
        granted := 0;
        confidence := (Mac.last_stats ()).Mac.s_confidence);
      Kernel.stop_faults k);
  Kernel.run k;
  let err = float_of_int (abs (!granted - !truth)) /. float_of_int usable in
  ((if !granted > !truth then 1.0 else 0.0), err, !confidence)

let mean xs = Gray_util.Stats.mean_of (Array.of_list xs)

let plan () =
  (* 4x the figure-trial count: these trials are small and the curves
     need the samples (the seed count was fixed at 32 before the trial
     count became configurable) *)
  let seeds = trial_seeds ~base:42 (4 * trials ()) in
  let cells =
    List.map
      (fun intensity ->
        let naive_ts, naive_get =
          run_trials
            ~label:(Printf.sprintf "faults[fccd-naive,i=%.1f]" intensity)
            ~seeds
            (fun ~seed -> fccd_trial ~hardened:false ~intensity ~seed)
        in
        let hard_ts, hard_get =
          run_trials
            ~label:(Printf.sprintf "faults[fccd-hard,i=%.1f]" intensity)
            ~seeds
            (fun ~seed -> fccd_trial ~hardened:true ~intensity ~seed)
        in
        let mac_ts, mac_get =
          run_trials
            ~label:(Printf.sprintf "faults[mac,i=%.1f]" intensity)
            ~seeds
            (fun ~seed -> mac_trial ~intensity ~seed)
        in
        (intensity, naive_ts @ hard_ts @ mac_ts, fun () ->
          (naive_get (), hard_get (), mac_get ())))
      intensities
  in
  let render () =
    let b = Buffer.create 1024 in
    header b "Degradation under fault injection (seeded; canonical scenario scaled)";
    note b "FCCD: Spearman rho of predicted order vs cache ground truth";
    note b "      naive = no retry/resample, hard = retries + resampling";
    note b "MAC: admission accuracy vs an active competitor's memory";
    note b "%d seeded trials per point" (List.length seeds);
    Printf.bprintf b "  %-10s %10s %10s %14s %10s %10s\n" "intensity" "fccd-naive"
      "fccd-hard" "mac-false-adm" "mac-err" "mac-conf";
    let figures = ref [] and checks = ref [] in
    let rows =
      List.map
        (fun (intensity, _, get) ->
          let naive_rhos, hard_rhos, macs = get () in
          let raw = mean naive_rhos and hard = mean hard_rhos in
          let false_rate = mean (List.map (fun (f, _, _) -> f) macs) in
          let err = mean (List.map (fun (_, e, _) -> e) macs) in
          let conf = mean (List.map (fun (_, _, c) -> c) macs) in
          Printf.bprintf b "  %-10.2f %10.3f %10.3f %14.2f %10.3f %10.3f\n" intensity raw
            hard false_rate err conf;
          figures :=
            figure (Printf.sprintf "mac_false_adm[i=%.1f]" intensity) false_rate
            :: figure (Printf.sprintf "fccd_rho_hard[i=%.1f]" intensity) hard
            :: figure (Printf.sprintf "fccd_rho_naive[i=%.1f]" intensity) raw
            :: !figures;
          (intensity, raw, hard))
        cells
    in
    (* the hardened prober must not lose to the naive one where it matters:
       at the canonical intensity and above *)
    List.iter
      (fun (intensity, raw, hard) ->
        if intensity >= 1.0 then
          checks :=
            check
              (Printf.sprintf "hardened FCCD >= naive at intensity %.1f" intensity)
              (hard >= raw)
            :: !checks)
      rows;
    { rd_output = Buffer.contents b; rd_figures = List.rev !figures; rd_checks = List.rev !checks }
  in
  { p_tasks = List.concat_map (fun (_, ts, _) -> ts) cells; p_render = render }

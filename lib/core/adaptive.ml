open Gray_util

type config = {
  alpha : float;
  stale_threshold : float;
  warmup : int;
  recal_budget : int;
  prior_weight : float;
}

let default_config =
  {
    alpha = 0.6;
    stale_threshold = 0.6;
    warmup = 1;
    recal_budget = 8;
    prior_weight = 0.3;
  }

let validate_config c =
  let bad field fmt =
    Printf.ksprintf
      (fun msg -> invalid_arg (Printf.sprintf "Adaptive: %s %s" field msg))
      fmt
  in
  if not (c.alpha > 0.0 && c.alpha <= 1.0) then
    bad "alpha" "must be in (0, 1] (got %g)" c.alpha;
  if not (c.stale_threshold >= 0.0 && c.stale_threshold <= 1.0) then
    bad "stale_threshold" "must be in [0, 1] (got %g)" c.stale_threshold;
  if c.warmup < 0 then bad "warmup" "must be >= 0 (got %d)" c.warmup;
  if c.recal_budget < 0 then
    bad "recal_budget" "must be >= 0 (got %d)" c.recal_budget;
  if not (c.prior_weight >= 0.0 && c.prior_weight <= 1.0) then
    bad "prior_weight" "must be in [0, 1] (got %g)" c.prior_weight

type status = Fresh | Stale | Exhausted

let status_to_string = function
  | Fresh -> "fresh"
  | Stale -> "stale"
  | Exhausted -> "exhausted"

type watchdog = {
  w_config : config;
  w_name : string;
  mutable w_ema : Correlate.ema;
  mutable w_samples : int;
  mutable w_status : status;
  mutable w_recals : int;
  mutable w_stale_since : int option;
  mutable w_stale_ns : int;
}

let watchdog ?(config = default_config) name =
  validate_config config;
  {
    w_config = config;
    w_name = name;
    w_ema = Correlate.ema_create ~alpha:config.alpha;
    w_samples = 0;
    w_status = Fresh;
    w_recals = 0;
    w_stale_since = None;
    w_stale_ns = 0;
  }

let status w = w.w_status
let health w = Option.value (Correlate.ema_value w.w_ema) ~default:1.0
let samples w = w.w_samples
let recalibrations w = w.w_recals
let stale_ns w = w.w_stale_ns

(* Close an open stale interval into the running total; the metric counts
   virtual nanoseconds the ICL ran on a calibration it knew was bad. *)
let mark_fresh w ~now_ns =
  (match w.w_stale_since with
  | Some t0 ->
    let d = max 0 (now_ns - t0) in
    w.w_stale_ns <- w.w_stale_ns + d;
    if d > 0 then Telemetry.add ~n:d "adaptive.stale_ns"
  | None -> ());
  w.w_stale_since <- None;
  w.w_status <- Fresh

let observe w ~now_ns h =
  let v = Correlate.ema_add w.w_ema h in
  w.w_samples <- w.w_samples + 1;
  match w.w_status with
  | Exhausted -> ()
  | Fresh ->
    if w.w_samples > w.w_config.warmup && v < w.w_config.stale_threshold
    then begin
      w.w_status <- Stale;
      w.w_stale_since <- Some now_ns;
      Telemetry.event "core.adaptive.stale" ~attrs:(fun () ->
          [ ("icl", Telemetry.String w.w_name); ("health", Telemetry.Float v) ])
    end
  | Stale -> if v >= w.w_config.stale_threshold then mark_fresh w ~now_ns

let begin_recalibration w =
  match w.w_status with
  | Exhausted -> false
  | Fresh | Stale ->
    if w.w_recals >= w.w_config.recal_budget then begin
      w.w_status <- Exhausted;
      Telemetry.event "core.adaptive.exhausted" ~attrs:(fun () ->
          [
            ("icl", Telemetry.String w.w_name);
            ("budget", Telemetry.Int w.w_config.recal_budget);
          ]);
      false
    end
    else begin
      w.w_recals <- w.w_recals + 1;
      Telemetry.add "adaptive.recalibrations";
      true
    end

let end_recalibration w ~now_ns ~health =
  w.w_ema <- Correlate.ema_create ~alpha:w.w_config.alpha;
  ignore (Correlate.ema_add w.w_ema health);
  w.w_samples <- 1;
  mark_fresh w ~now_ns

module Make (Os : Os_intf.S) = struct
  module M = Mac.Make (Os)
  module F = Fccd.Make (Os)

  (* Flight-recorder phase marks ([a] = watchdog id: 0 = mac, 1 = fccd).
     Recorded in the wrappers rather than the watchdog because only they
     hold a backend env; a return to [Fresh] — whether by recalibration or
     by the health recovering on its own — reads as [Recalibrated]. *)
  let phase_mark env w ~icl ~before =
    if w.w_status <> before then
      let code =
        match w.w_status with
        | Stale -> Flight.Stale
        | Fresh -> Flight.Recalibrated
        | Exhausted -> Flight.Exhausted
      in
      Flight.record (Os.flight env) ~ts:(Os.gettime env) ~code ~pid:(Os.pid env)
        ~a:icl ~b:0

  (* ---- MAC wrapper ---- *)

  type mac = {
    m_wd : watchdog;
    m_config : Mac.config;
    mutable m_threshold_ns : int;
    m_check_pages : int;
  }

  let mac ?(config = default_config) env ~mac_config =
    let threshold =
      match mac_config.Mac.slow_threshold_ns with
      | Some t -> t
      | None -> M.calibrate_threshold mac_config env
    in
    {
      m_wd = watchdog ~config "mac";
      m_config = mac_config;
      m_threshold_ns = threshold;
      m_check_pages = 16;
    }

  let mac_threshold_ns m = m.m_threshold_ns
  let mac_watchdog m = m.m_wd

  (* Health of the threshold itself: re-touch a small certainly-resident
     region and ask what fraction the current threshold calls fast.  On the
     calibrated machine that is ~1; after a timer coarsening every sample
     quantises to at least the new resolution and a stale threshold calls
     them all paging.  A backend that cannot even reserve the check region
     scores 0 — maximum ill health, which drives the ordinary
     Stale → recalibrate → Exhausted degradation instead of a crash. *)
  let mac_spot_health env m =
    match Os.valloc env ~pages:m.m_check_pages with
    | Error _ -> 0.0
    | Ok r ->
      ignore (Os.touch_pages env r ~first:0 ~count:m.m_check_pages);
      let again = Os.touch_pages env r ~first:0 ~count:m.m_check_pages in
      Os.vfree env r;
      let fast =
        Array.fold_left
          (fun acc t -> if t <= m.m_threshold_ns then acc + 1 else acc)
          0 again
      in
      float_of_int fast /. float_of_int m.m_check_pages

  let mac_recalibrate env m =
    Telemetry.span "core.adaptive.recalibrate"
      ~attrs:(fun () -> [ ("icl", Telemetry.String "mac") ])
      (fun () ->
        let fresh = M.calibrate_threshold m.m_config env in
        let w = m.m_wd.w_config.prior_weight in
        m.m_threshold_ns <-
          max 1_000
            (int_of_float
               ((w *. float_of_int m.m_threshold_ns)
               +. ((1.0 -. w) *. float_of_int fresh))))

  let rec mac_alloc env m ~min ~max ~multiple =
    let before = m.m_wd.w_status in
    let h = mac_spot_health env m in
    observe m.m_wd ~now_ns:(Os.gettime env) h;
    phase_mark env m.m_wd ~icl:0 ~before;
    match m.m_wd.w_status with
    | Exhausted -> Error `Stale_budget_exhausted
    | Stale ->
      if begin_recalibration m.m_wd then begin
        mac_recalibrate env m;
        let h' = mac_spot_health env m in
        end_recalibration m.m_wd ~now_ns:(Os.gettime env) ~health:h';
        phase_mark env m.m_wd ~icl:0 ~before:Stale;
        mac_alloc env m ~min ~max ~multiple
      end
      else begin
        phase_mark env m.m_wd ~icl:0 ~before:Stale;
        Error `Stale_budget_exhausted
      end
    | Fresh ->
      let cfg = { m.m_config with Mac.slow_threshold_ns = Some m.m_threshold_ns } in
      Ok (M.gb_alloc env cfg ~min ~max ~multiple)

  (* ---- FCCD wrapper ---- *)

  type fccd = {
    f_wd : watchdog;
    f_config : Fccd.config;
    f_paths : string array;
    f_est : float array;  (* probe-ns estimate, indexed like f_paths *)
    mutable f_round : int;
    f_spot : int;
  }

  let rank_ns ranked path =
    let fr = List.find (fun fr -> fr.Fccd.fr_path = path) ranked in
    float_of_int fr.Fccd.fr_probe_ns

  let fccd ?(config = default_config) env ~fccd_config ~paths =
    match F.order_files env fccd_config ~paths with
    | Error e -> Error e
    | Ok ranked ->
      let arr = Array.of_list paths in
      Ok
        {
          f_wd = watchdog ~config "fccd";
          f_config = fccd_config;
          f_paths = arr;
          f_est = Array.map (rank_ns ranked) arr;
          f_round = 0;
          f_spot = min 3 (Array.length arr);
        }

  let fccd_watchdog f = f.f_wd

  let fccd_estimates f =
    Array.to_list (Array.mapi (fun i p -> (p, f.f_est.(i))) f.f_paths)

  (* Predicted fastest-first; ties broken by path so the order is total. *)
  let fccd_current_order f =
    let idx = Array.init (Array.length f.f_paths) Fun.id in
    Array.sort
      (fun a b ->
        match Float.compare f.f_est.(a) f.f_est.(b) with
        | 0 -> String.compare f.f_paths.(a) f.f_paths.(b)
        | c -> c)
      idx;
    Array.to_list (Array.map (fun i -> f.f_paths.(i)) idx)

  let blend w prior fresh = (w *. prior) +. ((1.0 -. w) *. fresh)

  let fccd_full_reprobe env f =
    Telemetry.span "core.adaptive.recalibrate"
      ~attrs:(fun () -> [ ("icl", Telemetry.String "fccd") ])
      (fun () ->
        match F.order_files env f.f_config ~paths:(Array.to_list f.f_paths) with
        | Error e -> Error (`Kernel e)
        | Ok ranked ->
          let w = f.f_wd.w_config.prior_weight in
          Array.iteri
            (fun i p -> f.f_est.(i) <- blend w f.f_est.(i) (rank_ns ranked p))
            f.f_paths;
          Ok ())

  let fccd_order env f =
    let n = Array.length f.f_paths in
    if n = 0 then Ok []
    else begin
      let k = max 1 (min f.f_spot n) in
      let idxs = Array.init k (fun i -> ((f.f_round * k) + i) mod n) in
      f.f_round <- f.f_round + 1;
      let spot_paths = Array.to_list (Array.map (fun i -> f.f_paths.(i)) idxs) in
      match F.order_files env f.f_config ~paths:spot_paths with
      | Error e -> Error (`Kernel e)
      | Ok ranked ->
        let fresh = Array.map (fun i -> rank_ns ranked f.f_paths.(i)) idxs in
        (* health = pairwise rank concordance of stored estimates vs the
           fresh spot probes; a reshuffled cache flips the signs *)
        let pairs = ref 0 and agree = ref 0 in
        for a = 0 to k - 1 do
          for b = a + 1 to k - 1 do
            incr pairs;
            let d_est = f.f_est.(idxs.(a)) -. f.f_est.(idxs.(b)) in
            let d_new = fresh.(a) -. fresh.(b) in
            if d_est *. d_new >= 0.0 then incr agree
          done
        done;
        let h =
          if !pairs = 0 then 1.0 else float_of_int !agree /. float_of_int !pairs
        in
        let before = f.f_wd.w_status in
        observe f.f_wd ~now_ns:(Os.gettime env) h;
        phase_mark env f.f_wd ~icl:1 ~before;
        (* incremental adaptation: spot results always flow into the
           estimates, prior kept at prior_weight *)
        let w = f.f_wd.w_config.prior_weight in
        Array.iteri
          (fun a i -> f.f_est.(i) <- blend w f.f_est.(i) fresh.(a))
          idxs;
        match f.f_wd.w_status with
        | Exhausted -> Error `Stale_budget_exhausted
        | Stale ->
          if begin_recalibration f.f_wd then begin
            match fccd_full_reprobe env f with
            | Error e -> Error e
            | Ok () ->
              end_recalibration f.f_wd ~now_ns:(Os.gettime env) ~health:1.0;
              phase_mark env f.f_wd ~icl:1 ~before:Stale;
              Ok (fccd_current_order f)
          end
          else begin
            phase_mark env f.f_wd ~icl:1 ~before:Stale;
            Error `Stale_budget_exhausted
          end
        | Fresh -> Ok (fccd_current_order f)
    end
end

include Make (Os_sim)

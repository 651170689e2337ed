type target = Open | Read | Write | Stat | Create | Unlink | Rename | Mkdir

type burst = { bu_period_ns : int; bu_duration_ns : int; bu_extra_ns : int }

type disturbance = {
  di_period_ns : int;
  di_evict_frac : float;
  di_horizon_ns : int;
}

type pressure = {
  pr_pages : int;
  pr_hold_ns : int;
  pr_gap_ns : int;
  pr_horizon_ns : int;
}

type scenario = {
  sc_name : string;
  sc_seed : int;
  sc_error_prob : float;
  sc_error_targets : target list;
  sc_burst : burst option;
  sc_spike_prob : float;
  sc_spike_ns : int;
  sc_timer_factor : int;
  sc_timer_jitter_ns : int;
  sc_disturb : disturbance option;
  sc_pressure : pressure option;
}

let quiet =
  {
    sc_name = "quiet";
    sc_seed = 0;
    sc_error_prob = 0.0;
    sc_error_targets = [];
    sc_burst = None;
    sc_spike_prob = 0.0;
    sc_spike_ns = 0;
    sc_timer_factor = 1;
    sc_timer_jitter_ns = 0;
    sc_disturb = None;
    sc_pressure = None;
  }

let sec = 1_000_000_000

let canonical =
  {
    sc_name = "canonical";
    sc_seed = 0xFA17;
    sc_error_prob = 0.02;
    sc_error_targets = [ Open; Read; Write; Stat ];
    sc_burst =
      Some { bu_period_ns = 250_000_000; bu_duration_ns = 25_000_000; bu_extra_ns = 2_000_000 };
    sc_spike_prob = 0.01;
    sc_spike_ns = 5_000_000;
    sc_timer_factor = 4;
    sc_timer_jitter_ns = 200;
    sc_disturb =
      Some { di_period_ns = 100_000_000; di_evict_frac = 0.02; di_horizon_ns = 30 * sec };
    sc_pressure =
      Some
        {
          pr_pages = 2048;
          pr_hold_ns = 200_000_000;
          pr_gap_ns = 400_000_000;
          pr_horizon_ns = 30 * sec;
        };
  }

(* Linear scaling keeps the degradation curves of bench/faults.ml smooth:
   probabilities, magnitudes and daemon appetites all grow with intensity,
   while periods/horizons stay fixed so time structure is comparable. *)
let scale sc ~intensity =
  if intensity < 0.0 then invalid_arg "Fault.scale: negative intensity";
  let i = intensity in
  let f x = x *. i in
  let n x = int_of_float (float_of_int x *. i) in
  {
    sc with
    sc_name = Printf.sprintf "%s@%.2f" sc.sc_name i;
    sc_error_prob = Float.min 1.0 (f sc.sc_error_prob);
    sc_burst =
      Option.map (fun b -> { b with bu_extra_ns = n b.bu_extra_ns }) sc.sc_burst;
    sc_spike_prob = Float.min 1.0 (f sc.sc_spike_prob);
    sc_spike_ns = n sc.sc_spike_ns;
    sc_timer_factor = max 1 (1 + n (sc.sc_timer_factor - 1));
    sc_timer_jitter_ns = n sc.sc_timer_jitter_ns;
    sc_disturb =
      Option.map
        (fun d -> { d with di_evict_frac = Float.min 1.0 (f d.di_evict_frac) })
        sc.sc_disturb;
    sc_pressure = Option.map (fun p -> { p with pr_pages = n p.pr_pages }) sc.sc_pressure;
  }

let heavy = { (scale canonical ~intensity:2.0) with sc_name = "heavy" }

let of_intensity ?seed ~intensity () =
  let sc = scale canonical ~intensity in
  match seed with None -> sc | Some s -> { sc with sc_seed = s }

let expected_grammar = "none, canonical, heavy or a non-negative intensity"

let parse_token token =
  match token with
  | "none" -> Gray_util.Env.Value None
  | "canonical" -> Value (Some canonical)
  | "heavy" -> Value (Some heavy)
  | s -> (
    match float_of_string_opt s with
    | Some i when i >= 0.0 -> Value (Some (of_intensity ~intensity:i ()))
    | _ -> Invalid)

let of_string =
  Gray_util.Env.decode ~var:"GRAYBOX_FAULTS" ~expected:expected_grammar
    ~on_invalid:`Raise ~default:None parse_token

type mutable_stats = {
  mutable m_errors : int;
  mutable m_spikes : int;
  mutable m_burst_hits : int;
  mutable m_evictions : int;
  mutable m_pressure_waves : int;
}

type t = {
  f_scenario : scenario;
  f_rng : Gray_util.Rng.t;
  mutable f_stopped : bool;
  f_stats : mutable_stats;
}

(* Reject malformed scenarios at install time, naming the offending
   field.  A negative probability or a zero period (used as a modulus)
   would otherwise surface as silently wrong arithmetic deep inside a
   run, or a Division_by_zero with no hint of which field caused it. *)
let validate sc =
  let bad field fmt =
    Printf.ksprintf
      (fun msg -> invalid_arg (Printf.sprintf "Fault: %s %s" field msg))
      fmt
  in
  let prob field p =
    if not (p >= 0.0 && p <= 1.0) then bad field "must be in [0, 1] (got %g)" p
  in
  let non_neg field n = if n < 0 then bad field "must be >= 0 (got %d)" n in
  let period field n = if n < 1 then bad field "must be >= 1 ns (got %d)" n in
  prob "sc_error_prob" sc.sc_error_prob;
  prob "sc_spike_prob" sc.sc_spike_prob;
  non_neg "sc_spike_ns" sc.sc_spike_ns;
  if sc.sc_timer_factor < 1 then
    bad "sc_timer_factor" "must be >= 1 (got %d)" sc.sc_timer_factor;
  non_neg "sc_timer_jitter_ns" sc.sc_timer_jitter_ns;
  Option.iter
    (fun b ->
      period "sc_burst.bu_period_ns" b.bu_period_ns;
      non_neg "sc_burst.bu_duration_ns" b.bu_duration_ns;
      non_neg "sc_burst.bu_extra_ns" b.bu_extra_ns)
    sc.sc_burst;
  Option.iter
    (fun d ->
      period "sc_disturb.di_period_ns" d.di_period_ns;
      prob "sc_disturb.di_evict_frac" d.di_evict_frac;
      non_neg "sc_disturb.di_horizon_ns" d.di_horizon_ns)
    sc.sc_disturb;
  Option.iter
    (fun p ->
      non_neg "sc_pressure.pr_pages" p.pr_pages;
      non_neg "sc_pressure.pr_hold_ns" p.pr_hold_ns;
      non_neg "sc_pressure.pr_gap_ns" p.pr_gap_ns;
      non_neg "sc_pressure.pr_horizon_ns" p.pr_horizon_ns)
    sc.sc_pressure

let create sc =
  validate sc;
  {
    f_scenario = sc;
    f_rng = Gray_util.Rng.create ~seed:sc.sc_seed;
    f_stopped = false;
    f_stats =
      { m_errors = 0; m_spikes = 0; m_burst_hits = 0; m_evictions = 0; m_pressure_waves = 0 };
  }

let scenario t = t.f_scenario
let stop t = t.f_stopped <- true
let stopped t = t.f_stopped
let rng t = t.f_rng

type stats = {
  f_errors : int;
  f_spikes : int;
  f_burst_hits : int;
  f_evictions : int;
  f_pressure_waves : int;
}

let stats t =
  {
    f_errors = t.f_stats.m_errors;
    f_spikes = t.f_stats.m_spikes;
    f_burst_hits = t.f_stats.m_burst_hits;
    f_evictions = t.f_stats.m_evictions;
    f_pressure_waves = t.f_stats.m_pressure_waves;
  }

let inject_error t target =
  let sc = t.f_scenario in
  if sc.sc_error_prob <= 0.0 || not (List.mem target sc.sc_error_targets) then false
  else begin
    let hit = Gray_util.Rng.float t.f_rng 1.0 < sc.sc_error_prob in
    if hit then t.f_stats.m_errors <- t.f_stats.m_errors + 1;
    hit
  end

let extra_latency t ~now =
  let sc = t.f_scenario in
  let burst =
    match sc.sc_burst with
    | Some b when b.bu_extra_ns > 0 && now mod b.bu_period_ns < b.bu_duration_ns ->
      t.f_stats.m_burst_hits <- t.f_stats.m_burst_hits + 1;
      b.bu_extra_ns
    | _ -> 0
  in
  let spike =
    if sc.sc_spike_prob > 0.0 && sc.sc_spike_ns > 0
       && Gray_util.Rng.float t.f_rng 1.0 < sc.sc_spike_prob
    then begin
      t.f_stats.m_spikes <- t.f_stats.m_spikes + 1;
      sc.sc_spike_ns
    end
    else 0
  in
  burst + spike

let timer_resolution t ~base = base * max 1 t.f_scenario.sc_timer_factor

let timer_jitter t =
  let j = t.f_scenario.sc_timer_jitter_ns in
  if j <= 0 then 0 else Gray_util.Rng.int t.f_rng (j + 1)

let note_evictions t n = t.f_stats.m_evictions <- t.f_stats.m_evictions + n
let note_pressure_wave t = t.f_stats.m_pressure_waves <- t.f_stats.m_pressure_waves + 1

(* Deterministic mid-run environment drift.  A scenario is an explicit,
   validated schedule of machine mutations; the kernel's drift daemon
   replays it against the virtual clock.  With no scenario installed the
   kernel takes zero extra work and zero extra RNG draws — the same
   byte-identity contract as the fault and crash planes. *)

type kind =
  | Cache_resize of float
  | Policy_swap of string
  | Timer_scale of int
  | Pressure_level of float

type event = { dv_at_ns : int; dv_kind : kind }

type scenario = {
  dr_name : string;
  dr_seed : int;
  dr_retouch_ns : int;
  dr_horizon_ns : int;
  dr_events : event list;
}

let kind_to_string = function
  | Cache_resize f -> Printf.sprintf "cache_resize(x%.2f)" f
  | Policy_swap name -> Printf.sprintf "policy_swap(%s)" name
  | Timer_scale n -> Printf.sprintf "timer_scale(x%d)" n
  | Pressure_level f -> Printf.sprintf "pressure_level(%.2f)" f

let sec = 1_000_000_000
let ms = 1_000_000

let quiet =
  {
    dr_name = "quiet";
    dr_seed = 0;
    dr_retouch_ns = 100 * ms;
    dr_horizon_ns = 0;
    dr_events = [];
  }

(* The reference drifting machine.  The timer event is the sharp one: the
   platform clock is 100 ns, so x1000 turns it into a 100 us jiffy — every
   resident re-touch then reads >= 100 us, above the ~90 us threshold a
   boot-time MAC calibration derived (10x the ~9 us zero-fill page cost),
   so a frozen classifier suddenly sees every fast page as a page-in. *)
let canonical =
  {
    dr_name = "canonical";
    dr_seed = 1;
    dr_retouch_ns = 100 * ms;
    dr_horizon_ns = 30 * sec;
    dr_events =
      [
        { dv_at_ns = 4 * sec; dv_kind = Cache_resize 0.5 };
        { dv_at_ns = 8 * sec; dv_kind = Policy_swap "fifo" };
        { dv_at_ns = 12 * sec; dv_kind = Timer_scale 1000 };
        { dv_at_ns = 16 * sec; dv_kind = Pressure_level 0.35 };
        { dv_at_ns = 20 * sec; dv_kind = Cache_resize 1.6 };
        { dv_at_ns = 24 * sec; dv_kind = Pressure_level 0.0 };
      ];
  }

let heavy =
  {
    dr_name = "heavy";
    dr_seed = 2;
    dr_retouch_ns = 100 * ms;
    dr_horizon_ns = 30 * sec;
    dr_events =
      [
        { dv_at_ns = 3 * sec; dv_kind = Cache_resize 0.25 };
        { dv_at_ns = 6 * sec; dv_kind = Policy_swap "mru-sticky" };
        { dv_at_ns = 9 * sec; dv_kind = Timer_scale 2000 };
        { dv_at_ns = 12 * sec; dv_kind = Pressure_level 0.6 };
        { dv_at_ns = 16 * sec; dv_kind = Policy_swap "clock" };
        { dv_at_ns = 20 * sec; dv_kind = Cache_resize 3.0 };
        { dv_at_ns = 24 * sec; dv_kind = Pressure_level 0.2 };
      ];
  }

let bad field fmt =
  Printf.ksprintf (fun msg -> invalid_arg (Printf.sprintf "Drift: %s %s" field msg)) fmt

let validate sc =
  if sc.dr_retouch_ns < 1 then
    bad "dr_retouch_ns" "must be >= 1 ns (got %d)" sc.dr_retouch_ns;
  if sc.dr_horizon_ns < 0 then
    bad "dr_horizon_ns" "must be >= 0 (got %d)" sc.dr_horizon_ns;
  let prev = ref 0 in
  List.iteri
    (fun i ev ->
      let field what = Printf.sprintf "dr_events[%d].%s" i what in
      if ev.dv_at_ns <= !prev then
        bad (field "dv_at_ns")
          "must be strictly increasing and positive (got %d after %d)"
          ev.dv_at_ns !prev;
      if ev.dv_at_ns > sc.dr_horizon_ns then
        bad (field "dv_at_ns") "is past the horizon (%d > %d)" ev.dv_at_ns
          sc.dr_horizon_ns;
      prev := ev.dv_at_ns;
      match ev.dv_kind with
      | Cache_resize f ->
        if not (f > 0.0) then
          bad (field "Cache_resize") "factor must be > 0 (got %g)" f
      | Policy_swap name ->
        if not (List.mem name Replacement.all_names) then
          bad (field "Policy_swap") "unknown policy %S (expected one of: %s)"
            name
            (String.concat ", " Replacement.all_names)
      | Timer_scale n ->
        if n < 1 then bad (field "Timer_scale") "factor must be >= 1 (got %d)" n
      | Pressure_level f ->
        if not (f >= 0.0 && f <= 1.0) then
          bad (field "Pressure_level") "must be in [0, 1] (got %g)" f)
    sc.dr_events

let expected_grammar = "none, quiet, canonical or heavy"

let parse_token token =
  match token with
  | "none" -> Gray_util.Env.Value None
  | "quiet" -> Value (Some quiet)
  | "canonical" -> Value (Some canonical)
  | "heavy" -> Value (Some heavy)
  | _ -> Invalid

let of_string =
  Gray_util.Env.decode ~var:"GRAYBOX_DRIFT" ~expected:expected_grammar
    ~on_invalid:`Raise ~default:None parse_token

let max_pressure_frac sc =
  List.fold_left
    (fun acc ev ->
      match ev.dv_kind with Pressure_level f -> Float.max acc f | _ -> acc)
    0.0 sc.dr_events

(* ---- runtime plane ---- *)

type stats = {
  d_events : int;
  d_resizes : int;
  d_swaps : int;
  d_timer_changes : int;
  d_pressure_shifts : int;
  d_evictions : int;
}

type t = {
  t_scenario : scenario;
  mutable t_stopped : bool;
  mutable t_timer_factor : int;
  mutable t_pressure : float;
  mutable t_events : int;
  mutable t_resizes : int;
  mutable t_swaps : int;
  mutable t_timer_changes : int;
  mutable t_pressure_shifts : int;
  mutable t_evictions : int;
}

let create sc =
  validate sc;
  {
    t_scenario = sc;
    t_stopped = false;
    t_timer_factor = 1;
    t_pressure = 0.0;
    t_events = 0;
    t_resizes = 0;
    t_swaps = 0;
    t_timer_changes = 0;
    t_pressure_shifts = 0;
    t_evictions = 0;
  }

let scenario t = t.t_scenario
let stop t = t.t_stopped <- true
let stopped t = t.t_stopped
let timer_factor t = t.t_timer_factor
let set_timer_factor t n = t.t_timer_factor <- max 1 n
let pressure_level t = t.t_pressure
let set_pressure_level t f = t.t_pressure <- f

let note_applied t kind =
  t.t_events <- t.t_events + 1;
  match kind with
  | Cache_resize _ -> t.t_resizes <- t.t_resizes + 1
  | Policy_swap _ -> t.t_swaps <- t.t_swaps + 1
  | Timer_scale _ -> t.t_timer_changes <- t.t_timer_changes + 1
  | Pressure_level _ -> t.t_pressure_shifts <- t.t_pressure_shifts + 1

let note_evictions t n = t.t_evictions <- t.t_evictions + n

(* Whole-machine restart: the daemon holding the current regime died with
   the crash, so its machine-visible mutations lapse — the clock returns
   to the platform resolution and the pressure level reads zero.  The
   schedule, the stop flag and the applied-event counters are experiment
   state and survive (restart-audit fix: the timer regime used to leak
   through reboots a dead daemon could never have sustained). *)
let note_restart t =
  t.t_timer_factor <- 1;
  t.t_pressure <- 0.0

let stats t =
  {
    d_events = t.t_events;
    d_resizes = t.t_resizes;
    d_swaps = t.t_swaps;
    d_timer_changes = t.t_timer_changes;
    d_pressure_shifts = t.t_pressure_shifts;
    d_evictions = t.t_evictions;
  }

(** Self-healing wrappers for gray-box ICLs under environment drift.

    An ICL's calibration (a MAC slow threshold, an FCCD probe-time
    ranking) encodes assumptions about the machine it was taken on.  The
    drift plane ({!Simos.Drift}) changes the machine mid-run; a frozen
    ICL then keeps producing confident-looking answers that are silently
    wrong.  This module adds the missing feedback loop:

    - a {!watchdog} turns per-use {e health} samples (cheap spot checks
      of the ICL's own assumptions, in [0, 1]) into an EMA and flags
      {e staleness} when the smoothed health collapses;
    - staleness triggers {e incremental re-calibration}: the fresh
      measurement is blended with the prior estimate ([prior_weight]),
      not a cold restart, so one noisy re-probe cannot wipe out a good
      calibration;
    - re-calibrations draw on a bounded budget ({!Resilient}-style): in a
      permanently hostile environment the wrapper degrades into the
      distinct {!status} [Exhausted] / [`Stale_budget_exhausted] error
      instead of thrashing forever.

    Everything here runs on the gray-box side of the wall — health checks
    use the same timing channels the ICLs themselves use, never kernel
    introspection.  The wrappers are functorized over the backend: a host
    capability failure (e.g. a refused [valloc]) reads as health 0 and
    flows through the same staleness machinery as drift does. *)

type config = {
  alpha : float;  (** EMA weight of the newest health sample *)
  stale_threshold : float;
      (** smoothed health below this flags staleness *)
  warmup : int;
      (** staleness detection starts after this many samples *)
  recal_budget : int;  (** lifetime re-calibration allowance *)
  prior_weight : float;
      (** weight of the prior estimate when blending in a fresh
          measurement; [0] = cold restart, [1] = never move *)
}

val default_config : config
(** [alpha = 0.6], [stale_threshold = 0.6], [warmup = 1],
    [recal_budget = 8], [prior_weight = 0.3]. *)

type status = Fresh | Stale | Exhausted

val status_to_string : status -> string

(** {1 Watchdog core}

    Backend-independent: the watchdog consumes health samples and
    timestamps, never an env. *)

type watchdog

val watchdog : ?config:config -> string -> watchdog
(** [watchdog name] — the name tags telemetry events.  Raises
    [Invalid_argument] on a malformed config (alpha or threshold or
    prior_weight outside their ranges, negative warmup or budget). *)

val observe : watchdog -> now_ns:int -> float -> unit
(** Feed one health sample in [0, 1].  After [warmup] samples, the
    smoothed value dropping below [stale_threshold] moves the watchdog to
    [Stale] (emitting a [core.adaptive.stale] event); rising back above
    it recovers to [Fresh] and accounts the stale interval into
    {!stale_ns} (and the [adaptive.stale_ns] metric). *)

val begin_recalibration : watchdog -> bool
(** Claim one unit of the re-calibration budget.  [true] = proceed (the
    [adaptive.recalibrations] metric is bumped); [false] = the budget is
    exhausted and the watchdog is now permanently [Exhausted]. *)

val end_recalibration : watchdog -> now_ns:int -> health:float -> unit
(** Finish a re-calibration: the EMA restarts seeded with [health], the
    status returns to [Fresh], and any open stale interval is closed
    into {!stale_ns}. *)

val status : watchdog -> status
val health : watchdog -> float
(** Current smoothed health (1.0 before any sample). *)

val samples : watchdog -> int
val recalibrations : watchdog -> int
val stale_ns : watchdog -> int
(** Total virtual time spent in [Stale] (closed intervals only). *)

(** {1 The wrappers, over any backend} *)

module Make (Os : Os_intf.S) : sig
  (** {2 MAC wrapper}

      Wraps [gb_alloc] with a frozen-then-healed slow threshold.  The
      health probe re-touches a small resident region and measures the
      fraction classified fast by the current threshold — on an undrifted
      machine that is ~1.0; after a timer-resolution drift every touch
      quantises above a stale threshold and it collapses to 0.  A backend
      that refuses the check region's [valloc] also scores 0, so host
      capability loss degrades exactly like drift. *)

  type mac

  val mac : ?config:config -> Os.env -> mac_config:Mac.config -> mac
  (** Calibrate once ({!Mac.Make.calibrate_threshold}, unless the config
      pins [slow_threshold_ns]) and wrap the result. *)

  val mac_threshold_ns : mac -> int
  (** The threshold currently in force (moves on re-calibration). *)

  val mac_watchdog : mac -> watchdog

  val mac_alloc :
    Os.env ->
    mac ->
    min:int ->
    max:int ->
    multiple:int ->
    (Mac.Make(Os).allocation option, [ `Stale_budget_exhausted ]) result
  (** [gb_alloc] behind the watchdog: spot-check health first; when
      stale, re-calibrate (fresh threshold blended with the prior at
      [prior_weight]) and retry, spending budget each time; [Error] once
      the budget is gone. *)

  (** {2 FCCD wrapper}

      Maintains a per-file probe-time estimate and re-orders files by it.
      Each ordering request spot-probes a small rotating subset; health is
      the pairwise rank concordance between the stored estimates and the
      fresh probes.  Spot results are always blended into the estimates
      (incremental adaptation); staleness triggers a full re-probe. *)

  type fccd

  val fccd :
    ?config:config ->
    Os.env ->
    fccd_config:Fccd.config ->
    paths:string list ->
    (fccd, Simos.Kernel.error) result
  (** Full initial probe to seed the estimates. *)

  val fccd_watchdog : fccd -> watchdog

  val fccd_estimates : fccd -> (string * float) list
  (** Current per-file probe-time estimates (for inspection/tests). *)

  val fccd_order :
    Os.env ->
    fccd ->
    (string list,
     [ `Kernel of Simos.Kernel.error | `Stale_budget_exhausted ])
    result
  (** Paths in predicted fastest-first order after the spot check (and any
      re-calibration it triggered). *)
end

(** {1 The simulated-backend instance (the historical flat API)} *)

include module type of struct include Make (Os_sim) end

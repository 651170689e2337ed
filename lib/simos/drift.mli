(** Deterministic mid-run environment drift for the simulated OS.

    The fault plane ({!Fault}) models a {e noisy} observation channel; this
    plane models a {e changing} machine.  A {!scenario} is a seeded,
    explicit schedule of environment mutations — the page cache grows or
    shrinks, the replacement policy is swapped, the timer resolution
    coarsens (a jiffy-style clock replacing a cycle counter), sustained
    memory-pressure regimes come and go — applied at fixed virtual times by
    a background daemon ({!Kernel.start_drift_daemon}).  An ICL calibrated
    before such an event is silently wrong after it; the adaptive layer
    ([Graybox_core.Adaptive]) exists to notice and repair that.

    {!Kernel.boot} installs the plane only from [?drift] ([GRAYBOX_DRIFT]
    is read at program edges, by [Graybox_core.Planes]).

    The contract matches {!Fault} and {!Crash}: with no scenario installed
    the kernel performs {e zero} extra work and zero extra RNG draws, so
    benign runs are bit-identical to a build without this module; the
    {!quiet} scenario (no events) is installable and indistinguishable
    from no plane. *)

(** One environment mutation. *)
type kind =
  | Cache_resize of float
      (** multiply the file-cache capacity by this factor (> 0); shrink
          victims are written back like any capacity miss *)
  | Policy_swap of string
      (** replace the file pool's replacement policy
          ({!Replacement.of_name}); resident pages carry over, recency
          state is lost *)
  | Timer_scale of int
      (** timer resolution multiplier (>= 1) in force from this event on;
          [1] restores the platform clock *)
  | Pressure_level of float
      (** fraction of usable pages ([0, 1]) the drift daemon holds
          resident from this event on; [0.] releases the regime *)

type event = { dv_at_ns : int; dv_kind : kind }
(** [dv_at_ns] is absolute virtual time (> 0, <= the scenario horizon). *)

type scenario = {
  dr_name : string;
  dr_seed : int;  (** reserved for derived schedules; no draws today *)
  dr_retouch_ns : int;
      (** how often the daemon re-touches its held pressure pages, keeping
          the regime resident against competing allocations *)
  dr_horizon_ns : int;  (** the daemon exits at this virtual time *)
  dr_events : event list;  (** strictly increasing [dv_at_ns] *)
}

val quiet : scenario
(** No events — installing it is indistinguishable from no plane. *)

val canonical : scenario
(** The reference drifting environment: cache shrink, policy swap to FIFO,
    a 1000x timer coarsening (100 ns cycle counter -> 100 us jiffy), a
    sustained pressure regime, then partial restoration; 30 s horizon. *)

val heavy : scenario
(** [canonical] with harsher magnitudes (quarter-size cache, 2000x timer,
    60% pressure). *)

val validate : scenario -> unit
(** Raise [Invalid_argument] naming the offending field when the scenario
    is malformed (non-positive resize factor, unknown policy name, timer
    scale below 1, pressure outside [0, 1], non-increasing or
    out-of-horizon event times, non-positive re-touch period).  Called by
    {!create}, so a bad scenario is rejected at install time. *)

val of_string : string -> scenario option
(** [""]/["none"] give [None]; ["quiet"]/["canonical"]/["heavy"] the
    presets.  Anything else raises [Invalid_argument] naming
    [GRAYBOX_DRIFT], whose grammar this is: a bad value is a hard error,
    not a silent default. *)

val max_pressure_frac : scenario -> float
(** Largest [Pressure_level] in the schedule (0. when none) — sizes the
    daemon's held region up front. *)

(** {1 Runtime plane (held by the kernel)} *)

type t

val create : scenario -> t
(** Validates, then installs.  Raises [Invalid_argument] on a malformed
    scenario (see {!validate}). *)

val scenario : t -> scenario

val stop : t -> unit
(** Ask the drift daemon to exit at its next wake-up. *)

val stopped : t -> bool

val timer_factor : t -> int
(** Timer-resolution multiplier currently in force (1 until a
    [Timer_scale] event fires). *)

val set_timer_factor : t -> int -> unit
val pressure_level : t -> float
val set_pressure_level : t -> float -> unit

val note_applied : t -> kind -> unit
(** Count one applied event (the daemon calls this). *)

val note_evictions : t -> int -> unit
(** Count pages evicted by a cache shrink. *)

val note_restart : t -> unit
(** Whole-machine restart ({!Kernel.restart}): the regime held by the
    (now dead) daemon lapses — timer factor back to 1, pressure level to
    zero.  The schedule and the applied-event counters survive; they
    describe the experiment, not the machine. *)

type stats = {
  d_events : int;  (** mutations applied *)
  d_resizes : int;
  d_swaps : int;
  d_timer_changes : int;
  d_pressure_shifts : int;
  d_evictions : int;  (** pages pushed out by cache shrinks *)
}

val stats : t -> stats
val kind_to_string : kind -> string

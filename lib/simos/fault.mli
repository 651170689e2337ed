(** Deterministic, seeded fault injection for the simulated OS.

    The paper's ICLs must survive an OS they cannot control: competing
    processes evict cache pages mid-probe (the Heisenberg effect,
    Section 4.1), background daemons steal CPU, timers are coarse, and
    real syscalls fail transiently (EINTR/EAGAIN).  A {!scenario}
    describes such a hostile observation channel; {!Kernel.boot} installs
    one only from its [?faults] argument — never from the {!Platform.t}
    or the environment ([GRAYBOX_FAULTS] is read at program edges, by
    [Graybox_core.Planes]) — and injects the faults on the syscall path.
    Every draw comes from a dedicated seeded {!Gray_util.Rng}, so a
    faulty run is exactly as reproducible as a benign one.

    With no scenario installed the kernel performs {e zero} extra work and
    zero extra RNG draws: benign runs are bit-identical to a build without
    this module. *)

(** Syscalls eligible for transient-error injection.  Namespace ops
    ([Create]/[Unlink]/[Rename]/[Mkdir]) are absent from the canonical
    scenario's target list — eligibility is checked before any RNG draw,
    so adding them here does not perturb existing runs. *)
type target = Open | Read | Write | Stat | Create | Unlink | Rename | Mkdir

type burst = {
  bu_period_ns : int;  (** background-daemon cycle length *)
  bu_duration_ns : int;  (** busy window at the start of each cycle *)
  bu_extra_ns : int;  (** latency added to syscalls landing in the window *)
}
(** Periodic latency bursts: a daemon that wakes every [bu_period_ns] and
    hogs the machine for [bu_duration_ns]. *)

type disturbance = {
  di_period_ns : int;  (** interval between disturbance rounds *)
  di_evict_frac : float;  (** probability each resident file page is evicted *)
  di_horizon_ns : int;  (** the disturber exits at this virtual time *)
}
(** Mid-probe cache disturbance: a background fiber that evicts a random
    fraction of the file cache while FCCD probes — cache state shifting
    under the prober's feet. *)

type pressure = {
  pr_pages : int;  (** anonymous pages touched per wave *)
  pr_hold_ns : int;  (** how long the wave holds its memory *)
  pr_gap_ns : int;  (** idle time between waves *)
  pr_horizon_ns : int;  (** the pressure fiber exits at this virtual time *)
}
(** Transient memory-pressure waves against MAC: a competitor that
    periodically touches a slab of anonymous memory, holds it, releases
    it, and sleeps. *)

type scenario = {
  sc_name : string;
  sc_seed : int;  (** seeds the fault plane's private RNG *)
  sc_error_prob : float;  (** per-call transient-failure probability *)
  sc_error_targets : target list;
  sc_burst : burst option;
  sc_spike_prob : float;  (** per-call probability of a random spike *)
  sc_spike_ns : int;  (** magnitude of a random latency spike *)
  sc_timer_factor : int;  (** timer resolution multiplier (>= 1) *)
  sc_timer_jitter_ns : int;  (** uniform jitter added to clock reads *)
  sc_disturb : disturbance option;
  sc_pressure : pressure option;
}

val quiet : scenario
(** Everything off — installing it is indistinguishable from no plane. *)

val canonical : scenario
(** The reference hostile environment used by the fault benches and the
    second CI pass: 2% transient errors on probes, periodic bursts, random
    spikes, 4x timer coarsening, a cache disturber and pressure waves. *)

val heavy : scenario
(** [canonical] at double intensity. *)

val scale : scenario -> intensity:float -> scenario
(** Scale every probability/magnitude linearly; [intensity = 0.] gives
    {!quiet} behaviour, [1.] the scenario itself. *)

val of_intensity : ?seed:int -> intensity:float -> unit -> scenario
(** [scale canonical ~intensity] with an optional seed override. *)

val of_string : string -> scenario option
(** [""]/["none"] give [None]; ["canonical"]/["heavy"] the presets; a
    non-negative float is an intensity ({!of_intensity}).  Anything else
    raises [Invalid_argument] naming [GRAYBOX_FAULTS], whose grammar this
    is. *)

(** {1 Runtime plane (held by the kernel)} *)

type t

val validate : scenario -> unit
(** Raise [Invalid_argument] naming the offending field when a scenario is
    malformed: probabilities and [di_evict_frac] outside [0, 1], negative
    magnitudes or horizons, [sc_timer_factor] below 1, or a period below
    1 ns (periods are used as moduli against the clock).  Called by
    {!create}, so a bad scenario is rejected at install time rather than
    surfacing as wrong arithmetic mid-run. *)

val create : scenario -> t
(** Validates (see {!validate}), then builds the runtime plane. *)

val scenario : t -> scenario

val stop : t -> unit
(** Ask the background daemons to exit at their next wake-up. *)

val stopped : t -> bool

type stats = {
  f_errors : int;  (** transient syscall errors injected *)
  f_spikes : int;  (** random latency spikes served *)
  f_burst_hits : int;  (** syscalls that landed in a burst window *)
  f_evictions : int;  (** file pages evicted by the disturber *)
  f_pressure_waves : int;
}

val stats : t -> stats

(** {1 Hooks (for {!Kernel} — not for ICLs)} *)

val inject_error : t -> target -> bool
(** Should this call fail with [Retryable]?  Draws only when the target is
    eligible and the probability is positive. *)

val extra_latency : t -> now:int -> int
(** Burst + spike latency to add to a syscall completing at [now]. *)

val timer_resolution : t -> base:int -> int
(** Effective gray-box timer resolution under coarsening. *)

val timer_jitter : t -> int
(** Per-read clock jitter in [\[0, sc_timer_jitter_ns\]]; [0] without a draw
    when jitter is disabled. *)

val note_evictions : t -> int -> unit
val note_pressure_wave : t -> unit
val rng : t -> Gray_util.Rng.t
(** The plane's private RNG (the disturber daemon samples victims from
    it). *)

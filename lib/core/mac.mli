(** Memory-based Admission Controller (Section 4.3).

    [gb_alloc] determines how much memory is {e currently available} by
    probing progressively larger chunks with two write loops per step,
    timing every page access:

    - the {e first loop} moves the chunk to a known state (pages may be
      demand-zeroed, re-fetched, or force evictions — all "slow" for
      benign reasons), but several consecutive {e very} slow accesses mean
      the page daemon has started paging, so the step bails out early;
    - the {e second loop} re-touches every page of the candidate
      allocation: if all accesses are fast, the chunk fits in the
      available space (no page was selected for replacement).

    The increment grows conservatively — start small, double while steps
    keep fitting (up to a cap), reset completely on trouble — "analogous
    to but more conservative than the TCP congestion-control scheme".

    Thresholds come from the microbenchmark repository when available,
    otherwise from self-calibration at first use. *)

open Gray_util

type detector =
  | Timing  (** the paper's choice: infer paging from access times alone *)
  | Vmstat
      (** consult the OS's paging counters between probe chunks — simpler
          and exact where the interface exists (the paper notes vmstat but
          deliberately avoids relying on it).  A backend whose [vmstat]
          is [Unsupported] degrades to [Timing] automatically. *)

type config = {
  initial_increment : int;  (** bytes; first step size (default 8 MB) *)
  max_increment : int;
      (** bytes; growth cap (default 16 MB).  Keep this small relative to
          memory: when several gb_allocs race, each commits up to one
          whole increment past the true limit before detecting it, so the
          group overshoot is [racers x max_increment]. *)
  consecutive_slow : int;
      (** how many successive slow pages signal paging (default 3) *)
  slow_threshold_ns : int option;
      (** page-access time considered "slow"; [None] = self-calibrate *)
  headroom : float;
      (** grant this fraction less than what fit ("we must make MAC
          slightly less aggressive", Section 4.3.1) so the caller's own
          file I/O has cache room; default 0.15 *)
  detection : detector;  (** default [Timing] *)
  robust : bool;
      (** outlier-rejecting self-calibration (default [false]): a fault-
          injected latency spike inside the calibration pass must not
          inflate the "benign" baseline tenfold *)
  min_confidence : float;
      (** below this classification confidence the grant is shrunk to the
          caller's minimum (default 0 = never shrink) *)
}

val default_config : ?repo:Param_repo.t -> unit -> config
(** Uses [vm.page_in_ns] and [mem.alloc_zero_page_ns] from the repo to set
    the slow threshold when present. *)

(** The admission controller over any {!Os_intf.S} backend.  Failure
    stays typed and graceful throughout: a refused [valloc] is reported
    as [None] (nothing fits), an [Unsupported] vmstat falls back to the
    timing detector, and a calibration pass that cannot reserve its
    probe region settles for the conservative threshold floor. *)
module Make (Os : Os_intf.S) : sig
  type allocation
  (** A successful gb_alloc: a committed region plus its size. *)

  val bytes : allocation -> int
  val pages : allocation -> int

  val touch_all : Os.env -> allocation -> unit
  (** Write over the whole allocation (the application "using" its memory);
      exposed so experiments can drive access patterns. *)

  val region : allocation -> Os.region
  (** The backing region, for direct page access by the application. *)

  val confidence : allocation -> float
  (** How cleanly the timing channel classified pages during this
      [gb_alloc], in [0, 1]: one minus the fraction of page-touch samples
      that looked slow {e without} belonging to a consecutive-slow paging
      run — isolated slowness is spike-like noise, not paging, and the
      more of it the murkier the channel.  [1.0] under the exact [Vmstat]
      detector. *)

  val gb_alloc :
    Os.env ->
    config ->
    min:int ->
    max:int ->
    multiple:int ->
    allocation option
  (** [gb_alloc env cfg ~min ~max ~multiple] returns an allocation of
      [bytes] with [min <= bytes <= max] and [bytes mod multiple = 0], or
      [None] when [min] bytes do not currently fit in available memory
      (the paper's NULL return) — including when the backend refuses the
      address-space reservation itself.  An application that cannot adapt
      passes [min = max].  Raises [Invalid_argument] on inconsistent
      bounds. *)

  val gb_free : Os.env -> allocation -> unit

  val calibrate_threshold : config -> Os.env -> int
  (** Run the self-calibration pass (Section 4.3.2) by itself and return the
      derived slow threshold in ns: 10x the worst benign (resident or
      zero-fill) page-touch cost observed, floored at 1 us.  [gb_alloc] does
      this implicitly when [slow_threshold_ns] is [None]; the adaptive layer
      calls it explicitly to re-calibrate after environment drift and blend
      the fresh value with its prior. *)
end

(** {1 The simulated-backend instance (the historical flat API)} *)

include module type of struct include Make (Os_sim) end

(** {1 Introspection of the last call (for experiments)} *)

type stats = {
  s_probe_ns : int;  (** virtual time spent inside gb_alloc probing *)
  s_steps : int;  (** increments attempted *)
  s_backoffs : int;  (** steps that detected paging *)
  s_chunks : int;  (** probe chunks classified *)
  s_suspect_chunks : int;  (** chunks the detector called slow *)
  s_confidence : float;  (** same value as {!Make.confidence} of the result *)
}

val last_stats : unit -> stats
(** Stats of the most recent [gb_alloc] on this domain, on whichever
    backend ran it. *)

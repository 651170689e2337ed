(** Deterministic, splittable pseudo-random number generator.

    Every stochastic component of the simulator and of the workload
    generators draws from an explicit [Rng.t] so that experiments are
    reproducible bit-for-bit from a single seed.  The implementation is
    xoshiro256** seeded through splitmix64, which is fast, has a 256-bit
    state, and splits cleanly into independent streams. *)

type t

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed. *)

val split : t -> t
(** [split t] returns a new generator statistically independent from [t];
    [t] itself is advanced.  Used to hand sub-seeds to components. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future draws). *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] draws uniformly in [\[0, bound)]. Raises
    [Invalid_argument] if [bound <= 0]. *)

val int_in : t -> min:int -> max:int -> int
(** [int_in t ~min ~max] draws uniformly in the inclusive range. *)

val float : t -> float -> float
(** [float t bound] draws uniformly in [\[0, bound)]. *)

val bool : t -> bool

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via Box–Muller. *)

val lognormal_factor : t -> sigma:float -> float
(** Mean-1.0 lognormal multiplier, [exp (gaussian ~mu:(-sigma²/2) ~sigma)]
    fused into one call — the simulator's per-syscall / per-page noise
    draw.  Draw-for-draw identical to composing {!gaussian} with [exp]. *)

(** {1 Tick-quantised lognormal samples}

    A timed operation of modelled cost [raw] ns, read through a timer of
    resolution [res] ns: the cost scaled by one {!lognormal_factor},
    truncated to whole ns, rounded down to the resolution and never below
    one tick.  The kernel's per-page [touch_pages] times are such
    samples. *)

val lognormal_tick : t -> sigma:float -> res:int -> int -> int
(** [lognormal_tick t ~sigma ~res raw] is
    [max res (quantise res (max 0 (int_of_float (float raw *. f))))]
    for [f = lognormal_factor t ~sigma], where [quantise res ns] is [ns]
    when [res <= 1] and [ns / res * res] otherwise.  Draws nothing (and
    uses [f = 1]) when [sigma = 0.] or [raw = 0]. *)

type tick
(** {!lognormal_tick}'s parameters with the tick most samples land on. *)

val tick : sigma:float -> res:int -> int -> tick
(** Precompute the samples of [raw] ns: the tick of the median factor and
    the bound on the first uniform above which no second uniform can move
    the sample off that tick.  Costs about one sample's [log] and [exp]. *)

val tick_value : tick -> int
(** The tick of the median factor. *)

val tick_bound : tick -> float
(** {!sample_tick} returns {!tick_value} without evaluating the formula
    when the first uniform is above this ([>= 1.] for never). *)

val sample_tick : t -> tick -> int
(** Equal to [lognormal_tick t ~sigma ~res raw] for the tick's
    parameters, and leaves [t] in the same state: the same uniforms are
    drawn, but [log], [cos] and [exp] run only when the first uniform is
    at or below the precomputed bound.  The bound carries a margin far
    above the floating-point error of the formula. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

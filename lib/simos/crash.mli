(** Crash–restart plane: whole-machine failures at syscall boundaries.

    The paper's FLDC refresh is explicitly non-atomic (footnote 4); proving
    that its repair script really recovers requires an OS that can {e die}
    — discarding every volatile structure (page cache, anonymous memory,
    swap state, processes) while the durable image (the {!Fs} namespace
    plus whatever {!Kernel.fsync}/{!Kernel.sync} made persistent) survives.

    A scenario either crashes deterministically at the [N]th syscall
    boundary after boot (or after {!arm_at}), or probabilistically per
    boundary from its own seeded RNG.  The kernel consults {!tick} at the
    {e entry} of every syscall: "crash at boundary [N]" means syscalls
    [1 .. N-1] completed and syscall [N] never started, the atomicity
    granularity of the whole plane.

    {!Kernel.boot} installs the plane only from [?crash] ([GRAYBOX_CRASH]
    is read at program edges, by [Graybox_core.Planes]).  Installing it
    also switches the kernel to explicit durability semantics (see
    {!Kernel.durability_on}).  With no scenario installed
    the kernel performs zero extra work and zero RNG draws — benign runs
    are byte-identical to a build without this module. *)

exception Crashed
(** Raised from inside a syscall when the machine dies; surfaces to the
    driver as [Engine.Fiber_crash (_, Crashed)].  Recover with
    {!Kernel.restart}. *)

type scenario = {
  cs_name : string;
  cs_seed : int;  (** seeds the plane's private RNG (probabilistic mode) *)
  cs_crash_at : int option;  (** die at this syscall boundary (1-based) *)
  cs_prob : float;  (** per-boundary crash probability *)
}

val durable : scenario
(** Durability semantics on, no crashes — the quiet member of the plane,
    used as the baseline of the crash explorer. *)

val at_syscall : int -> scenario
(** Crash deterministically at the [n]th syscall boundary ([n >= 1]). *)

val probabilistic : ?seed:int -> prob:float -> unit -> scenario
(** Crash each boundary with probability [prob] in [(0, 1]]. *)

val of_string : string -> scenario option
(** [""]/["none"] gives [None]; ["durable"]; ["at:N"] with [N >= 1]; a
    float in [(0, 1]] is a per-boundary probability.  Anything else raises
    [Invalid_argument] naming [GRAYBOX_CRASH], whose grammar this is. *)

(** {1 Runtime plane (held by the kernel)} *)

type t

val create : scenario -> t
val scenario : t -> scenario

val tick : t -> bool
(** Count one syscall boundary; [true] means the machine dies here (the
    kernel raises {!Crashed}).  Armed countdowns draw nothing from the
    RNG; probabilistic scenarios draw exactly once per boundary. *)

val arm_at : t -> int -> unit
(** Die at the [n]th boundary from now ([n >= 1]) — the crash explorer's
    cursor. *)

val disarm : t -> unit

val observe_boundaries : t -> (int -> unit) -> unit
(** Install a callback invoked at every boundary with the absolute
    {!syscalls} count, at the exact point an armed crash would fire — so
    the machine state the callback sees is the state a crash at that
    boundary would leave.  The snapshot-mode crash explorer uses this to
    capture per-boundary durable images in a single uncrashed run instead
    of one armed replay per boundary.  One observer per plane; installing
    replaces the previous one. *)

val syscalls : t -> int
(** Boundaries ticked since boot; the explorer differences this across a
    workload window to enumerate every crash point, no sampling. *)

val note_restart : t -> unit
(** Recorded by {!Kernel.restart}. *)

type stats = { c_crashes : int; c_restarts : int }

val stats : t -> stats

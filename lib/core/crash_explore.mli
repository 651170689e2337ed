(** Exhaustive crash-point exploration of ICL recovery (ALICE /
    CrashMonkey style).

    A workload runs once against the crash plane to count its syscall
    boundaries [T]; it is then re-run [T] more times on byte-identical
    kernels, crashing at boundary [n = 1..T], restarting from the
    durable image, running recovery, and checking invariants.  {e Every}
    boundary is visited — [rp_boundaries = rp_workload_syscalls], no
    sampling — and each failure is reported as a replayable seed.

    Exploration is {e window-sharded}: [1..T] splits into fixed
    contiguous windows ({!window_size} boundaries each, a function of
    [T] alone — never of the domain count), and each window is a
    hermetic function of the immutable {!baseline}, so windows can fan
    out over a {!Gray_util.Domain_pool} and {!merge_reports} in
    submission order reproduces the serial report byte for byte at any
    [-j].

    The per-boundary fsck is {!Fs.check_incremental} against a
    checkpoint taken at the end of the (byte-identical) setup replay,
    whose full-fsck cleanliness the baseline verified once;
    [~full_fsck:true] pins the full-scan oracle instead — the
    differential suite diffs the two. *)

type violation = {
  vi_boundary : int;  (** 1-based syscall boundary inside the window *)
  vi_seed : int;
  vi_problem : string;  (** all invariant failures at this boundary *)
  vi_replay : string;  (** e.g. ["GRAYBOX_CRASH=at:7 seed=11 workload=refresh"] *)
  vi_flight : string list;
      (** Post-mortem flight-recorder tail of the violating boundary's
          kernel ({!Gray_util.Flight.lines}, oldest first): the pre-crash
          syscall/eviction history plus the recovery run that failed the
          invariants.  Empty only when the violation has no kernel (the
          boundary-0 layout check).  Deterministic — a pure function of
          (baseline, boundary), so the merged report stays byte-identical
          at any [-j]. *)
}

type report = {
  rp_workload_syscalls : int;  (** syscalls in the explored window *)
  rp_boundaries : int;  (** boundaries actually crashed at (= syscalls) *)
  rp_rolled_back : int;  (** recoveries restoring the pre-refresh image *)
  rp_rolled_forward : int;  (** recoveries completing the refresh *)
  rp_violations : violation list;
}

val explore_refresh :
  ?seed:int ->
  ?files:int ->
  ?file_size:int ->
  ?break_repair:bool ->
  ?full_fsck:bool ->
  ?pool:Gray_util.Domain_pool.t ->
  unit ->
  report
(** Explore every crash boundary of an {!Fldc.refresh_directory} run
    over [files] files of decreasing size, repairing with {!Fldc.repair}
    after each crash.  Invariants: all processes reclaimed, journal and
    temporary directory cleaned up, the surviving state is exactly the
    pre- or the post-refresh image (no file lost or duplicated, sizes
    and times intact), the post image orders i-numbers by size, and the
    file system passes fsck.  [break_repair] substitutes a repair that
    ignores the commit record — a mutation the explorer must catch
    (used to test the explorer itself).  [pool] fans the windows out
    over domains; the report is identical with or without it.

    Deterministic for a given [seed]; raises [Failure] if the baseline
    run itself misbehaves. *)

type strategy = [ `Snapshot | `Replay ]
(** How a pipeline window visits its boundaries.

    [`Replay] (the original explorer, kept as the oracle): one armed run
    per boundary — O(prefix) syscalls each — then restart, repair-less
    checks, and a full re-run.  The only mode that exercises the crash
    plane's arming and the crashed machine itself.

    [`Snapshot] (default): one {e uncrashed} run per window, cloning the
    volume at each boundary through {!Crash.observe_boundaries} (which
    fires at the exact point an armed crash would, so the clone is the
    crash state).  Each clone is rolled back with {!Fs.crash} and adopted
    by a fresh kernel via {!Kernel.install_volume_image} — the restarted
    machine minus the armed replay.  Boundaries whose volume state equals
    the previous boundary's ({!Fs.equal}, exact) share its verdict, since
    every check and the re-run are deterministic functions of that state.
    The differential suite holds the two strategies' reports identical;
    the replay-only checks ("no crash fired", "live processes after
    crash") never fire in a passing replay sweep, so their absence under
    [`Snapshot] cannot change a report. *)

val explore_pipeline :
  ?seed:int ->
  ?files:int ->
  ?file_size:int ->
  ?full_fsck:bool ->
  ?strategy:strategy ->
  ?pool:Gray_util.Domain_pool.t ->
  unit ->
  report
(** Explore every crash boundary of a gbp-style pipeline (compose-mode
    ordering, reads in that order, then a MAC allocate/touch/free
    cycle).  The pipeline has no recovery protocol; the invariants are
    that restart reclaims everything (fsck clean, no live processes),
    the durable setup image is untouched, and the same pipeline re-runs
    to completion on the restarted machine.  [rp_rolled_back] and
    [rp_rolled_forward] are [0]. *)

(** {1 Window-level API}

    For callers that shard at a higher level than [?pool] — the crash
    bench turns every window into its own harness task, so windows of
    {e different} explorations interleave across domains while the
    rendered report stays byte-identical. *)

type baseline
(** The immutable result of the two baseline runs: pre- and post-images,
    the boundary count, and the workload parameters.  Safe to share
    across domains. *)

val baseline_boundaries : baseline -> int

val refresh_baseline :
  ?seed:int -> ?files:int -> ?file_size:int -> unit -> baseline
(** Observe the durable pre-image (verifying it passes the full fsck —
    the anchor of the incremental checker's contract for the sweep), run
    the refresh uncrashed for the post-image and the boundary count. *)

val pipeline_baseline :
  ?seed:int -> ?files:int -> ?file_size:int -> unit -> baseline

val explore_refresh_window :
  ?break_repair:bool -> ?full_fsck:bool -> baseline -> lo:int -> hi:int -> report
(** Explore boundaries [lo..hi] (inclusive, [1 <= lo <= hi <= T]) of the
    refresh workload.  A window report's [rp_boundaries] is the window
    width; the boundary-0 post-image layout check belongs to the window
    with [lo = 1] so a sharded sweep reports it exactly once. *)

val explore_pipeline_window :
  ?full_fsck:bool -> ?strategy:strategy -> baseline -> lo:int -> hi:int -> report

val window_size : int
(** Boundaries per window (16). *)

val windows : boundaries:int -> (int * int) list
(** [[1..T]] as contiguous [(lo, hi)] windows of {!window_size}. *)

val merge_reports : report list -> report
(** Fold adjacent window reports (in ascending window order) into the
    serial report: counters sum, violations concatenate.  Raises
    [Invalid_argument] on an empty list or windows of different
    workloads. *)

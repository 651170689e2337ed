(** Always-on flight recorder: a fixed-capacity ring buffer of recent
    simulator events in {e simulated} time, dumped post-mortem when a
    crash-exploration violation, an ICL exhaustion, or a perf-gate
    failure needs history attached to its verdict.

    The black-box contract:
    - {b bounded cost}: recording is five array stores into preallocated
      buffers — no allocation, no wall-clock reads, no RNG draws — so the
      recorder can stay on under every workload without perturbing the
      simulation or the determinism contract;
    - {b deterministic dumps}: an event is (virtual timestamp, code, pid,
      two small integer arguments).  Rendering depends only on those
      five integers, so the same seed produces byte-identical dumps at
      any [-j];
    - {b fixed vocabulary}: event codes are payload-free variants
      (immediate values), so the code array is an unboxed [int array] at
      runtime and recording a code never allocates.

    The vocabulary spans all four layers — syscall boundaries (Simos),
    evictions and faults (the machine planes), drift epochs (the
    environment plane), and ICL phase transitions (Graybox_core) — which
    is why the recorder lives in [Gray_util]: every layer can record
    without a dependency cycle. *)

type code =
  | Open | Create | Close | Read | Write | Mkdir | Unlink | Rename
  | Readdir | Stat | Utimes | Fsync | Sync | Write_blob | Read_blob
  | Valloc | Vfree | Vrelease | Touch | Vmstat | Compute
      (** Syscall boundaries, recorded at syscall {e entry} (before the
          crash plane's tick, so the boundary that crashes the machine is
          the last event in the ring). *)
  | Evict  (** [a] = victim pid (0 = file/shared page), [b] = 1 if dirty. *)
  | Fault  (** An injected syscall fault absorbed; [a] = target index. *)
  | Disturb  (** Cache-disturbance wave; [a] = pages dropped. *)
  | Pressure  (** Memory-pressure wave; [a] = pages touched. *)
  | Drift  (** Drift-plane mutation applied; [a] = kind index, [b] = arg. *)
  | Stale | Recalibrated | Exhausted
      (** ICL watchdog phase transitions; [a] = watchdog id. *)

val code_name : code -> string
val code_count : int
val code_index : code -> int
(** Dense 0-based index of [code] — [Account] uses it to key per-process
    syscall counters off the same vocabulary. *)

val is_syscall : code -> bool

type t

val default_capacity : int
(** 128 events.  Small enough that booting a recorder per kernel stays
    cheap in the crash explorer's hundreds-of-boots loops, deep enough
    to cover several refresh cycles of pre-crash history. *)

val create : ?capacity:int -> unit -> t
val capacity : t -> int

val recorded : t -> int
(** Total events ever recorded (not the resident count, which is
    [min (recorded t) (capacity t)]). *)

val record : t -> ts:int -> code:code -> pid:int -> a:int -> b:int -> unit
(** Append one event; overwrites the oldest once full.  Zero allocation. *)

val reset : t -> unit

type event = {
  ev_ts : int;  (** simulated nanoseconds *)
  ev_code : code;
  ev_pid : int;
  ev_a : int;
  ev_b : int;
}

val events : ?last:int -> t -> event list
(** Oldest-to-newest; [last] keeps only the most recent N. *)

val line_of : event -> string

val lines : ?last:int -> t -> string list
(** Rendered events, oldest first — the dump-on-trigger payload. *)

val dump : ?last:int -> t -> string
(** [lines] under a one-line header, newline-terminated. *)

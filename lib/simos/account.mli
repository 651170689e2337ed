(** Per-process resource accounting: flat, pid-indexed attribution of
    everything the simulated machine does on a process's behalf —
    syscalls by kind, page-cache hits and misses, disk traffic and
    bytes, swap traffic, simulated CPU and block time, absorbed fault
    injections, and {e eviction blame} (who evicted whose page).

    Design constraints, in priority order:
    - {b zero allocation on the hot paths}: the kernel caches each
      process's [stats] record in its syscall environment, so a bump is
      one mutable-field store (or one [int array] store for the
      per-syscall-kind counters, keyed by {!Gray_util.Flight.code_index}
      — one vocabulary for recorder and ledger);
    - {b one count in one place}: the ledger is the kernel's only
      count of reads, writes, bytes, fetches, write-backs, page-ins,
      page-outs and zero-fills — {!Kernel.counters} is derived from
      {!total} — and the counters kept below the kernel (pool
      hits/misses/evictions, telemetry syscall counters) equal the sum
      of the per-pid cells within one boot epoch: there is no
      "unattributed" bucket;
    - {b initiator semantics}: costs are charged to the process {e in
      whose syscall they occur}.  A sync-driven writeback is the
      syncing process's cost; an eviction performed while process A
      faults in a page blames A as the evictor, whoever owned the
      victim.

    The ledger is machine state: {!Kernel.restart} resets it (the
    rebooted machine has no processes, so it has no per-process
    history), unlike the experiment-level RNG streams and drift
    schedule which deliberately survive.  The kernel folds {!total}
    into a carry first, so its counters survive the reboot.

    {b Fleet scale.}  The flat blame matrix is capped at a
    1024-pid stride (8 MB); cells naming a higher pid spill to a hash
    table, so a 10⁴–10⁵-process fleet costs memory proportional to the
    blame pairs it actually creates, not to pids².  Rows of processes
    that exit mid-run are {e reaped} on request ({!note_exit} +
    {!reap}): folded into the same name-keyed aggregates the export
    uses, so {!export} is byte-identical before and after a reap while
    the live table stays bounded by concurrent — not cumulative —
    process count.  Reaping is explicit because the pid-level view
    ({!rows}, {!top_table}, {!blame_table}) is still wanted after
    {!Kernel.run} returns (the toolbox's [--top]). *)

type stats = {
  st_pid : int;
  mutable st_name : string;
  sys : int array;
      (** Per-kind syscall counts, indexed by
          {!Gray_util.Flight.code_index} (syscall codes only). *)
  mutable syscalls : int;  (** Total syscall entries. *)
  mutable hits : int;  (** Page-cache hits (file + anon). *)
  mutable misses : int;
  mutable reads : int;
      (** Completed non-empty reads ([sys] counts {e entries}, failed
          and empty reads included). *)
  mutable writes : int;  (** Completed writes, empty ones included. *)
  mutable fetches : int;  (** Disk reads performed to fill file pages. *)
  mutable writebacks : int;  (** Dirty file pages written to disk. *)
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable page_ins : int;  (** Swap-ins. *)
  mutable page_outs : int;  (** Swap-outs (anon victims written to swap). *)
  mutable zero_fills : int;
  mutable evictions : int;  (** Evictions this process {e caused}. *)
  mutable evicted : int;  (** This process's anon pages evicted by anyone. *)
  mutable faults : int;  (** Injected syscall faults absorbed. *)
  mutable cpu_ns : int;  (** Simulated CPU service time ({!Kernel.compute}). *)
  mutable block_ns : int;  (** Simulated disk/swap service time. *)
}

type t

val create : unit -> t

val note_spawn : t -> pid:int -> name:string -> stats
(** Register [pid] and return its (zeroed) ledger row.  Called once per
    {!Kernel.spawn}; the kernel caches the row in the process
    environment so per-syscall bumps never look it up. *)

val note_syscall : stats -> Gray_util.Flight.code -> unit

val note_eviction : t -> evictor:stats -> victim_pid:int -> unit
(** Bump the blame matrix cell (evictor, victim) and both sides'
    eviction counters.  [victim_pid = 0] means a file/shared page. *)

val note_exit : t -> pid:int -> unit
(** Mark [pid]'s row as reapable — called by the kernel when the
    process's fiber cleans up.  The row stays visible (and still
    receives victim-side blame) until the next {!reap}. *)

val reap : t -> unit
(** Fold every exited process's row — and every blame cell naming it,
    flat or spilled — into the name-keyed aggregates, then drop the
    pid-level state.  Counterpart names are resolved while all rows are
    still live, and cells are zeroed as they fold, so a cell shared by
    two exited pids is counted exactly once.  {!export} output is
    unchanged by a reap; {!rows} and {!blame_triples} shrink.  Cheap
    when nothing has exited. *)

val total : t -> stats
(** Every live row plus every reaped aggregate, cell by cell: each
    process since boot (or the last {!reset}) counted exactly once,
    reaped or not.  A fresh record named ["total"] with [st_pid = 0];
    costs O(live rows + reaped names). *)

val reaped_procs : t -> int
(** Processes folded away by {!reap} since boot/reset. *)

val reset : t -> unit
(** Forget every row, the whole blame matrix (flat and spilled), and
    the reaped aggregates — the {!Kernel.restart} path. *)

val find : t -> pid:int -> stats option
val rows : t -> stats list  (** Ascending pid; reaped rows excluded. *)

val blame : t -> evictor:int -> victim:int -> int

val blame_triples : t -> (int * int * int) list
(** Non-zero [(evictor_pid, victim_pid, count)] cells, ascending
    (evictor, victim); victim 0 is the file/shared column. *)

(** {1 Aggregated export}

    Bench tasks boot many kernels (one per trial, hundreds across the
    crash explorer's windows), and pids are only unique within one
    kernel — so the cross-kernel aggregate keys on process {e name}.
    Exports merge associatively in submission order, keeping suite JSON
    byte-identical at any [-j]. *)

type export

val export : t -> export
val merge_exports : export list -> export
val export_is_empty : export -> bool
val export_blame_nonempty : export -> bool
val export_json : export -> Gray_util.Json.t
(** Every cell but [reads] and [writes], which only back
    {!Kernel.counters}. *)

(** {1 Rendering} *)

val top_table : t -> string
(** A [toolbox top]-style per-process table, one row per pid. *)

val blame_table : t -> string
(** The who-evicted-whom matrix, evictor rows x victim columns. *)

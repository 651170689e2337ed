(** The simulated operating system: syscall semantics and their costs.

    A [Kernel.t] owns a set of data volumes (one {!Fs} per {!Disk}), a swap
    disk, physical {!Memory}, and the CPUs.  Simulated processes receive an
    {!env} handle and interact with the kernel exclusively through the
    syscalls below; every call advances the calling fiber's virtual time by
    the modelled cost (noised per the platform's [noise_sigma]).

    Paths name a volume by their first component: ["/d0/inputs/f17"] is
    file [/inputs/f17] of volume 0.  The fifth disk of the paper's Figure 7
    setup is the dedicated swap disk, always present.

    Gray-box clients (the ICLs, the applications) must restrict themselves
    to this interface plus {!gettime}; white-box ground truth lives in
    {!Introspect}. *)

type t
type env

type fd = int
(** File descriptors are plain ints (per-process). *)

type error =
  | Fs_error of Fs.error
  | Bad_fd
  | Bad_path
  | Retryable
  | Timeout  (** a host syscall missed its deadline (host backend only) *)
  | Unsupported of string
      (** the backend lacks a capability (host backend only) *)
  | Sys_error of string
      (** uncategorised host errno, carried by name (host backend only) *)

val error_to_string : error -> string
(** [Retryable] is an injected EINTR/EAGAIN-style transient failure (only
    ever returned when a {!Fault} scenario is installed); callers should
    back off and retry — see [Graybox_core.Resilient].

    The last three constructors exist so the host backend
    ([Graybox_core.Os_host]) shares this taxonomy literally with the
    fault plane's injected errors: the simulated kernel {e never}
    produces [Timeout], [Unsupported] or [Sys_error]. *)

(** {1 Boot and processes} *)

val boot :
  engine:Engine.t ->
  platform:Platform.t ->
  ?data_disks:int ->
  ?volume_blocks:int ->
  ?faults:Fault.scenario ->
  ?crash:Crash.scenario ->
  ?drift:Drift.scenario ->
  ?account:bool ->
  ?flight:bool ->
  ?sched:Sched.config ->
  ?procs:int ->
  seed:int ->
  unit ->
  t
(** [data_disks] defaults to 4 (paper setup); [volume_blocks] defaults to
    the disk capacity.  Boot reads only its arguments: an absent plane
    means no plane (programs read [GRAYBOX_*] at their edge, see
    [Graybox_core.Planes]).  [faults] installs a fault-injection
    scenario; when absent the kernel performs no fault-related work at
    all.  [crash] installs the crash–restart plane; when absent there is
    no durability distinction and no per-syscall work — see
    {!durability_on}.  [drift] installs the environment-drift plane;
    when absent the kernel's clock and memory configuration never change
    mid-run and no drift-related work happens at all.

    The per-process accounting ledger ({!account}) and the flight
    recorder ({!flight}) are always on: the ledger is the kernel's only
    count, so nothing can turn it off.  [account] and [flight] are
    accepted for existing callers; [true] (the default) is the only
    value, and [false] raises [Invalid_argument].

    [sched] installs a proportional-share run queue (default: none —
    the legacy whole-burst FCFS dispatch).  With it, {!compute} slices
    contended bursts into weighted quanta so no runnable process
    starves; while a single process is registered the legacy path is
    taken exactly, making an uncontended scheduler kernel byte-identical
    to a scheduler-less one (the fleet ≡ solo contract, see {!Sched}).
    [procs] (default 16) sizes the process table up front so fleets of
    10⁴–10⁵ processes never rehash it mid-run. *)

val engine : t -> Engine.t
val platform : t -> Platform.t
val data_disks : t -> int
val volume_root : int -> string
(** ["/d<i>"]. *)

val spawn : t -> ?name:string -> ?weight:int -> ?at:int -> (env -> unit) -> unit
(** Create a process whose body runs as an engine fiber.  File descriptors
    and anonymous memory are reclaimed when the body returns (or raises).
    [weight] (default 1) is the process's proportional CPU share under a
    scheduler kernel — ignored without [?sched].  A process's ledger row
    appears when its fiber starts and is marked reapable at exit (see
    {!Account.note_exit}), so fleet-scale runs don't leak a row per dead
    pid. *)

val run : t -> unit
(** [Engine.run] shortcut. *)

val pid : env -> int
val kernel_of_env : env -> t

(** {1 Accounting and flight recorder} *)

val account : t -> Account.t option
(** The per-process accounting ledger — always [Some].  It is the
    kernel's only count: {!counters} and {!vmstat} are derived from it.
    Within one boot epoch (no {!restart}), per-pid cells also sum
    exactly to the counters kept below the kernel: hits + misses across
    pids equal the pool counters, per-kind syscall counts equal the
    telemetry [.calls] counters, and eviction blame row sums equal the
    ["simos.kernel.evictions"] total. *)

val flight : t -> Gray_util.Flight.t
(** The flight recorder.  Syscall entries, evictions, fault
    injections, drift mutations — all in simulated time.  Survives
    {!restart} (it is the black box; the pre-crash tail is the point),
    though the fresh engine restarts its timestamps from 0. *)

val sched : t -> Sched.t option
(** The proportional-share run queue, when installed at boot. *)

val cpu_busy_ns : t -> int
(** Total ns the CPUs have been reserved for since boot — the
    denominator of the scheduler property "per-pid CPU-ns sums to total
    CPU-ns" ([test/test_sched.ml]). *)

val fresh_token : env -> int
(** Per-process monotone counter (1, 2, ...).  Combined with {!pid} it
    yields names unique within a kernel without any global state, so
    independent kernels on separate domains stay bit-identical. *)

(** {1 Time} *)

val gettime : env -> int
(** Process-visible clock: virtual now, quantised to the platform timer
    resolution.  Cheap (no cost is charged), like rdtsc. *)

(** {1 File syscalls} *)

val open_file : env -> string -> (fd, error) result
val create_file : env -> string -> (fd, error) result
(** Create (exclusive) and open. *)

val close : env -> fd -> unit

val read : env -> fd -> off:int -> len:int -> (int, error) result
(** Positional read.  Returns the byte count actually read (short at end of
    file, [0] at or past it).  Misses fetch whole pages into the file cache
    — probing a page is destructive, the paper's Heisenberg effect. *)

val write : env -> fd -> off:int -> len:int -> (int, error) result
(** Positional write, extending the file as needed; dirty pages are written
    back on eviction (write-behind). *)

val file_size : env -> fd -> int

val mkdir : env -> string -> (unit, error) result
val unlink : env -> string -> (unit, error) result
val rename : env -> src:string -> dst:string -> (unit, error) result
val readdir : env -> string -> (string list, error) result
val stat : env -> string -> (Fs.stat_info, error) result
(** Reads the inode (a disk access when its inode-table block is not
    cached; "at most a few milliseconds", Section 4.2.2). *)

val utimes : env -> string -> atime:int -> mtime:int -> (unit, error) result

(** {1 Durability syscalls}

    Only meaningful under the crash plane: namespace operations are always
    durable at the syscall (FFS-style synchronous metadata), while file
    data, sizes, times and blobs are write-back and survive a crash only
    once flushed.  Without a plane installed, {!fsync} and {!sync} are
    free no-ops — there is nothing to be durable against. *)

val fsync : env -> fd -> (unit, error) result
(** Write back the file's dirty pages (batching contiguous blocks) and
    its inode; on return the file's durable image equals its volatile
    one. *)

val sync : env -> unit
(** {!fsync} for the whole machine: every dirty file page, every volume,
    one elevator pass per volume, then all metadata. *)

val write_blob : env -> fd -> string -> (unit, error) result
(** Replace the file's side-band content (the FLDC journal records live
    here) — volatile until {!fsync}ed, like any write.  Charged one
    syscall plus a memcopy of the string. *)

val read_blob : env -> fd -> (string, error) result
(** Current (volatile) side-band content; [""] if never written. *)

(** {1 Memory syscalls} *)

type region

val valloc : env -> pages:int -> region
(** Reserve address space; frames are allocated on first touch. *)

val vfree : env -> region -> unit
val region_pages : region -> int

val vrelease : env -> region -> first:int -> count:int -> unit
(** madvise(MADV_DONTNEED)-style: drop the frames and swap slots backing a
    page range of the region.  Contents are lost; the next touch
    demand-zeroes.  Used to give memory back without unmapping. *)

val touch_pages : env -> region -> first:int -> count:int -> int array
(** Write one byte to each page of [region.[first .. first+count-1]] in
    order, returning the {e observed} per-page times (noised and quantised
    like back-to-back timer reads).  Fresh pages are demand-zeroed; pages
    that were paged out come back from the swap disk; under memory pressure
    each fill may evict (and write back) a victim.  Advances time by the
    total. *)

type vmstat = { vm_page_ins : int; vm_page_outs : int }

val vmstat : env -> vmstat
(** System-wide paging activity counters, as the real [vmstat] would
    report them — the page-in and page-out fields of {!counters}.  This
    is a legitimate narrow interface some systems offer; the paper's MAC
    deliberately avoids it ("we observe only time in order to explore
    those environments with very limited interfaces"), but the ablation
    benches compare both. *)

(** {1 CPU} *)

val compute : env -> ns:int -> unit
(** Burn CPU time; contends for the platform's CPUs. *)

val compute_bytes : env -> bytes:int -> ns_per_byte:float -> unit

(** {1 Fault plane (experiment control, not for ICLs)} *)

val fault_plane : t -> Fault.t option
(** The installed fault plane, for stats and scenario inspection. *)

val start_fault_daemons : t -> unit
(** Spawn the scenario's background interference as simulated processes: a
    cache disturber that evicts random file pages while ICLs probe, and a
    memory-pressure fiber that touches/releases anonymous memory in waves.
    Both exit at their scenario horizon (or on {!stop_faults}), so
    {!run} still terminates.  No-op without a fault plane. *)

val stop_faults : t -> unit
(** Ask the fault daemons to exit at their next wake-up. *)

(** {1 Drift plane (experiment control, not for ICLs)} *)

val drift_plane : t -> Drift.t option
(** The installed drift plane, for stats and scenario inspection. *)

val start_drift_daemon : t -> unit
(** Spawn one simulated process that replays the drift schedule against
    the virtual clock: cache resizes (shrink victims written back like any
    capacity miss), replacement-policy swaps, timer-resolution changes,
    and sustained memory-pressure regimes (held pages re-touched every
    [dr_retouch_ns] so the regime stays resident).  The fiber exits after
    the last event — or at the scenario horizon while a pressure regime is
    held — so {!run} still terminates.  No-op without a drift plane or
    with an event-free scenario ({!Drift.quiet}). *)

val stop_drift : t -> unit
(** Ask the drift daemon to exit at its next wake-up. *)

(** {1 Crash plane (experiment control, not for ICLs)} *)

val crash_plane : t -> Crash.t option

val durability_on : t -> bool
(** Whether a crash plane is installed.  ICL code uses this to decide
    whether to pay for journaling + fsync (under a plane, where crashes
    are possible) or to run the plain legacy path (without one, where the
    extra syscalls would change benign-run behaviour for nothing). *)

val restart : t -> unit
(** Reboot after a crash: discard all volatile state (page cache,
    anonymous memory, swap residency, processes), roll every volume back
    to its durable image ({!Fs.crash}), reset device timelines, and
    install a fresh engine at time 0.  The crash plane is disarmed; spawn
    recovery processes and {!run} again.  Counters and RNG streams
    survive — they describe the experiment, not the machine.  The
    per-process accounting ledger does {e not} (the rebooted machine has
    no processes; its totals are carried into {!counters} first), nor
    does the run queue ({!Sched.reset} — registrations and grants are
    machine state), and a drift plane's timer/pressure regime lapses
    (its daemon died with the crash); the flight recorder keeps its
    pre-crash tail. *)

val install_volume_image : t -> int -> Fs.t -> unit
(** Adopt [fs] as volume [i]'s file system.  A freshly booted kernel
    carrying a rolled-back durable image ({!Fs.clone} + {!Fs.crash}) is
    the restarted machine of {!restart}, minus the armed replay that
    produced the image — the snapshot-mode crash explorer builds its
    per-boundary kernels this way.  Must be called before any process
    runs: resident file pages and open descriptors are keyed by the old
    volume's inodes, and on a fresh boot both sets are empty. *)

(** {1 Experiment control (used between runs, not by ICLs)} *)

val flush_file_cache : t -> unit
(** Instantly drop all file pages (the experiments' cache flush between
    trials). *)

val drop_all_memory : t -> unit
(** Drop file and anonymous pages and forget swap state (fresh boot). *)

(** {1 Counters} *)

type counters = {
  c_reads : int;
  c_writes : int;
  c_bytes_read : int;
  c_bytes_written : int;
  c_page_ins : int;  (** anonymous page-ins from swap *)
  c_page_outs : int;  (** anonymous page-outs to swap *)
  c_zero_fills : int;
  c_file_fetches : int;  (** file pages fetched from disk *)
  c_file_writebacks : int;
}

val counters : t -> counters
(** Machine-wide totals since boot (or the last {!reset_counters}),
    {!restart}s included: the ledger's {!Account.total}, live rows and
    reaped aggregates alike, plus a carry holding what [restart] took
    out of the ledger.  [c_reads] counts completed non-empty reads and
    [c_writes] completed writes, where the ledger's per-kind syscall
    counts count entries.  Costs O(live rows + reaped names). *)

val reset_counters : t -> unit
(** Zero {!counters}; the ledger's rows are untouched. *)

(** {1 White-box access (for {!Introspect} and tests only)} *)

val memory : t -> Memory.t
val volume_fs : t -> int -> Fs.t
val volume_disk : t -> int -> Disk.t
val swap_disk : t -> Disk.t
val resolve_path : t -> string -> (int * string, error) result
(** Split ["/d0/a/b"] into [(0, "/a/b")]. *)

val global_ino : t -> volume:int -> ino:int -> int
(** The inode identity used in {!Page.key} file pages. *)

val swapped_pages : t -> pid:int -> int
(** Anonymous pages of this process currently on the swap disk. *)

val noise : t -> Gray_util.Rng.t
(** The generator behind every noised cost and touch sample. *)

val swap_table : t -> Page.Tbl.t
(** The anonymous pages out on swap (values unused). *)

val region_first_vpn : region -> int
(** The virtual page number of the region's first page. *)

val live_procs : t -> int
(** Processes whose fiber has started and not yet cleaned up — crashed
    fibers must not linger here (their fds and memory are reclaimed on the
    crash path). *)

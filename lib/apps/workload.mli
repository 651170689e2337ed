(** Workload generation: the file populations and aging churn used by the
    paper's experiments, plus shared chunked-I/O helpers.

    File {e contents} are never materialised — the simulator moves bytes,
    and "which file contains the search pattern" is decided by the
    workload (an oracle), since only the position of matches affects the
    applications' I/O behaviour. *)

val ok_exn : ('a, Simos.Kernel.error) result -> 'a
(** Unwrap a syscall result, failing loudly (workloads are test fixtures;
    their syscalls are not supposed to fail). *)

(** The file-population helpers over any {!Graybox_core.Os_intf.S}
    backend — the host conformance suite and the host [gbp] pipeline use
    them to build real directories on disk. *)
module Make (Os : Graybox_core.Os_intf.S) : sig
  val write_file : Os.env -> string -> int -> unit
  (** Create a file of the given size with chunked sequential writes. *)

  val read_file : Os.env -> string -> unit
  (** Sequential chunked read of the whole file. *)

  val read_file_in_units : Os.env -> string -> unit_bytes:int -> unit

  val read_prefix : Os.env -> string -> bytes:int -> unit
  (** Chunked sequential read of the first [bytes] of the file (clamped to
      the file size; no-op when [bytes <= 0]) — warms a file to a chosen
      cached fraction. *)

  val make_files :
    Os.env ->
    dir:string ->
    prefix:string ->
    count:int ->
    size:int ->
    string list
  (** Create [dir] (if missing) and [count] files of [size] bytes, named
      [prefix ^ index]; returns the paths in creation order. *)

  val age_directory :
    Os.env ->
    Gray_util.Rng.t ->
    dir:string ->
    deletes:int ->
    creates:int ->
    size:int ->
    unit
  (** One aging epoch (Section 4.2.3): delete [deletes] random files from
      the directory, then create [creates] new ones of [size] bytes. *)

  val paths_in : Os.env -> dir:string -> string list
  (** All entries of [dir], sorted by name (a shell glob). *)
end

(** {1 The simulated-backend instance (the historical flat API)} *)

include module type of struct include Make (Graybox_core.Os_sim) end

(** {1 Fleet profiles}

    Per-process behaviours for multi-tenant fleets
    ([Graybox_core.Fleet]): each fleet member draws a profile and a
    private RNG, then loops rounds of profile-specific I/O, a small
    compute burst, and jittered think time.  Profiles only use the
    gray-box syscall interface, so a fleet is N ordinary applications
    contending for the page cache and CPUs. *)

type profile =
  | Scanner  (** streaming sequential pass over the whole population *)
  | Hot_set  (** re-reads a private hot set of ≤ 4 files *)
  | Zipf  (** per-round file choice, Zipf-skewed (θ = 0.9) *)
  | Idle  (** think time and a token compute burst; occupies a pid *)

val all_profiles : profile list
val profile_name : profile -> string

val draw_profile : Gray_util.Rng.t -> profile
(** The standard fleet mix: 20% scanners, 30% hot-set, 30% zipf,
    20% idle. *)

val fleet_unit : int
(** Read granularity of the profiles (64 KiB). *)

val fleet_population :
  Simos.Kernel.env -> dir:string -> files:int -> file_kb:int -> string array
(** The shared file population fleet members contend over — created once
    by a setup process before the fleet spawns. *)

val run_profile :
  Simos.Kernel.env ->
  Gray_util.Rng.t ->
  profile ->
  paths:string array ->
  rounds:int ->
  unit
(** Run [rounds] rounds of the profile against the shared population.
    Hot-set membership is drawn from [rng] at start-up; all I/O sizes
    and think times are deterministic given ([rng], [profile],
    [paths], [rounds]). *)

(** File Layout Detector and Controller (Section 4.2).

    {b Detection}: on FFS-descended file systems the i-number of a file
    (available through [stat]) predicts its on-disk position — files
    created consecutively in a clean directory get consecutive inodes and
    nearby data blocks.  Sorting a set of files by i-number therefore
    approximates their physical order and essentially obviates sorting by
    directory.

    {b Control}: as the file system ages this correlation decays, so the
    controller {e refreshes} a directory — moving the system back to a
    known state — in six steps: create a temporary sibling directory, sort
    the files (smallest first, so small files take the early inodes), copy
    them over in order, restore access/modification times, delete the
    original directory, rename the temporary into place.

    The refresh is not atomic (footnote 4 of the paper); a journal file in
    the parent directory lets {!Make.repair} fix up interrupted refreshes,
    and {!crash_points} enumerates the places a crash can be injected. *)

type stat_order = { so_path : string; so_ino : int; so_size : int }

val dirname : string -> string
val basename : string -> string

val order_by_directory : paths:string list -> string list
(** The weaker heuristic: group files by directory name (sorted), keeping
    the given order within a directory. *)

(** {1 Refresh control} *)

type crash_point =
  | After_mkdir
  | After_copies
  | After_utimes
  | After_delete
  | No_crash

val crash_points : crash_point list

exception Injected_crash of crash_point

(** The detector and controller over any {!Os_intf.S} backend.  Error
    returns never strand resources: [copy_file]'s descriptors are closed
    on every non-crash path, and a failed refresh rolls its temporary
    directory and journal back whenever the original directory is still
    intact (when it is not, everything is left for [repair] to roll
    forward — the copy may be the only surviving data). *)
module Make (Os : Os_intf.S) : sig
  val order_by_inumber :
    Os.env -> paths:string list -> (stat_order list, Simos.Kernel.error) result
  (** [stat] every file and return them sorted by i-number ascending. *)

  val refresh_directory :
    Os.env ->
    ?order:[ `Size_ascending | `Given of string list ] ->
    ?crash_at:crash_point ->
    dir:string ->
    unit ->
    (unit, Simos.Kernel.error) result
  (** Refresh [dir] (absolute path, e.g. ["/d0/data"]).  [order] defaults to
      smallest-first.  [crash_at] aborts by raising {!Injected_crash} at the
      given step — for crash-recovery tests only. *)

  val repair : Os.env -> parent:string -> (bool, Simos.Kernel.error) result
  (** Scan [parent] for an interrupted refresh (journal present) and roll it
      forward or back to a consistent state.  Returns [true] if a repair was
      performed.  This is the "nightly script that looks for a certain
      directory signature and patches up problems" of footnote 4. *)
end

(** {1 The simulated-backend instance (the historical flat API)} *)

include module type of struct include Make (Os_sim) end

val journal_name : string
(** Name of the journal file a refresh writes into the parent directory. *)

val journal_path : parent:string -> base:string -> string
(** Full path of the journal a refresh of [parent/base] uses. *)

val tmp_dir_path : parent:string -> base:string -> string
(** Full path of the temporary sibling directory the refresh copies
    into. *)

(** {1 Journal records (durable mode)}

    Under the crash plane ({!Os_intf.S.durability_on}) the refresh
    writes real intent/commit records into the journal (via the kernel's
    blob side-band) and fsyncs them, and {!Make.repair} consults the
    record to choose roll-back vs roll-forward; without a plane the
    journal stays an empty marker file and refresh/repair issue exactly
    the legacy syscall sequence.  Exposed for the crash explorer and the
    torn-journal tests. *)

val journal_content :
  base:string -> files:(string * int * int) list -> commit:bool -> string
(** The exact journal image a refresh of [base] writes: magic line, base
    line, one [file <size> <mtime> <name>] record per file, and — with
    [commit:true] — the final commit record. *)

val journal_committed : string -> base:string -> bool
(** Whether a journal image counts as committed: well-formed end to end
    with a final commit record.  Any torn or unparseable tail is [false]
    (roll back).  Pure; never raises. *)

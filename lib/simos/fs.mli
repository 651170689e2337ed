(** FFS-style file-system layout model.

    This module owns the namespace and the on-disk {e layout} decisions —
    cylinder groups, inode allocation, block allocation — but performs no
    I/O itself; the {!Kernel} turns layout into disk accesses and caching.

    Allocation follows the Berkeley FFS heuristics the paper's FLDC relies
    on (Section 4.2.1):
    - each directory is placed in a cylinder group (the group with the most
      free inodes at creation time);
    - a file's inode is the lowest free inode slot in its directory's
      group, so creation order matches i-number order in a fresh directory;
    - data blocks are allocated contiguously after the file's previous
      block when possible, else next-fit from the rotor of the inode's
      group, then spilling into following groups;
    - deletions free slots for first-fit reuse, which is exactly what makes
      i-number ordering decay as the file system {e ages}.

    Each cylinder group reserves its leading blocks for the inode table, so
    inodes and data live in separate regions of the group (the effect that
    makes stat-then-read faster than interleaving, Section 4.2.2).

    As in FFS's cylinder-group block, a group's block and inode bitmaps
    are bits, and its block-ownership map (4 bytes per data block) is made
    at the group's first block allocation: a fresh volume costs a bit per
    block and slot, and only groups that hold data cost more. *)

type t

type error = Enoent | Eexist | Enotdir | Eisdir | Enotempty | Enospc

val error_to_string : error -> string

type config = {
  total_blocks : int;
      (** volume size in 4 KB blocks; blocks past the last whole group
          belong to no group and are never allocated *)
  blocks_per_group : int;
  inodes_per_group : int;
}

val default_config : total_blocks:int -> config
(** 8 192-block (32 MB) groups with 1 024 inodes each. *)

val create : config -> t
val config : t -> config
val root_ino : t -> int

(** {1 Namespace} *)

val lookup : t -> string -> (int, error) result
(** Absolute-path lookup ("/dir/file") to an inode number. *)

val mkdir : t -> string -> (int, error) result
val create_file : t -> string -> (int, error) result
val unlink : t -> string -> (unit, error) result
(** Removes a file, or an {e empty} directory. *)

val rename : t -> src:string -> dst:string -> (unit, error) result
(** POSIX-style: an existing empty-directory or file target is replaced. *)

val readdir : t -> string -> (string list, error) result
(** Entry names, unspecified order. *)

(** {1 Attributes} *)

type stat_info = {
  st_ino : int;
  st_size : int;
  st_is_dir : bool;
  st_atime : int;
  st_mtime : int;
  st_blocks : int;
}

val stat_ino : t -> int -> (stat_info, error) result
val stat_path : t -> string -> (stat_info, error) result

val size_ino : t -> ino:int -> int
(** Current (volatile) size of an inode, [0] for unknown inodes.  The
    allocation-free fast path for the kernel's read/write bounds checks —
    {!stat_ino} builds a record per call. *)

val set_times : t -> ino:int -> atime:int -> mtime:int -> (unit, error) result
val mark_atime : t -> ino:int -> now:int -> unit
val mark_mtime : t -> ino:int -> now:int -> unit

(** {1 Data layout} *)

val resize : t -> ino:int -> size:int -> (unit, error) result
(** Grow (allocating blocks) or shrink (freeing them) a regular file. *)

val block_of_page : t -> ino:int -> idx:int -> int option
(** Disk block backing page [idx] of the file, if allocated. *)

type extent
(** An inode's block list, looked up once.  Valid only until the next
    change to any file's blocks (resize, unlink, rename over, crash). *)

val extent : t -> ino:int -> extent
(** Empty for an unknown inode. *)

val extent_block : extent -> int -> int
(** [block_of_page] on the looked-up list, with [-1] for [None]. *)

val pages_of_file : t -> ino:int -> int
(** Number of data pages ([ceil (size / 4 KB)]). *)

val inode_block : t -> ino:int -> int
(** Disk block holding this inode's on-disk record (inode-table region of
    its group). *)

val group_of_ino : int -> inodes_per_group:int -> int

(** {1 Durability}

    Namespace operations (create/unlink/rename/mkdir) are synchronous:
    they are durable at the syscall, FFS-style.  Per-inode write-back
    state — file size (and hence data blocks), times, and the side-band
    {!set_blob} content — is volatile until flushed by {!fsync_ino} or
    {!sync_all}.  {!crash} discards the volatile image. *)

val set_blob : t -> ino:int -> string -> (unit, error) result
(** Replace a regular file's side-band content (journal records live
    here).  [Eisdir] for directories, [Enoent] for missing inodes. *)

val blob : t -> ino:int -> string
(** Current (volatile) side-band content; [""] for unknown inodes. *)

val fsync_ino : t -> ino:int -> (unit, error) result
(** Make one inode's size, times and blob durable. *)

val sync_all : t -> unit
(** {!fsync_ino} for every inode (the [sync] syscall). *)

val crash : t -> unit
(** Roll every inode's volatile fields back to its durable image —
    shrinking files to their flushed size and freeing the tail blocks —
    and reset the allocator cursors as on a fresh mount.  The namespace
    itself survives. *)

val clone : t -> t
(** Deep copy of the complete volume state — durable and volatile fields,
    dirty-epoch bookkeeping included, so a {!checkpoint} token from the
    original stays valid against the copy and {!crash} rolls the copy
    back exactly as it would the original.  The snapshot-mode crash
    explorer clones the volume at each syscall boundary of one uncrashed
    run instead of replaying the workload prefix per boundary. *)

val equal : t -> t -> bool
(** Exact structural equality of the complete volume state (everything
    {!clone} copies; an ownership map never made equals one that owns
    nothing).  Two equal states are indistinguishable to every
    operation in this interface, so a deterministic computation over one
    (an fsck, a repair, a whole re-run) may reuse the verdict computed
    over the other — the memoisation key of the snapshot-mode explorer.
    Exact for images of a common lineage; conservative (may report
    unequal for observably equal states with different arena layouts)
    otherwise. *)

val check : t -> string list
(** Full-volume fsck: namespace reachability (no orphans, no double
    links, no dangling entries), inode-bitmap and free-count consistency,
    and block ownership (every file block in range, allocated, owned
    exactly once; sizes agree with block counts).  Returns a
    deterministic list of violations, [[]] when consistent.  Alias of
    {!check_full}. *)

val check_full : t -> string list
(** The full scan, kept as the oracle {!check_incremental} is proven
    against. *)

(** {1 Incremental fsck}

    Every mutating operation marks the inodes and allocation groups it
    touches with the current {e dirty epoch}.  {!checkpoint} starts a new
    epoch and returns a token; {!check_incremental} with that token
    re-validates only what was dirtied since — touched inodes (their
    reachability via maintained parent back-pointers, their block lists
    via a maintained block-ownership map, their bitmap slots) and touched
    groups (bitmap recounts) plus the O(groups) global totals.

    Equivalence contract: if the volume passed {!check_full} with [[]] at
    the moment of {!checkpoint}, and every subsequent change went through
    this module's operations (or {!break_one}), then
    [check_incremental t cp] returns the same violation multiset as
    [check_full t].  A stale token — from an older checkpoint, or
    invalidated by an epoch-counter wrap — can vouch for nothing, so the
    checker silently falls back to the full scan: it can be slow, never
    unsound. *)

type checkpoint

val checkpoint : t -> checkpoint
(** Start a new dirty epoch; subsequent marks accumulate against the
    returned token.  The caller is responsible for the contract above
    (the state should be known-consistent, e.g. fresh from a passing
    {!check_full}). *)

val check_incremental : t -> checkpoint -> string list
(** Dirty-set fsck (see the contract above).  Falls back to
    {!check_full} when the token is stale.  Metrics counters
    [fs.check.incremental] / [fs.check.fallback] / [fs.check.full]
    record which path ran. *)

val epoch_state : t -> int * int
(** [(generation, epoch)] — white-box, for the wraparound tests. *)

val break_one : t -> seed:int -> string option
(** Deliberately corrupt one piece of internal state — clear or set a
    bitmap bit, skew a free count, orphan an inode, plant a dangling
    entry, double-own a block, grow a size past its blocks — chosen
    deterministically from [seed], while honouring the dirty-marking
    contract so {!check_incremental} must catch it.  Returns a
    description of the damage, or [None] if the volume is too empty to
    corrupt.  White-box: for the differential test harness only. *)

(** {1 Introspection (white-box; used by tests and benches only)} *)

val layout_of_file : t -> ino:int -> int array
(** Data block addresses in page order. *)

val free_blocks : t -> int
val free_inodes : t -> int

val arena_stats : t -> int * int
(** [(slots used, slots capacity)] of the shared extent arena backing all
    per-file block lists. *)

val fragmentation_of_file : t -> ino:int -> float
(** Fraction of page transitions that are {e not} physically contiguous
    ([0.] = perfectly laid out). *)

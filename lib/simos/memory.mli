(** Physical-memory organisation: how file pages and anonymous pages share
    the machine's frames.

    Two arrangements cover the paper's three platforms:
    - {e unified}: one pool holds both kinds (Linux 2.2's "shared virtual
      memory/file cache", Section 4.3.3), so file-cache pages shrink under
      anonymous-memory pressure and vice versa;
    - {e split}: a fixed-size file cache plus a separate anonymous pool
      (NetBSD 1.5's fixed 64 MB cache; Solaris 7 modelled likewise with a
      large sticky file cache). *)

type layout =
  | Unified of Replacement.factory
  | Unified_balanced of {
      policy : Replacement.factory;
      file_floor_pages : int;
    }
      (** Linux 2.2-style balance: anonymous demand shrinks the file cache
          (never below the floor), but streaming file pages cannot push
          out resident anonymous memory — the kernel's reclaim preferred
          page-cache pages over swapping. *)
  | Split of {
      file_pages : int;
      file_policy : Replacement.factory;
      anon_policy : Replacement.factory;
    }

type t

val create : usable_pages:int -> layout -> t
(** [usable_pages] excludes the kernel's own reservation.  For [Split] the
    anonymous pool gets [usable_pages - file_pages]. *)

val access : t -> Page.key -> dirty:bool -> [ `Hit | `Filled of Pool.evicted list ]
(** Route the page to its pool (by key kind). *)

(** {1 Page-loop primitives}

    A walk over one extent looks each page up with {!Pool.try_hit} in
    the extent's pool ({!file_pool} or {!anon_pool}) and inserts each
    page that missed with {!fill_missed}.  {!access}, {!access_run} and
    the kernel's page loops are all built from these two. *)

type victims
(** An eviction callback wrapped with the resident-count bookkeeping. *)

val victims : t -> (Page.key -> dirty:bool -> unit) -> victims
(** Wrap a victim callback; one allocation, reusable for every miss of a
    walk. *)

val fill_missed : t -> victims -> Page.key -> dirty:bool -> int
(** Insert a page whose access just missed: pool victims first, then any
    balanced-layout rebalance overflow, each through the callback.
    Returns how many pages were evicted. *)

val access_run :
  t ->
  n:int ->
  key:(int -> Page.key) ->
  dirty:bool ->
  on_hit:(int -> Page.key -> unit) ->
  on_miss:(int -> Page.key -> unit) ->
  on_evict:(Page.key -> dirty:bool -> unit) ->
  on_page_end:(int -> evicted:int -> unit) ->
  unit
(** Batched access of [key 0 .. key (n-1)], which must all be the same
    kind (one file extent or one anonymous range — the pool is routed
    once).  Per page, in per-page-path order: [on_hit] {e or} [on_miss]
    (before the insert), then the page's evictions — pool victims first,
    then any balanced-layout rebalance overflow — through [on_evict],
    then [on_page_end] with the eviction count.  Observably equivalent to
    [n] {!access} calls, without the per-page list/option allocation: a
    per-key loop over {!Pool.try_hit} and {!fill_missed}. *)

val contains : t -> Page.key -> bool
val invalidate : t -> Page.key -> unit
val invalidate_if : t -> (Page.key -> bool) -> int
val drop_file_cache : t -> unit

val invalidate_anon_range : t -> pid:int -> lo:int -> hi:int -> int
(** Drop the anonymous pages [vpn ∈ [lo, hi)] of process [pid] by direct
    per-key probes — O(range) instead of {!invalidate_if}'s O(resident)
    predicate scan.  Returns how many were resident.  This is the
    region-free path ([vfree]/[vrelease]/process exit), which the crash
    explorer's MAC workloads hit once per allocate/free cycle. *)

val reset : t -> unit
(** Drop {e all} resident pages in O(1) of the resident count (see
    {!Pool.clear}); the balanced layout's file capacity returns to the
    full usable size.  The whole-machine restart path. *)

(** {1 Drift-plane mutations (experiment control, not for ICLs)} *)

val resize_file_into :
  t -> capacity_pages:int -> on_evict:(Page.key -> dirty:bool -> unit) -> unit
(** Resize the file cache under a live machine (the drift plane's mid-run
    cache change).  The unified layout resizes the single shared pool
    (overflow victims may be of either kind); the balanced layout moves
    its floating rebalance target by the same delta so the next anonymous
    miss does not undo the change.  Victims stream through [on_evict] for
    writeback charging. *)

val swap_file_policy : t -> Replacement.factory -> unit
(** Swap the file pool's replacement policy in place (see
    {!Pool.set_policy}); affects both kinds in the unified layout.  No
    page is evicted; recency state restarts from sorted key order. *)

val file_pool : t -> Pool.t
val anon_pool : t -> Pool.t
(** Equal to [file_pool] in the unified layout. *)

val unified : t -> bool

val file_capacity : t -> int
(** Frames the file cache can grow to (the whole pool when unified). *)

val anon_capacity : t -> int
val resident_file : t -> int
val resident_anon : t -> int

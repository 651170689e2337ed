(** Capacity-enforced page pool over a replacement policy.

    The pool owns the resident-set bookkeeping (capacity, hit and eviction
    counters) and delegates ordering decisions — and the per-page dirty
    bits — to a {!Replacement} policy instance.  The kernel charges I/O
    costs for the dirty pages an access pushes out.

    Two API styles cover the same semantics: the list-building {!access}
    (one allocation-friendly result per page, convenient for tests and
    cold paths) and the fast path ({!try_hit}/{!fill}) that the
    kernel's page loops use.  The differential suite
    [test_pool_equiv] holds them observably identical. *)

type t

type evicted = { key : Page.key; dirty : bool }

val create : name:string -> capacity_pages:int -> policy:Replacement.factory -> t
val name : t -> string
val capacity : t -> int

val policy_name : t -> string
(** Name of the replacement policy currently running the pool. *)

val set_policy : t -> Replacement.factory -> unit
(** Swap the replacement policy under a live pool (the drift plane's
    mid-run policy change).  Resident pages carry over with their dirty
    bits, re-inserted into the fresh policy instance in sorted key order —
    a fixed order, so swapped runs stay deterministic.  The old policy's
    recency information is lost by design; no page is evicted. *)

val resident : t -> int
val contains : t -> Page.key -> bool

val access : t -> Page.key -> dirty:bool -> [ `Hit | `Filled of evicted list ]
(** Look up the page; on a miss, insert it, evicting as needed.  [dirty]
    marks the page dirty (writes).  The returned list holds the evicted
    pages (at most one per access in steady state). *)

(** {1 Batched fast path}

    A walk over a contiguous run looks each page up once with
    {!try_hit} and inserts each page that missed with {!fill},
    streaming evictions through a callback, so the hot loop performs no
    list or option allocation.  Per-page observable behaviour (hit/miss
    counters, eviction order, dirty bits) is identical to calling
    {!access} page by page. *)

val try_hit : t -> Page.key -> dirty:bool -> bool
(** One-lookup access: on a hit, count it, touch the policy, OR in the
    dirty bit, return [true].  On a miss, count the miss and return
    [false] {e without} inserting — the caller must follow up with
    {!fill} (this is the miss half of {!access}). *)

val fill : t -> Page.key -> dirty:bool -> on_evict:(Page.key -> dirty:bool -> unit) -> unit
(** Insert a key that {!try_hit} just missed, evicting while the pool is
    at capacity; victims stream through [on_evict] in eviction order. *)

val evict_one : t -> evicted option
(** Force one eviction (page-daemon style), if any page is resident. *)

val resize : t -> capacity_pages:int -> evicted list
(** Change the capacity; shrinking below the resident count evicts the
    overflow and returns it (for writeback charging). *)

val resize_into :
  t -> capacity_pages:int -> on_evict:(Page.key -> dirty:bool -> unit) -> unit
(** {!resize} with victims streamed through a callback instead of a
    list (the balanced-memory rebalance path runs per anonymous miss). *)

val invalidate : t -> Page.key -> unit
(** Drop a page without writeback (file deleted, process exited). *)

val take : t -> Page.key -> bool
(** [invalidate] that reports whether the key was resident, in the same
    single probe — the building block of range invalidation, where a
    [contains]-then-[invalidate] pair would probe twice per candidate. *)

val invalidate_if : t -> (Page.key -> bool) -> int
(** Drop all pages matching the predicate; returns how many were dropped. *)

val drop_all : t -> unit
(** Flush the pool (the experiments' "flush the file cache" step). *)

val clear : t -> unit
(** {!drop_all} in O(1) of the resident count: rebuild a fresh (empty)
    instance of the current policy instead of removing pages one by one.
    Counters are preserved, like {!drop_all}.  The whole-machine restart
    path uses this so a crash boundary does not pay an O(resident)
    scan. *)

val is_dirty : t -> Page.key -> bool

val clean : t -> Page.key -> unit
(** Drop a resident page's dirty bit in place (fsync wrote it back); the
    page stays resident. *)

val iter : t -> (Page.key -> unit) -> unit

(** {1 Counters} *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val reset_counters : t -> unit

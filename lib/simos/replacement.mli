(** Page-replacement policies.

    A policy tracks the set of resident page keys — including each page's
    dirty bit, so the hot path costs one index lookup — and chooses
    eviction victims; the enclosing {!Pool} enforces capacity and counts.
    Each call to a factory creates an independent stateful instance (a
    first-class module).

    Every policy keeps its pages in one frame table: unboxed frames in a
    flat [int array] (key words, dirty and list flags, clock weight,
    list links) found through a {!Page.Tbl} index.  A hit ({!POLICY.access}
    on a resident key) allocates nothing; an eviction allocates only the
    victim key it hands to the callback; {!POLICY.iter} builds one key per
    resident page.

    Policies provided:
    - [lru] — exact least-recently-used;
    - [clock] — one-hand clock with reference bits, the classical LRU
      approximation ("any operating system using an approximation of LRU,
      such as the clock algorithm", Section 4.1.1);
    - [fifo] — insertion order, ignores hits;
    - [mru_sticky] — evicts the {e most} recently inserted/used page, so the
      first data loaded stays resident; models the persistent Solaris 7 file
      cache observed in Section 4.1.3 ("once a file is placed in the Solaris
      file cache, it is quite difficult to dislodge");
    - [two_q] — simplified 2Q: a FIFO probation queue in front of a
      protected LRU main queue;
    - [segmented_lru] — probationary + protected LRU segments. *)

module type POLICY = sig
  val name : string
  val mem : Page.key -> bool

  val is_dirty : Page.key -> bool
  (** Dirty bit of a resident key; [false] for unknown keys. *)

  val access : Page.key -> dirty:bool -> bool
  (** Single-lookup hit path: when the key is resident, record the hit
      (reorder / age per the policy), OR in [dirty], and return [true].
      When it is not, return [false] {e without} touching any policy
      state — the caller decides whether to {!insert}. *)

  val insert : Page.key -> dirty:bool -> unit
  (** Add a key that must not currently be present. *)

  val evict : (Page.key -> dirty:bool -> unit) -> bool
  (** Choose an eviction victim, remove it, and hand it (with its dirty
      bit) to the callback; [false] when no page is resident.  The
      callback form keeps the victim key the only allocation of an
      eviction. *)

  val remove : Page.key -> bool
  (** Drop a key (invalidation, not eviction — no victim callback);
      [true] if it was resident.  Returning presence lets range
      invalidation probe each candidate exactly once instead of
      [mem]-then-[remove]. *)

  val clean : Page.key -> unit
  (** Drop a resident key's dirty bit without evicting it (writeback in
      place — the fsync path).  Unknown keys are ignored. *)

  val size : unit -> int

  val iter : (Page.key -> unit) -> unit
  (** Resident keys in the policy's list order (for the two-segment
      policies, the first segment before the second; each from its MRU
      end). *)
end

type t = (module POLICY)

type factory = capacity:int -> t
(** [capacity] is a sizing hint (2Q and segmented-LRU partition it);
    policies never refuse inserts — the pool evicts before inserting. *)

val name : t -> string
val lru : factory
val clock : factory
val fifo : factory
val mru_sticky : factory
val two_q : factory
val segmented_lru : factory

val eelru : factory
(** Approximate EELRU (cited by the paper as the adaptive escape from
    "LRU worst-case mode"): evicts at an early recency point instead of
    the tail when recently evicted pages keep coming back — i.e. when the
    workload loops over more data than fits. *)

val of_name : string -> factory
(** Look up a factory by policy name; raises [Invalid_argument] on unknown
    names.  Useful for CLI flags and ablation sweeps. *)

val all_names : string list

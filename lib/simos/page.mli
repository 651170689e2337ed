(** Identities of cacheable pages.

    Physical memory frames hold either file pages (identified by inode
    number and page index within the file) or anonymous process pages
    (identified by pid and virtual page number). *)

type key =
  | File of { ino : int; idx : int }
  | Anon of { pid : int; vpn : int }

val equal : key -> key -> bool
val hash : key -> int
val pp : Format.formatter -> key -> unit
val to_string : key -> string

val is_file : key -> bool
val is_anon : key -> bool

(** Open-addressing index from page keys to [int]s — the simulator's
    hottest data structure.  Keys are stored unboxed, as words in one flat
    [int array] next to their hash and value, so a probe compares keys
    without dereferencing anything and a resident set larger than the CPU
    cache costs one or two cache misses per lookup.  Neither a lookup nor
    a removal allocates.  A key's home slot is [hash key land (capacity t
    - 1)]; collisions probe linearly, and removal shifts the rest of the
    probe run back (no tombstones).  [create n] starts with room for [n]
    bindings at half load, at least 16 slots; the table doubles at
    two-thirds load.  Calling conventions follow [Hashtbl] ([replace]
    upserts, [find] raises [Not_found]); iteration order is arbitrary. *)
module Tbl : sig
  type t

  val create : int -> t
  val length : t -> int

  val capacity : t -> int
  (** Number of slots (a power of two). *)

  val find : t -> key -> int

  val find_or : t -> key -> default:int -> int
  (** [find] returning [default] for an absent key: no exception on the
      miss path. *)

  val mem : t -> key -> bool
  val replace : t -> key -> int -> unit

  val add : t -> key -> int -> unit
  (** [replace] for a key the caller {e knows} is absent (the insert after
      a miss): one probe instead of two.  Inserting a present key this way
      duplicates it — callers own that invariant. *)

  val remove : t -> key -> unit

  val remove_words : t -> kind:int -> int -> int -> unit
  (** [remove] of the key given as words: [kind] 0 is [File {ino; idx}]
      and 1 is [Anon {pid; vpn}], followed by the two fields in order.
      Lets a caller that keeps keys unboxed drop one without building it. *)

  val iter : (key -> int -> unit) -> t -> unit
  (** [f] must not add or remove bindings. *)

  val reset : t -> unit
end

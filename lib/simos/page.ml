type key =
  | File of { ino : int; idx : int }
  | Anon of { pid : int; vpn : int }

let equal (a : key) (b : key) =
  match (a, b) with
  | File a, File b -> a.ino = b.ino && a.idx = b.idx
  | Anon a, Anon b -> a.pid = b.pid && a.vpn = b.vpn
  | File _, Anon _ | Anon _, File _ -> false

let kind_file = 0
let kind_anon = 1

(* Page lookups dominate the simulator's hot path, so the hash must not
   allocate (the generic [Hashtbl.hash] boxes a scratch tuple per call).
   Fibonacci-style integer mixing keeps neighbouring (ino, idx) pairs well
   spread.  Bit 61 carries the kind, so one word comparison tells file
   keys from anonymous ones; the hash stays non-negative, leaving
   negative words free for the index's empty-slot marker. *)
let kind_bit = 61

let hash_words kind a b =
  let h = (a * 0x9E3779B1) lxor (b * 0x85EBCA77) lxor (kind * 0x5bd1e995) in
  let h = h lxor (h lsr 23) in
  ((h * 0xC2B2AE3D) land (max_int lsr 1)) lor (kind lsl kind_bit)

let hash = function
  | File { ino; idx } -> hash_words kind_file ino idx
  | Anon { pid; vpn } -> hash_words kind_anon pid vpn

let pp ppf = function
  | File { ino; idx } -> Format.fprintf ppf "file(ino=%d,page=%d)" ino idx
  | Anon { pid; vpn } -> Format.fprintf ppf "anon(pid=%d,vpn=%d)" pid vpn

let to_string k = Format.asprintf "%a" pp k
let is_file = function File _ -> true | Anon _ -> false
let is_anon = function Anon _ -> true | File _ -> false

(* Open-addressing index from page keys to ints.

   A resident set of a few hundred thousand pages does not fit in cache,
   so every page access pays DRAM latency per dependent load.  Here a slot
   is four consecutive words of one flat [int array] — stored hash, the
   key's two fields, the value — so a probe reads the hash and compares
   the key in the same cache line, and nothing is boxed: no key blocks,
   no value blocks, nothing for the GC to trace.  Linear probing from
   the home slot [hash land (capacity - 1)]; deletion shifts the rest of
   the probe run back over the hole (no tombstones, so no compaction
   rehash).  Every loop is a top-level function taking its state as
   arguments: without flambda, a local recursive function that captures
   its environment is a closure allocated per call.

   Iteration order is the slot order, which depends on the insertion and
   deletion history; no caller depends on it. *)
module Tbl = struct
  type t = {
    mutable slots : int array;  (* [hash; a; b; value] per slot *)
    mutable live : int;
  }

  let empty = -1
  let stride = 4

  let norm_capacity n =
    let rec up c = if c >= n then c else up (c * 2) in
    up 16

  let make_slots cap = Array.make (cap * stride) empty

  let create n = { slots = make_slots (norm_capacity (max 16 (n * 2))); live = 0 }
  let length t = t.live
  let capacity t = Array.length t.slots / stride

  (* Slot of the key [h]/[a]/[b], or [-1] when absent. *)
  let rec find_slot s mask h a b i =
    let o = i * stride in
    let sh = Array.unsafe_get s o in
    if sh = h && Array.unsafe_get s (o + 1) = a && Array.unsafe_get s (o + 2) = b then i
    else if sh = empty then -1
    else find_slot s mask h a b ((i + 1) land mask)

  let rec free_slot s mask i =
    if Array.unsafe_get s (i * stride) = empty then i
    else free_slot s mask ((i + 1) land mask)

  let lookup t kind a b =
    let s = t.slots in
    let mask = (Array.length s / stride) - 1 in
    let h = hash_words kind a b in
    find_slot s mask h a b (h land mask)

  let store s i h a b v =
    let o = i * stride in
    Array.unsafe_set s o h;
    Array.unsafe_set s (o + 1) a;
    Array.unsafe_set s (o + 2) b;
    Array.unsafe_set s (o + 3) v

  let rec rehash_from t os i n =
    if i < n then begin
      let o = i * stride in
      let h = Array.unsafe_get os o in
      if h <> empty then begin
        let s = t.slots in
        let mask = (Array.length s / stride) - 1 in
        store s (free_slot s mask (h land mask)) h
          (Array.unsafe_get os (o + 1))
          (Array.unsafe_get os (o + 2))
          (Array.unsafe_get os (o + 3))
      end;
      rehash_from t os (i + 1) n
    end

  (* Insert a binding known to be absent, growing at two-thirds load. *)
  let insert t kind a b v =
    if 3 * t.live >= 2 * capacity t then begin
      let os = t.slots in
      t.slots <- make_slots (2 * capacity t);
      rehash_from t os 0 (Array.length os / stride)
    end;
    let s = t.slots in
    let mask = (Array.length s / stride) - 1 in
    let h = hash_words kind a b in
    store s (free_slot s mask (h land mask)) h a b v;
    t.live <- t.live + 1

  (* Backward-shift deletion: walk the probe run after [hole]; an entry
     whose home slot does not lie cyclically in (hole, j] may move into
     the hole, which then moves to [j].  The run's first empty slot ends
     the walk and the final hole becomes empty. *)
  let rec shift s mask hole j =
    let o = j * stride in
    let h = Array.unsafe_get s o in
    if h = empty then Array.unsafe_set s (hole * stride) empty
    else if (j - (h land mask)) land mask >= (j - hole) land mask then begin
      store s hole h
        (Array.unsafe_get s (o + 1))
        (Array.unsafe_get s (o + 2))
        (Array.unsafe_get s (o + 3));
      shift s mask j ((j + 1) land mask)
    end
    else shift s mask hole ((j + 1) land mask)

  let remove_words t ~kind a b =
    let i = lookup t kind a b in
    if i >= 0 then begin
      let s = t.slots in
      let mask = (Array.length s / stride) - 1 in
      shift s mask i ((i + 1) land mask);
      t.live <- t.live - 1
    end

  let slot_of t = function
    | File { ino; idx } -> lookup t kind_file ino idx
    | Anon { pid; vpn } -> lookup t kind_anon pid vpn

  let value t i = Array.unsafe_get t.slots ((i * stride) + 3)

  let find_or t key ~default =
    let i = slot_of t key in
    if i < 0 then default else value t i

  let find t key =
    let i = slot_of t key in
    if i < 0 then raise Not_found else value t i

  let mem t key = slot_of t key >= 0

  let add t key v =
    match key with
    | File { ino; idx } -> insert t kind_file ino idx v
    | Anon { pid; vpn } -> insert t kind_anon pid vpn v

  let replace t key v =
    let i = slot_of t key in
    if i >= 0 then Array.unsafe_set t.slots ((i * stride) + 3) v else add t key v

  let remove t key =
    match key with
    | File { ino; idx } -> remove_words t ~kind:kind_file ino idx
    | Anon { pid; vpn } -> remove_words t ~kind:kind_anon pid vpn

  let iter f t =
    let s = t.slots in
    for i = 0 to capacity t - 1 do
      let o = i * stride in
      let h = s.(o) in
      if h <> empty then
        f
          (if h lsr kind_bit = kind_file then File { ino = s.(o + 1); idx = s.(o + 2) }
           else Anon { pid = s.(o + 1); vpn = s.(o + 2) })
          s.(o + 3)
    done

  let reset t =
    t.slots <- make_slots 16;
    t.live <- 0
end

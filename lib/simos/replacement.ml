module type POLICY = sig
  val name : string
  val mem : Page.key -> bool
  val is_dirty : Page.key -> bool
  val access : Page.key -> dirty:bool -> bool
  val insert : Page.key -> dirty:bool -> unit
  val evict : (Page.key -> dirty:bool -> unit) -> bool
  val remove : Page.key -> bool
  val clean : Page.key -> unit
  val size : unit -> int
  val iter : (Page.key -> unit) -> unit
end

type t = (module POLICY)
type factory = capacity:int -> t

let name (module P : POLICY) = P.name

(* The frame table under every policy: resident pages live as fixed-size
   frames in one [int array], linked into one or two circular
   doubly-linked lists, and a {!Page.Tbl} index maps each key to its
   frame.  Frames 0 and 1 are the sentinels of lists 0 and 1 (head = MRU
   end, tail = LRU end; single-list policies leave list 1 empty); a
   frame's flags word records which list holds it, so the two-queue
   policies need no separate tag.  Freed frames go on a free list
   threaded through [f_next] and are reused before the arena grows; the
   arena doubles on demand and is never sized to the pool up front, since
   a fresh kernel (one per crash boundary) would pay for it at boot.

   Nothing here is boxed, so the hit path allocates nothing and the GC
   has no per-page blocks to trace or promote.  The one allocation per
   eviction is the victim key handed to the callback.  Every loop is a
   top-level function over explicit arguments: without flambda, a local
   recursive function capturing its environment is a closure allocated
   per call. *)
module Frames = struct
  (* word offsets within a frame *)
  let f_a = 0  (* ino or pid *)
  let f_b = 1  (* idx or vpn *)
  let f_flags = 2  (* bit 0: kind (0 file, 1 anon); bit 1: dirty; bits 2..: list *)
  let f_weight = 3  (* clock's aged reference count *)
  let f_prev = 4
  let f_next = 5
  let stride = 6
  let anon_bit = 1  (* = the anon kind of {!Page.Tbl.remove_words} *)
  let dirty_bit = 2
  let list_shift = 2

  type t = {
    mutable fr : int array;
    mutable fresh : int;  (* frames below this have been handed out *)
    mutable free : int;  (* free-list head, or -1 *)
    counts : int array;  (* frames on lists 0 and 1 *)
    index : Page.Tbl.t;  (* key -> frame *)
  }

  (* The index starts right-sized for small pools, so a fresh kernel
     skips the grow-rehash ladder, with a cap that keeps a huge pool's
     boot allocation bounded; [capacity / 8] reflects that most pools run
     far below capacity in the simulated workloads. *)
  let create ~capacity =
    let fr = Array.make (16 * stride) 0 in
    for l = 0 to 1 do
      fr.((l * stride) + f_prev) <- l;
      fr.((l * stride) + f_next) <- l
    done;
    {
      fr;
      fresh = 2;
      free = -1;
      counts = Array.make 2 0;
      index = Page.Tbl.create (min (max 16 (capacity / 8)) 1024);
    }

  let find fm key = Page.Tbl.find_or fm.index key ~default:(-1)
  let mem fm key = Page.Tbl.mem fm.index key
  let get fm id off = fm.fr.((id * stride) + off)
  let set fm id off v = fm.fr.((id * stride) + off) <- v
  let list_of fm id = get fm id f_flags lsr list_shift
  let dirty fm id = get fm id f_flags land dirty_bit <> 0
  let set_dirty fm id = set fm id f_flags (get fm id f_flags lor dirty_bit)
  let head fm l = get fm l f_next
  let tail fm l = get fm l f_prev
  let count fm l = fm.counts.(l)
  let size fm = fm.counts.(0) + fm.counts.(1)

  let link_front fm l id =
    let first = head fm l in
    set fm id f_prev l;
    set fm id f_next first;
    set fm first f_prev id;
    set fm l f_next id;
    fm.counts.(l) <- fm.counts.(l) + 1

  let unlink fm l id =
    let p = get fm id f_prev and n = get fm id f_next in
    set fm p f_next n;
    set fm n f_prev p;
    fm.counts.(l) <- fm.counts.(l) - 1

  let move_to_front fm l id =
    if head fm l <> id then begin
      unlink fm l id;
      link_front fm l id
    end

  (* Move a frame to the front of another list (promotion, demotion). *)
  let transfer fm ~src ~dst id =
    unlink fm src id;
    link_front fm dst id;
    set fm id f_flags
      ((get fm id f_flags land (anon_bit lor dirty_bit)) lor (dst lsl list_shift))

  let alloc fm =
    if fm.free >= 0 then begin
      let id = fm.free in
      fm.free <- get fm id f_next;
      id
    end
    else begin
      let id = fm.fresh in
      let len = Array.length fm.fr in
      if (id + 1) * stride > len then begin
        let fr = Array.make (2 * len) 0 in
        Array.blit fm.fr 0 fr 0 len;
        fm.fr <- fr
      end;
      fm.fresh <- id + 1;
      id
    end

  (* Add an absent key at the front of list [l]. *)
  let insert fm l key ~dirty ~weight =
    let id = alloc fm in
    let dirty = if dirty then dirty_bit else 0 and l_bits = l lsl list_shift in
    (match key with
    | Page.File { ino; idx } ->
      set fm id f_a ino;
      set fm id f_b idx;
      set fm id f_flags (dirty lor l_bits)
    | Page.Anon { pid; vpn } ->
      set fm id f_a pid;
      set fm id f_b vpn;
      set fm id f_flags (anon_bit lor dirty lor l_bits));
    set fm id f_weight weight;
    link_front fm l id;
    Page.Tbl.add fm.index key id

  let key_of fm id =
    if get fm id f_flags land anon_bit = 0 then
      Page.File { ino = get fm id f_a; idx = get fm id f_b }
    else Page.Anon { pid = get fm id f_a; vpn = get fm id f_b }

  (* Unlink frame [id] from list [l], unindex it and free it. *)
  let drop fm l id =
    unlink fm l id;
    Page.Tbl.remove_words fm.index
      ~kind:(get fm id f_flags land anon_bit)
      (get fm id f_a) (get fm id f_b);
    set fm id f_next fm.free;
    fm.free <- id

  let evict_frame fm l id on_evict =
    let key = key_of fm id and dirty = dirty fm id in
    drop fm l id;
    on_evict key ~dirty

  (* Evict the tail of list [l], if it has one. *)
  let take fm l on_evict =
    count fm l > 0
    && begin
      evict_frame fm l (tail fm l) on_evict;
      true
    end

  let rec iter_from fm l id f =
    if id <> l then begin
      let next = get fm id f_next in
      f (key_of fm id);
      iter_from fm l next f
    end

  (* The operations every policy shares: list 0 iterates before list 1. *)
  module Shared (X : sig
    val fm : t
  end) =
  struct
    let mem key = mem X.fm key

    let is_dirty key =
      let id = find X.fm key in
      id >= 0 && dirty X.fm id

    let remove key =
      let id = find X.fm key in
      id >= 0
      && begin
        drop X.fm (list_of X.fm id) id;
        true
      end

    (* Writeback without eviction (fsync): the page stays resident in
       place, only its dirty bit drops. *)
    let clean key =
      let id = find X.fm key in
      if id >= 0 then set X.fm id f_flags (get X.fm id f_flags land lnot dirty_bit)

    let size () = size X.fm

    let iter f =
      iter_from X.fm 0 (head X.fm 0) f;
      iter_from X.fm 1 (head X.fm 1) f
  end
end

(* LRU and MRU share everything except which end of the list the victim
   comes from. *)
let list_policy ~policy_name ~victim_end ~capacity () : t =
  let fm = Frames.create ~capacity in
  (module struct
    let name = policy_name

    include Frames.Shared (struct
      let fm = fm
    end)

    let access key ~dirty =
      let id = Frames.find fm key in
      id >= 0
      && begin
        if dirty then Frames.set_dirty fm id;
        Frames.move_to_front fm 0 id;
        true
      end

    let insert key ~dirty = Frames.insert fm 0 key ~dirty ~weight:0

    let evict on_evict =
      Frames.count fm 0 > 0
      && begin
        Frames.evict_frame fm 0
          (match victim_end with `Lru -> Frames.tail fm 0 | `Mru -> Frames.head fm 0)
          on_evict;
        true
      end
  end)

let lru ~capacity = list_policy ~policy_name:"lru" ~victim_end:`Lru ~capacity ()

let mru_sticky ~capacity =
  list_policy ~policy_name:"mru-sticky" ~victim_end:`Mru ~capacity ()

let fifo ~capacity : t =
  let fm = Frames.create ~capacity in
  (module struct
    let name = "fifo"

    include Frames.Shared (struct
      let fm = fm
    end)

    let access key ~dirty =
      let id = Frames.find fm key in
      id >= 0
      && begin
        if dirty then Frames.set_dirty fm id;
        true
      end

    let insert key ~dirty = Frames.insert fm 0 key ~dirty ~weight:0
    let evict on_evict = Frames.take fm 0 on_evict
  end)

(* Clock with reference aging.  The list acts as the ring in insertion
   order; the hand sweeps from the LRU end, decrementing each page's aged
   reference count until it finds a cold (zero-weight) page.  Pages arrive
   with weight 1 (the faulting access references them) and repeated hits
   raise the weight up to a small cap, so genuinely re-used pages (a
   recycled heap, a hot file) survive several cache turnovers while
   streamed-once pages decay to FIFO — the behaviour of real active/
   inactive page aging. *)
let clock_max_weight = 2

let rec clock_sweep fm on_evict =
  Frames.count fm 0 > 0
  &&
  let id = Frames.tail fm 0 in
  let w = Frames.get fm id Frames.f_weight in
  if w > 0 then begin
    Frames.set fm id Frames.f_weight (w - 1);
    Frames.move_to_front fm 0 id;
    clock_sweep fm on_evict
  end
  else begin
    Frames.evict_frame fm 0 id on_evict;
    true
  end

let clock ~capacity : t =
  let fm = Frames.create ~capacity in
  (module struct
    let name = "clock"

    include Frames.Shared (struct
      let fm = fm
    end)

    let access key ~dirty =
      let id = Frames.find fm key in
      id >= 0
      && begin
        if dirty then Frames.set_dirty fm id;
        let w = Frames.get fm id Frames.f_weight in
        if w < clock_max_weight then Frames.set fm id Frames.f_weight (w + 1);
        true
      end

    let insert key ~dirty = Frames.insert fm 0 key ~dirty ~weight:1
    let evict on_evict = clock_sweep fm on_evict
  end)

(* The two-queue policies keep their first queue in list 0 and their
   second in list 1.  A hit on list 0 promotes the frame to the front of
   list 1 (same frame, so its dirty bit travels with it). *)
let first_list = 0
let second_list = 1

(* Simplified 2Q: new pages enter a FIFO probation queue (list 0) sized to
   a quarter of capacity; a hit while on probation promotes to the
   protected LRU main queue (list 1).  Victims come from probation
   first. *)
let two_q ~capacity : t =
  let fm = Frames.create ~capacity in
  let probation_max = max 1 (capacity / 4) in
  (module struct
    let name = "two-q"

    include Frames.Shared (struct
      let fm = fm
    end)

    let access key ~dirty =
      let id = Frames.find fm key in
      id >= 0
      && begin
        if dirty then Frames.set_dirty fm id;
        if Frames.list_of fm id = first_list then
          Frames.transfer fm ~src:first_list ~dst:second_list id
        else Frames.move_to_front fm second_list id;
        true
      end

    let insert key ~dirty = Frames.insert fm first_list key ~dirty ~weight:0

    let evict on_evict =
      (* Evict from probation while it exceeds its share, otherwise give up
         the coldest protected page; fall back to whichever queue has
         pages. *)
      if Frames.count fm first_list > probation_max then Frames.take fm first_list on_evict
      else Frames.take fm second_list on_evict || Frames.take fm first_list on_evict
  end)

(* Move [from]'s tail to the front of [to_] while [from] holds more than
   [max] frames. *)
let rec demote_overflow fm ~from ~to_ ~max =
  if Frames.count fm from > max then begin
    Frames.transfer fm ~src:from ~dst:to_ (Frames.tail fm from);
    demote_overflow fm ~from ~to_ ~max
  end

(* Segmented LRU: pages start probationary (list 0); a hit promotes to the
   protected segment (list 1, bounded to ~3/4 of capacity, demoting its
   LRU tail back to probation).  Victims come from the probationary
   tail. *)
let segmented_lru ~capacity : t =
  let fm = Frames.create ~capacity in
  let protected_max = max 1 (capacity * 3 / 4) in
  (module struct
    let name = "segmented-lru"

    include Frames.Shared (struct
      let fm = fm
    end)

    let access key ~dirty =
      let id = Frames.find fm key in
      id >= 0
      && begin
        if dirty then Frames.set_dirty fm id;
        if Frames.list_of fm id = first_list then begin
          Frames.transfer fm ~src:first_list ~dst:second_list id;
          demote_overflow fm ~from:second_list ~to_:first_list ~max:protected_max
        end
        else Frames.move_to_front fm second_list id;
        true
      end

    let insert key ~dirty = Frames.insert fm first_list key ~dirty ~weight:0

    let evict on_evict =
      Frames.take fm first_list on_evict || Frames.take fm second_list on_evict
  end)

(* EELRU's decayed evidence, an all-float record so updates store
   unboxed. *)
type eelru_evidence = { mutable late_hits : float; mutable ghost_hits : float }

let decay ev =
  ev.late_hits <- ev.late_hits *. 0.999;
  ev.ghost_hits <- ev.ghost_hits *. 0.999

(* Approximate EELRU (Smaragdakis, Kaplan & Wilson, SIGMETRICS '99), the
   adaptive fix for LRU's looping worst case that the paper cites for
   "LRU worst-case mode".  Residents are split at an early-eviction point
   [e ~ capacity/2] into an early segment (list 0) and a late one (list
   1); a bounded ghost list remembers recent evictions.  When recently
   evicted pages keep being re-referenced (a loop larger than memory)
   while pages between [e] and the LRU tail are not, the policy evicts
   early — at position [e] — preserving the head of the loop so part of
   it always hits.  The ghost list is a second frame table whose one list
   is the FIFO of remembered keys. *)
let eelru ~capacity : t =
  let early = first_list and late = second_list in
  let fm = Frames.create ~capacity in
  let ghosts = Frames.create ~capacity in
  let ghost_max = max 8 capacity in
  let early_max = max 1 (capacity / 2) in
  let ev = { late_hits = 0.0; ghost_hits = 0.0 } in
  (module struct
    let name = "eelru"

    include Frames.Shared (struct
      let fm = fm
    end)

    let access key ~dirty =
      let id = Frames.find fm key in
      id >= 0
      && begin
        decay ev;
        if dirty then Frames.set_dirty fm id;
        if Frames.list_of fm id = early then Frames.move_to_front fm early id
        else begin
          (* a hit beyond the early point argues against early eviction *)
          ev.late_hits <- ev.late_hits +. 1.0;
          Frames.transfer fm ~src:late ~dst:early id;
          demote_overflow fm ~from:early ~to_:late ~max:early_max
        end;
        true
      end

    let insert key ~dirty =
      decay ev;
      if Frames.mem ghosts key then
        (* re-reference shortly after eviction: the loop is bigger than
           memory — evidence for evicting early *)
        ev.ghost_hits <- ev.ghost_hits +. 1.0;
      Frames.insert fm early key ~dirty ~weight:0;
      demote_overflow fm ~from:early ~to_:late ~max:early_max

    let evict_at l id on_evict =
      let key = Frames.key_of fm id and dirty = Frames.dirty fm id in
      Frames.drop fm l id;
      if not (Frames.mem ghosts key) then begin
        Frames.insert ghosts 0 key ~dirty:false ~weight:0;
        if Frames.count ghosts 0 > ghost_max then
          Frames.drop ghosts 0 (Frames.tail ghosts 0)
      end;
      on_evict key ~dirty

    let take l on_evict =
      Frames.count fm l > 0
      && begin
        evict_at l (Frames.tail fm l) on_evict;
        true
      end

    let evict on_evict =
      if ev.ghost_hits > ev.late_hits +. 1.0 then
        (* evict at the early point: the head of the late segment *)
        if Frames.count fm late > 0 then begin
          evict_at late (Frames.head fm late) on_evict;
          true
        end
        else take early on_evict
      else take late on_evict || take early on_evict
  end)

let registry =
  [
    ("lru", lru);
    ("clock", clock);
    ("fifo", fifo);
    ("mru-sticky", mru_sticky);
    ("two-q", two_q);
    ("segmented-lru", segmented_lru);
    ("eelru", eelru);
  ]

let of_name n =
  match List.assoc_opt n registry with
  | Some f -> f
  | None -> invalid_arg ("Replacement.of_name: unknown policy " ^ n)

let all_names = List.map fst registry

(* Reference replacement policies for the differential in
   [test_frame_equiv]: the boxed implementation the frame table replaced,
   kept verbatim in structure — one record node per resident page in
   intrusive doubly-linked lists, found through a stdlib [Hashtbl] — so
   any drift in victim order, dirty bits or iteration order between the
   two shows up as a log mismatch. *)

open Simos

type t = Replacement.t

(* Intrusive circular doubly-linked list with a sentinel, shared by all the
   list-based policies.  [weight] holds the clock's aged reference count;
   [tag] the owning segment of the two-queue policies; [dirty] the page's
   dirty bit. *)
module Dll = struct
  type node = {
    key : Page.key;
    mutable prev : node;
    mutable next : node;
    mutable weight : int;
    mutable dirty : bool;
    mutable tag : int;
  }

  type list_t = { sentinel : node; mutable count : int }

  let dummy_key = Page.File { ino = min_int; idx = min_int }

  let create () =
    let rec s =
      { key = dummy_key; prev = s; next = s; weight = 0; dirty = false; tag = 0 }
    in
    { sentinel = s; count = 0 }

  let is_empty t = t.count = 0

  (* head = MRU end, tail = LRU end *)
  let head t = t.sentinel.next
  let tail t = t.sentinel.prev

  let attach_front t node =
    let s = t.sentinel in
    node.prev <- s;
    node.next <- s.next;
    s.next.prev <- node;
    s.next <- node;
    t.count <- t.count + 1

  let push_front t key ~dirty =
    let s = t.sentinel in
    let node = { key; prev = s; next = s.next; weight = 0; dirty; tag = 0 } in
    s.next.prev <- node;
    s.next <- node;
    t.count <- t.count + 1;
    node

  let unlink t node =
    node.prev.next <- node.next;
    node.next.prev <- node.prev;
    node.prev <- node;
    node.next <- node;
    t.count <- t.count - 1

  let move_to_front t node =
    if t.sentinel.next != node then begin
      unlink t node;
      attach_front t node
    end

  let iter t f =
    let s = t.sentinel in
    let rec go node =
      if node != s then begin
        let next = node.next in
        f node;
        go next
      end
    in
    go s.next
end

let node_tbl ~capacity : (Page.key, Dll.node) Hashtbl.t =
  Hashtbl.create (min (max 16 (capacity / 8)) 1024)

let find_node tbl key : Dll.node = Hashtbl.find tbl key

let tbl_is_dirty tbl key =
  match find_node tbl key with
  | exception Not_found -> false
  | node -> node.Dll.dirty

(* Writeback without eviction (fsync): the page stays resident in place,
   only its dirty bit drops.  Unknown keys are ignored. *)
let tbl_clean tbl key =
  match find_node tbl key with
  | exception Not_found -> ()
  | node -> node.Dll.dirty <- false

(* LRU and MRU share everything except which end of the list the victim
   comes from. *)
let list_policy ~policy_name ~victim_end ~capacity () : t =
  let list = Dll.create () in
  let tbl = node_tbl ~capacity in
  (module struct
    let name = policy_name
    let mem key = Hashtbl.mem tbl key
    let is_dirty key = tbl_is_dirty tbl key

    let access key ~dirty =
      match find_node tbl key with
      | exception Not_found -> false
      | node ->
        if dirty then node.Dll.dirty <- true;
        Dll.move_to_front list node;
        true

    let insert key ~dirty =
      Hashtbl.replace tbl key (Dll.push_front list key ~dirty)

    let evict on_evict =
      if Dll.is_empty list then false
      else begin
        let node = match victim_end with `Lru -> Dll.tail list | `Mru -> Dll.head list in
        Dll.unlink list node;
        Hashtbl.remove tbl node.Dll.key;
        on_evict node.Dll.key ~dirty:node.Dll.dirty;
        true
      end

    let remove key =
      match find_node tbl key with
      | exception Not_found -> false
      | node ->
        Dll.unlink list node;
        Hashtbl.remove tbl key;
        true

    let clean key = tbl_clean tbl key
    let size () = list.Dll.count
    let iter f = Dll.iter list (fun node -> f node.Dll.key)
  end)

let lru ~capacity = list_policy ~policy_name:"lru" ~victim_end:`Lru ~capacity ()

let mru_sticky ~capacity =
  list_policy ~policy_name:"mru-sticky" ~victim_end:`Mru ~capacity ()

let fifo ~capacity : t =
  let list = Dll.create () in
  let tbl = node_tbl ~capacity in
  (module struct
    let name = "fifo"
    let mem key = Hashtbl.mem tbl key
    let is_dirty key = tbl_is_dirty tbl key

    let access key ~dirty =
      match find_node tbl key with
      | exception Not_found -> false
      | node ->
        if dirty then node.Dll.dirty <- true;
        true

    let insert key ~dirty =
      Hashtbl.replace tbl key (Dll.push_front list key ~dirty)

    let evict on_evict =
      if Dll.is_empty list then false
      else begin
        let node = Dll.tail list in
        Dll.unlink list node;
        Hashtbl.remove tbl node.Dll.key;
        on_evict node.Dll.key ~dirty:node.Dll.dirty;
        true
      end

    let remove key =
      match find_node tbl key with
      | exception Not_found -> false
      | node ->
        Dll.unlink list node;
        Hashtbl.remove tbl key;
        true

    let clean key = tbl_clean tbl key
    let size () = list.Dll.count
    let iter f = Dll.iter list (fun node -> f node.Dll.key)
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

let clock ~capacity : t =
  let list = Dll.create () in
  let tbl = node_tbl ~capacity in
  (module struct
    let name = "clock"
    let mem key = Hashtbl.mem tbl key
    let is_dirty key = tbl_is_dirty tbl key

    let access key ~dirty =
      match find_node tbl key with
      | exception Not_found -> false
      | node ->
        if dirty then node.Dll.dirty <- true;
        node.Dll.weight <- min (node.Dll.weight + 1) clock_max_weight;
        true

    let insert key ~dirty =
      let node = Dll.push_front list key ~dirty in
      node.Dll.weight <- 1;
      Hashtbl.replace tbl key node

    let evict on_evict =
      let rec sweep () =
        if Dll.is_empty list then false
        else begin
          let node = Dll.tail list in
          if node.Dll.weight > 0 then begin
            node.Dll.weight <- node.Dll.weight - 1;
            Dll.move_to_front list node;
            sweep ()
          end
          else begin
            Dll.unlink list node;
            Hashtbl.remove tbl node.Dll.key;
            on_evict node.Dll.key ~dirty:node.Dll.dirty;
            true
          end
        end
      in
      sweep ()

    let remove key =
      match find_node tbl key with
      | exception Not_found -> false
      | node ->
        Dll.unlink list node;
        Hashtbl.remove tbl key;
        true

    let clean key = tbl_clean tbl key
    let size () = list.Dll.count
    let iter f = Dll.iter list (fun node -> f node.Dll.key)
  end)

(* Segment tags for the two-queue policies. *)
let tag_probation = 0
let tag_main = 1

(* Simplified 2Q: new pages enter a FIFO probation queue sized to a quarter
   of capacity; a hit while on probation promotes to the protected LRU main
   queue.  Victims come from probation first.  Promotion moves the node
   between lists (same node, so its dirty bit travels with it). *)
let two_q ~capacity : t =
  let probation = Dll.create () in
  let main = Dll.create () in
  let where = node_tbl ~capacity in
  let probation_max = max 1 (capacity / 4) in
  (module struct
    let name = "two-q"
    let mem key = Hashtbl.mem where key
    let is_dirty key = tbl_is_dirty where key

    let access key ~dirty =
      match find_node where key with
      | exception Not_found -> false
      | node ->
        if dirty then node.Dll.dirty <- true;
        if node.Dll.tag = tag_probation then begin
          Dll.unlink probation node;
          Dll.attach_front main node;
          node.Dll.tag <- tag_main
        end
        else Dll.move_to_front main node;
        true

    let insert key ~dirty =
      Hashtbl.replace where key (Dll.push_front probation key ~dirty)

    let take list on_evict =
      if Dll.is_empty list then false
      else begin
        let node = Dll.tail list in
        Dll.unlink list node;
        Hashtbl.remove where node.Dll.key;
        on_evict node.Dll.key ~dirty:node.Dll.dirty;
        true
      end

    let evict on_evict =
      (* Evict from probation while it exceeds its share, otherwise give up
         the coldest protected page; fall back to whichever queue has
         pages. *)
      if probation.Dll.count > probation_max then take probation on_evict
      else take main on_evict || take probation on_evict

    let remove key =
      match find_node where key with
      | exception Not_found -> false
      | node ->
        Dll.unlink (if node.Dll.tag = tag_probation then probation else main) node;
        Hashtbl.remove where key;
        true

    let clean key = tbl_clean where key
    let size () = probation.Dll.count + main.Dll.count

    let iter f =
      Dll.iter probation (fun node -> f node.Dll.key);
      Dll.iter main (fun node -> f node.Dll.key)
  end)

(* Segmented LRU: pages start probationary; a hit promotes to the protected
   segment (bounded to ~3/4 of capacity, demoting its LRU tail back to
   probation).  Victims come from the probationary tail. *)
let segmented_lru ~capacity : t =
  let probation = Dll.create () in
  let protected_ = Dll.create () in
  let where = node_tbl ~capacity in
  let protected_max = max 1 (capacity * 3 / 4) in
  (module struct
    let name = "segmented-lru"
    let mem key = Hashtbl.mem where key
    let is_dirty key = tbl_is_dirty where key

    let demote_overflow () =
      while protected_.Dll.count > protected_max do
        let node = Dll.tail protected_ in
        Dll.unlink protected_ node;
        Dll.attach_front probation node;
        node.Dll.tag <- tag_probation
      done

    let access key ~dirty =
      match find_node where key with
      | exception Not_found -> false
      | node ->
        if dirty then node.Dll.dirty <- true;
        if node.Dll.tag = tag_probation then begin
          Dll.unlink probation node;
          Dll.attach_front protected_ node;
          node.Dll.tag <- tag_main;
          demote_overflow ()
        end
        else Dll.move_to_front protected_ node;
        true

    let insert key ~dirty =
      Hashtbl.replace where key (Dll.push_front probation key ~dirty)

    let take list on_evict =
      if Dll.is_empty list then false
      else begin
        let node = Dll.tail list in
        Dll.unlink list node;
        Hashtbl.remove where node.Dll.key;
        on_evict node.Dll.key ~dirty:node.Dll.dirty;
        true
      end

    let evict on_evict = take probation on_evict || take protected_ on_evict

    let remove key =
      match find_node where key with
      | exception Not_found -> false
      | node ->
        Dll.unlink
          (if node.Dll.tag = tag_probation then probation else protected_)
          node;
        Hashtbl.remove where key;
        true

    let clean key = tbl_clean where key
    let size () = probation.Dll.count + protected_.Dll.count

    let iter f =
      Dll.iter probation (fun node -> f node.Dll.key);
      Dll.iter protected_ (fun node -> f node.Dll.key)
  end)

(* Approximate EELRU (Smaragdakis, Kaplan & Wilson, SIGMETRICS '99), the
   adaptive fix for LRU's looping worst case that the paper cites for
   "LRU worst-case mode".  Residents are split at an early-eviction point
   [e ~ capacity/2]; a bounded ghost list remembers recent evictions.
   When recently evicted pages keep being re-referenced (a loop larger
   than memory) while pages between [e] and the LRU tail are not, the
   policy evicts early — at position [e] — preserving the head of the
   loop so part of it always hits. *)
let eelru ~capacity : t =
  let early = Dll.create () in
  let late = Dll.create () in
  let where = node_tbl ~capacity in
  let ghosts : (Page.key, int) Hashtbl.t = Hashtbl.create 64 in
  let ghost_fifo = Queue.create () in
  let ghost_max = max 8 capacity in
  let early_max = max 1 (capacity / 2) in
  let late_hits = ref 0.0 in
  let ghost_hits = ref 0.0 in
  let decay () =
    late_hits := !late_hits *. 0.999;
    ghost_hits := !ghost_hits *. 0.999
  in
  let add_ghost key =
    if not (Hashtbl.mem ghosts key) then begin
      Hashtbl.replace ghosts key 0;
      Queue.push key ghost_fifo;
      while Queue.length ghost_fifo > ghost_max do
        Hashtbl.remove ghosts (Queue.pop ghost_fifo)
      done
    end
  in
  (* early = tag_main, late = tag_probation would read backwards; use
     explicit tags for the two recency segments instead. *)
  let tag_early = 0 and tag_late = 1 in
  (module struct
    let name = "eelru"
    let mem key = Hashtbl.mem where key
    let is_dirty key = tbl_is_dirty where key

    let demote_overflow () =
      while early.Dll.count > early_max do
        let node = Dll.tail early in
        Dll.unlink early node;
        Dll.attach_front late node;
        node.Dll.tag <- tag_late
      done

    let access key ~dirty =
      match find_node where key with
      | exception Not_found -> false
      | node ->
        decay ();
        if dirty then node.Dll.dirty <- true;
        if node.Dll.tag = tag_early then Dll.move_to_front early node
        else begin
          (* a hit beyond the early point argues against early eviction *)
          late_hits := !late_hits +. 1.0;
          Dll.unlink late node;
          Dll.attach_front early node;
          node.Dll.tag <- tag_early;
          demote_overflow ()
        end;
        true

    let insert key ~dirty =
      decay ();
      if Hashtbl.mem ghosts key then
        (* re-reference shortly after eviction: the loop is bigger than
           memory — evidence for evicting early *)
        ghost_hits := !ghost_hits +. 1.0;
      Hashtbl.replace where key (Dll.push_front early key ~dirty);
      demote_overflow ()

    let take_node list node on_evict =
      Dll.unlink list node;
      Hashtbl.remove where node.Dll.key;
      add_ghost node.Dll.key;
      on_evict node.Dll.key ~dirty:node.Dll.dirty

    let take list on_evict =
      if Dll.is_empty list then false
      else begin
        take_node list (Dll.tail list) on_evict;
        true
      end

    let evict on_evict =
      let early_eviction = !ghost_hits > !late_hits +. 1.0 in
      if early_eviction then
        (* evict at the early point: the head of the late segment *)
        if not (Dll.is_empty late) then begin
          take_node late (Dll.head late) on_evict;
          true
        end
        else take early on_evict
      else take late on_evict || take early on_evict

    let remove key =
      match find_node where key with
      | exception Not_found -> false
      | node ->
        Dll.unlink (if node.Dll.tag = tag_early then early else late) node;
        Hashtbl.remove where key;
        true

    let clean key = tbl_clean where key
    let size () = early.Dll.count + late.Dll.count

    let iter f =
      Dll.iter early (fun node -> f node.Dll.key);
      Dll.iter late (fun node -> f node.Dll.key)
  end)

let all =
  [
    ("lru", lru);
    ("clock", clock);
    ("fifo", fifo);
    ("mru-sticky", mru_sticky);
    ("two-q", two_q);
    ("segmented-lru", segmented_lru);
    ("eelru", eelru);
  ]

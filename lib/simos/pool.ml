type evicted = { key : Page.key; dirty : bool }

type t = {
  name : string;
  mutable capacity : int;
  mutable policy : Replacement.t;  (* swappable mid-run by the drift plane *)
  mutable factory : Replacement.factory;  (* rebuilds [policy] for {!clear} *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~name ~capacity_pages ~policy =
  if capacity_pages <= 0 then invalid_arg "Pool.create: capacity must be positive";
  {
    name;
    capacity = capacity_pages;
    policy = policy ~capacity:capacity_pages;
    factory = policy;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let name t = t.name
let capacity t = t.capacity

let policy_name t =
  let (module P : Replacement.POLICY) = t.policy in
  P.name

(* Replace the replacement policy under a live pool (the drift plane's
   mid-run policy swap).  Resident pages carry over with their dirty bits;
   they re-enter the new policy instance in sorted key order — a fixed,
   schedule-independent order, so a swapped run stays deterministic.  The
   recency information of the old policy is deliberately lost: that is
   exactly the disturbance being modelled. *)
let set_policy t factory =
  let (module Old : Replacement.POLICY) = t.policy in
  let pages = ref [] in
  Old.iter (fun key -> pages := (key, Old.is_dirty key) :: !pages);
  let fresh = factory ~capacity:t.capacity in
  let (module New : Replacement.POLICY) = fresh in
  List.iter (fun (key, dirty) -> New.insert key ~dirty) (List.sort compare !pages);
  t.policy <- fresh;
  t.factory <- factory

let resident t =
  let (module P : Replacement.POLICY) = t.policy in
  P.size ()

let contains t key =
  let (module P : Replacement.POLICY) = t.policy in
  P.mem key

(* ---- fast path ---- *)

let try_hit t key ~dirty =
  let (module P : Replacement.POLICY) = t.policy in
  if P.access key ~dirty then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    false
  end

(* A full pool (capacity >= 1) always has a victim, so each eviction is
   counted before [evict] runs: the count is already up when [on_evict]
   sees the victim, with no counting closure to allocate. *)
let fill t key ~dirty ~on_evict =
  let (module P : Replacement.POLICY) = t.policy in
  while P.size () >= t.capacity do
    t.evictions <- t.evictions + 1;
    if not (P.evict on_evict) then failwith "Pool.access: policy lost pages"
  done;
  P.insert key ~dirty

(* ---- list-building compatibility path ---- *)

let access t key ~dirty =
  if try_hit t key ~dirty then `Hit
  else begin
    let out = ref [] in
    fill t key ~dirty ~on_evict:(fun k ~dirty -> out := { key = k; dirty } :: !out);
    `Filled (List.rev !out)
  end

let evict_one t =
  let (module P : Replacement.POLICY) = t.policy in
  let out = ref None in
  if
    P.evict (fun k ~dirty ->
        t.evictions <- t.evictions + 1;
        out := Some { key = k; dirty })
  then !out
  else None

let resize_into t ~capacity_pages ~on_evict =
  if capacity_pages <= 0 then invalid_arg "Pool.resize: capacity must be positive";
  t.capacity <- capacity_pages;
  let (module P : Replacement.POLICY) = t.policy in
  while P.size () > t.capacity do
    t.evictions <- t.evictions + 1;
    if not (P.evict on_evict) then failwith "Pool.resize: policy lost pages"
  done

let resize t ~capacity_pages =
  let out = ref [] in
  resize_into t ~capacity_pages ~on_evict:(fun k ~dirty ->
      out := { key = k; dirty } :: !out);
  List.rev !out

let take t key =
  let (module P : Replacement.POLICY) = t.policy in
  P.remove key

let invalidate t key = ignore (take t key)

let invalidate_if t pred =
  let (module P : Replacement.POLICY) = t.policy in
  let doomed = ref [] in
  P.iter (fun key -> if pred key then doomed := key :: !doomed);
  List.iter (invalidate t) !doomed;
  List.length !doomed

let drop_all t = ignore (invalidate_if t (fun _ -> true))

(* Forget every resident page at once by rebuilding a fresh policy
   instance from the stored factory — O(1) in the resident count, against
   [drop_all]'s iterate-then-remove.  Observably identical to [drop_all]:
   both leave an empty pool running the same policy, and neither touches
   the counters. *)
let clear t = t.policy <- t.factory ~capacity:t.capacity

let is_dirty t key =
  let (module P : Replacement.POLICY) = t.policy in
  P.is_dirty key

let clean t key =
  let (module P : Replacement.POLICY) = t.policy in
  P.clean key

let iter t f =
  let (module P : Replacement.POLICY) = t.policy in
  P.iter f

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0

type layout =
  | Unified of Replacement.factory
  | Unified_balanced of {
      policy : Replacement.factory;
      file_floor_pages : int;
    }
  | Split of {
      file_pages : int;
      file_policy : Replacement.factory;
      anon_policy : Replacement.factory;
    }

type t = {
  file : Pool.t;
  anon : Pool.t;
  unified : bool;
  (* balanced mode: file capacity floats as usable - resident_anon;
     mutable because a drift-plane resize moves the usable total itself *)
  mutable balanced_usable : int option;
  mutable n_file : int;
  mutable n_anon : int;
}

let create ~usable_pages layout =
  if usable_pages <= 0 then invalid_arg "Memory.create: no usable pages";
  match layout with
  | Unified policy ->
    let pool = Pool.create ~name:"unified" ~capacity_pages:usable_pages ~policy in
    { file = pool; anon = pool; unified = true; balanced_usable = None;
      n_file = 0; n_anon = 0 }
  | Unified_balanced { policy; file_floor_pages } ->
    if file_floor_pages <= 0 || file_floor_pages >= usable_pages then
      invalid_arg "Memory.create: bad file-cache floor";
    let file = Pool.create ~name:"file" ~capacity_pages:usable_pages ~policy in
    let anon =
      Pool.create ~name:"anon" ~capacity_pages:(usable_pages - file_floor_pages)
        ~policy
    in
    { file; anon; unified = false; balanced_usable = Some usable_pages;
      n_file = 0; n_anon = 0 }
  | Split { file_pages; file_policy; anon_policy } ->
    if file_pages <= 0 || file_pages >= usable_pages then
      invalid_arg "Memory.create: bad file-cache size";
    let file = Pool.create ~name:"file" ~capacity_pages:file_pages ~policy:file_policy in
    let anon =
      Pool.create ~name:"anon" ~capacity_pages:(usable_pages - file_pages)
        ~policy:anon_policy
    in
    { file; anon; unified = false; balanced_usable = None; n_file = 0; n_anon = 0 }

let pool_for t key = if Page.is_file key then t.file else t.anon

let bump t key delta =
  if Page.is_file key then t.n_file <- t.n_file + delta
  else t.n_anon <- t.n_anon + delta

(* In the balanced layout the file cache holds whatever anonymous memory
   does not use; growing anon evicts file overflow.  [on_evict] receives
   the overflow victims and must bump the resident counts itself. *)
let rebalance_into t ~on_evict =
  match t.balanced_usable with
  | None -> ()
  | Some usable ->
    let target = max 1 (usable - t.n_anon) in
    if target <> Pool.capacity t.file then
      Pool.resize_into t.file ~capacity_pages:target ~on_evict

let rebalance t =
  rebalance_into t ~on_evict:(fun key ~dirty:_ -> bump t key (-1))

(* ---- the page-loop primitives ---- *)

type victims = Page.key -> dirty:bool -> unit

let victims t on_evict k ~dirty =
  bump t k (-1);
  on_evict k ~dirty

(* Every eviction is counted by its pool before the victim is handed
   over, so the difference of the totals is the number of victims. *)
let evictions t =
  if t.unified then Pool.evictions t.file else Pool.evictions t.file + Pool.evictions t.anon

let fill_missed t victims key ~dirty =
  let before = evictions t in
  Pool.fill (pool_for t key) key ~dirty ~on_evict:victims;
  bump t key 1;
  if Page.is_anon key then rebalance_into t ~on_evict:victims;
  evictions t - before

let access t key ~dirty =
  if Pool.try_hit (pool_for t key) key ~dirty then `Hit
  else begin
    let out = ref [] in
    ignore
      (fill_missed t
         (victims t (fun k ~dirty -> out := { Pool.key = k; dirty } :: !out))
         key ~dirty);
    `Filled (List.rev !out)
  end

let access_run t ~n ~key ~dirty ~on_hit ~on_miss ~on_evict ~on_page_end =
  if n > 0 then begin
    (* One pool-routing decision for the whole run: kernel runs are
       homogeneous (a file extent or an anonymous page range). *)
    let pool = pool_for t (key 0) in
    let victims = victims t on_evict in
    for i = 0 to n - 1 do
      let k = key i in
      if Pool.try_hit pool k ~dirty then begin
        on_hit i k;
        on_page_end i ~evicted:0
      end
      else begin
        on_miss i k;
        on_page_end i ~evicted:(fill_missed t victims k ~dirty)
      end
    done
  end

let contains t key = Pool.contains (pool_for t key) key

let invalidate t key =
  if Pool.take (pool_for t key) key then begin
    bump t key (-1);
    (* freed anonymous frames flow back to the file cache silently *)
    if Page.is_anon key then rebalance t
  end

let invalidate_if t pred =
  let dropped = ref 0 in
  let drop_matching pool kind_pred =
    dropped :=
      !dropped
      + Pool.invalidate_if pool (fun key ->
            if kind_pred key && pred key then begin
              bump t key (-1);
              true
            end
            else false)
  in
  if t.unified then drop_matching t.file (fun _ -> true)
  else begin
    drop_matching t.file Page.is_file;
    drop_matching t.anon Page.is_anon
  end;
  rebalance t;
  !dropped

let drop_file_cache t = ignore (invalidate_if t Page.is_file)

(* Targeted invalidation of one process's virtual-page range (vfree /
   vrelease / exit): probe each candidate key directly instead of scanning
   every resident page with a predicate — O(range), not O(resident), and
   no doomed-list allocation.  The single rebalance at the end matches
   [invalidate_if]'s; intermediate states differ only in when the file
   cache grows back, which no access can observe (nothing runs between the
   removals). *)
let invalidate_anon_range t ~pid ~lo ~hi =
  let pool = t.anon in
  let dropped = ref 0 in
  for vpn = lo to hi - 1 do
    if Pool.take pool (Page.Anon { pid; vpn }) then begin
      t.n_anon <- t.n_anon - 1;
      incr dropped
    end
  done;
  if !dropped > 0 then rebalance t;
  !dropped

(* Forget all resident pages at once (whole-machine restart): rebuild the
   pools' policy instances instead of removing pages one by one.  The
   balanced layout's file capacity snaps back to the full usable size via
   the ordinary rebalance (no anonymous residents left). *)
let reset t =
  Pool.clear t.file;
  if not t.unified then Pool.clear t.anon;
  t.n_file <- 0;
  t.n_anon <- 0;
  rebalance t

(* ---- drift-plane mutations (mid-run environment change) ---- *)

(* Resize the file cache under a live machine.  In the unified layout the
   single pool is resized (file and anonymous pages share it, so both
   kinds may be among the overflow victims); in the balanced layout the
   floating rebalance target moves by the same delta, so the change is
   not silently undone at the next anonymous miss.  Victims stream
   through [on_evict] for writeback charging, exactly like a capacity
   miss. *)
let resize_file_into t ~capacity_pages ~on_evict =
  if capacity_pages <= 0 then
    invalid_arg "Memory.resize_file_into: capacity must be positive";
  (match t.balanced_usable with
  | Some usable ->
    let delta = capacity_pages - Pool.capacity t.file in
    t.balanced_usable <- Some (max 1 (usable + delta))
  | None -> ());
  Pool.resize_into t.file ~capacity_pages
    ~on_evict:(fun key ~dirty ->
      bump t key (-1);
      on_evict key ~dirty)

let swap_file_policy t factory = Pool.set_policy t.file factory

let file_pool t = t.file
let anon_pool t = t.anon
let unified t = t.unified
let file_capacity t = Pool.capacity t.file
let anon_capacity t = Pool.capacity t.anon
let resident_file t = t.n_file
let resident_anon t = t.n_anon

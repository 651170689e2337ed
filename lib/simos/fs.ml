module Tele = Gray_util.Telemetry

type error = Enoent | Eexist | Enotdir | Eisdir | Enotempty | Enospc

let error_to_string = function
  | Enoent -> "no such file or directory"
  | Eexist -> "file exists"
  | Enotdir -> "not a directory"
  | Eisdir -> "is a directory"
  | Enotempty -> "directory not empty"
  | Enospc -> "no space left on device"

type config = { total_blocks : int; blocks_per_group : int; inodes_per_group : int }

let inodes_per_block = 32 (* 128-byte on-disk inodes in 4 KB blocks *)

let default_config ~total_blocks =
  { total_blocks; blocks_per_group = 8192; inodes_per_group = 1024 }

type kind = Dir of (string, int) Hashtbl.t | Regular

(* Per-file block lists live in one shared flat-int arena: an inode holds an
   (offset, capacity) extent into [t.arena] instead of its own growable
   [int array].  Growing a file past its extent's capacity moves it to a
   chunk of twice the size (power-of-two size classes, LIFO free lists
   threaded through the arena itself), so steady-state append/truncate
   cycles recycle chunks without allocating, and the block numbers of all
   files sit in one contiguous array. *)
type inode = {
  ino : int;
  mutable kind : kind;
  mutable size : int;
  mutable ext_off : int;  (* arena offset of this file's block list; -1 = none *)
  mutable ext_cap : int;  (* chunk capacity (a power of two, or 0) *)
  mutable nblocks : int;
  mutable atime : int;
  mutable mtime : int;
  mutable blob : string;  (* side-band content (journal records) *)
  (* Durable image: the metadata as of the last fsync/sync.  The namespace
     itself (directory entries, inode existence) is synchronous — FFS
     writes it through at the syscall — so only per-inode write-back state
     needs a shadow.  [Fs.crash] rolls the volatile fields back to these. *)
  mutable dsize : int;
  mutable datime : int;
  mutable dmtime : int;
  mutable dblob : string;
  (* Incremental-fsck metadata.  [parent]/[pname] record where this
     inode's (single) directory entry lives so a dirty inode's
     reachability is an O(depth) walk up instead of a whole-tree visit;
     [d_epoch] is the dirty mark (equal to [t.epoch] = dirty since the
     last checkpoint). *)
  mutable parent : int;
  mutable pname : string;
  mutable d_epoch : int;
}

(* A cylinder group's maps live in [Bytes], as FFS keeps them in the
   cylinder-group block: the GC never scans them and a fresh group costs
   two small zeroed strings.  [block_map] and [inode_map] hold one bit per
   data block and per inode slot.  [owners] is the maintained
   block-ownership map, 4 bytes per data block holding [ino + 1] (0 =
   unowned); it is [Bytes.empty] until the group's first block
   allocation, and a group without one owns nothing.  The bitmap and the
   ownership map are each written at allocation and free, never derived
   from each other: the incremental checker verifies ownership without
   rebuilding the map, and a disagreement between the two stays something
   fsck can find. *)
type group = {
  index : int;
  first_block : int;  (* first data block (after the inode table) *)
  data_blocks : int;
  block_map : Bytes.t;  (* bit [block - first_block] set = allocated *)
  mutable block_free : int;
  mutable rotor : int;  (* next-fit scan position (FFS rotational rotor) *)
  inode_map : Bytes.t;  (* bit [slot] set = allocated *)
  mutable inode_free : int;
  mutable inode_hint : int;
  mutable owners : Bytes.t;  (* indexed by [4 * (block - first_block)] *)
  mutable g_epoch : int;  (* dirty mark: bitmaps/counts changed this epoch *)
}

type t = {
  cfg : config;
  groups : group array;
  inodes : (int, inode) Hashtbl.t;
  root : int;
  mutable total_free_blocks : int;
  mutable total_free_inodes : int;
  (* shared extent arena (see [inode]) *)
  mutable arena : int array;
  mutable arena_used : int;
  free_chunks : int array;  (* per size class: head chunk offset, -1 = empty *)
  (* dirty epochs *)
  mutable epoch : int;
  mutable gen : int;  (* bumped when [epoch] wraps; disambiguates tokens *)
  mutable dirty_inos : int list;  (* may hold duplicates and removed inos *)
  mutable dirty_groups : int list;
}

let inode_table_blocks cfg = (cfg.inodes_per_group + inodes_per_block - 1) / inodes_per_block

let group_of_ino ino ~inodes_per_group = ino / inodes_per_group

(* ---- cylinder-group maps ---- *)

let bits_make n = Bytes.make ((n + 7) lsr 3) '\000'

let bit m i = Char.code (Bytes.get m (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit m i =
  let j = i lsr 3 in
  Bytes.set m j (Char.unsafe_chr (Char.code (Bytes.get m j) lor (1 lsl (i land 7))))

let clear_bit m i =
  let j = i lsr 3 in
  Bytes.set m j (Char.unsafe_chr (Char.code (Bytes.get m j) land lnot (1 lsl (i land 7))))

(* Lowest clear bit in [[i, n)], or -1; a wholly allocated byte is
   skipped at once. *)
let rec find_clear m i n =
  if i >= n then -1
  else if i land 7 = 0 && i + 8 <= n && Bytes.get m (i lsr 3) = '\255' then
    find_clear m (i + 8) n
  else if bit m i then find_clear m (i + 1) n
  else i

(* [f i] for every set bit, ascending; a wholly free byte is skipped at
   once.  The last byte's padding bits are never set. *)
let iter_set f m =
  for j = 0 to Bytes.length m - 1 do
    let byte = Char.code (Bytes.get m j) in
    if byte <> 0 then
      for k = 0 to 7 do
        if byte land (1 lsl k) <> 0 then f ((j lsl 3) + k)
      done
  done

let owner g offset =
  if Bytes.length g.owners = 0 then -1
  else Int32.to_int (Bytes.get_int32_le g.owners (4 * offset)) - 1

let set_owner g offset ino =
  if Bytes.length g.owners = 0 then g.owners <- Bytes.make (4 * g.data_blocks) '\000';
  Bytes.set_int32_le g.owners (4 * offset) (Int32.of_int (ino + 1))

let clear_owner g offset =
  if Bytes.length g.owners > 0 then Bytes.set_int32_le g.owners (4 * offset) 0l

let group_of_block t block = t.groups.(block / t.cfg.blocks_per_group)

(* ---- dirty epochs ---- *)

(* Epochs deliberately wrap at a small modulus so the renormalisation path
   is testable: at the wrap every stored mark is reset and [gen] is bumped,
   which keeps equality-on-epoch sound (a stale mark can never alias the
   current epoch) and invalidates outstanding checkpoint tokens. *)
let epoch_limit = 1 lsl 20

type checkpoint = int

let cp_token t = (t.gen * epoch_limit) + t.epoch

let mark_ino t node =
  if node.d_epoch <> t.epoch then begin
    node.d_epoch <- t.epoch;
    t.dirty_inos <- node.ino :: t.dirty_inos
  end

(* A removed inode has no record left to carry the mark; push
   unconditionally and let the checker dedupe. *)
let mark_removed t ino = t.dirty_inos <- ino :: t.dirty_inos

let mark_group t g =
  if g.g_epoch <> t.epoch then begin
    g.g_epoch <- t.epoch;
    t.dirty_groups <- g.index :: t.dirty_groups
  end

let checkpoint t =
  if t.epoch + 1 >= epoch_limit then begin
    Hashtbl.iter (fun _ node -> node.d_epoch <- 0) t.inodes;
    Array.iter (fun g -> g.g_epoch <- 0) t.groups;
    t.gen <- t.gen + 1;
    t.epoch <- 1
  end
  else t.epoch <- t.epoch + 1;
  t.dirty_inos <- [];
  t.dirty_groups <- [];
  cp_token t

let epoch_state t = (t.gen, t.epoch)

(* ---- extent arena ---- *)

let min_chunk = 8
let n_classes = 32

let class_of_cap cap =
  (* cap is a power of two >= min_chunk *)
  let rec go c bit = if bit >= cap then c else go (c + 1) (bit * 2) in
  go 0 min_chunk

let arena_alloc_chunk t cap =
  let cls = class_of_cap cap in
  let head = t.free_chunks.(cls) in
  if head >= 0 then begin
    t.free_chunks.(cls) <- t.arena.(head);
    head
  end
  else begin
    if t.arena_used + cap > Array.length t.arena then begin
      let ncap = max (2 * Array.length t.arena) (t.arena_used + cap) in
      let na = Array.make ncap 0 in
      Array.blit t.arena 0 na 0 t.arena_used;
      t.arena <- na
    end;
    let off = t.arena_used in
    t.arena_used <- t.arena_used + cap;
    off
  end

let arena_free_chunk t off cap =
  if cap > 0 then begin
    let cls = class_of_cap cap in
    t.arena.(off) <- t.free_chunks.(cls);
    t.free_chunks.(cls) <- off
  end

(* Grow [node]'s extent so one more block fits; amortised O(1), no OCaml
   allocation in steady state (chunks recycle through the free lists). *)
let extent_reserve t node =
  if node.nblocks = node.ext_cap then begin
    let ncap = if node.ext_cap = 0 then min_chunk else 2 * node.ext_cap in
    let noff = arena_alloc_chunk t ncap in
    if node.nblocks > 0 then Array.blit t.arena node.ext_off t.arena noff node.nblocks;
    arena_free_chunk t node.ext_off node.ext_cap;
    node.ext_off <- noff;
    node.ext_cap <- ncap
  end

let push_block t node b =
  extent_reserve t node;
  t.arena.(node.ext_off + node.nblocks) <- b;
  node.nblocks <- node.nblocks + 1

let nth_block t node i = t.arena.(node.ext_off + i)

let arena_stats t = (t.arena_used, Array.length t.arena)

(* ---- construction ---- *)

let make_group cfg index =
  let itb = inode_table_blocks cfg in
  let base = index * cfg.blocks_per_group in
  let data_blocks = cfg.blocks_per_group - itb in
  {
    index;
    first_block = base + itb;
    data_blocks;
    block_map = bits_make data_blocks;
    block_free = data_blocks;
    rotor = 0;
    inode_map = bits_make cfg.inodes_per_group;
    inode_free = cfg.inodes_per_group;
    inode_hint = 0;
    owners = Bytes.empty;
    g_epoch = 0;
  }

let make_inode ~ino ~kind ~parent ~pname ~d_epoch =
  { ino; kind; size = 0; ext_off = -1; ext_cap = 0; nblocks = 0;
    atime = 0; mtime = 0; blob = ""; dsize = 0; datime = 0; dmtime = 0; dblob = "";
    parent; pname; d_epoch }

let create cfg =
  if cfg.total_blocks < cfg.blocks_per_group then
    invalid_arg "Fs.create: volume smaller than one cylinder group";
  let ngroups = cfg.total_blocks / cfg.blocks_per_group in
  let groups = Array.init ngroups (make_group cfg) in
  let t =
    {
      cfg;
      groups;
      inodes = Hashtbl.create 64;
      root = 0;
      total_free_blocks = Array.fold_left (fun acc g -> acc + g.block_free) 0 groups;
      total_free_inodes = ngroups * cfg.inodes_per_group;
      arena = Array.make 512 0;
      arena_used = 0;
      free_chunks = Array.make n_classes (-1);
      epoch = 1;
      gen = 0;
      dirty_inos = [];
      dirty_groups = [];
    }
  in
  (* Root directory occupies inode 0 of group 0. *)
  set_bit groups.(0).inode_map 0;
  groups.(0).inode_free <- groups.(0).inode_free - 1;
  groups.(0).inode_hint <- 1;
  t.total_free_inodes <- t.total_free_inodes - 1;
  Hashtbl.replace t.inodes 0
    (make_inode ~ino:0 ~kind:(Dir (Hashtbl.create 16)) ~parent:(-1) ~pname:""
       ~d_epoch:t.epoch);
  t.dirty_inos <- [ 0 ];
  mark_group t groups.(0);
  t

let config t = t.cfg
let root_ino t = t.root

(* ---- allocation ---- *)

let alloc_inode t ~group =
  let ngroups = Array.length t.groups in
  let rec try_group i =
    if i = ngroups then None
    else begin
      let g = t.groups.((group + i) mod ngroups) in
      if g.inode_free = 0 then try_group (i + 1)
      else begin
        let slot = find_clear g.inode_map g.inode_hint t.cfg.inodes_per_group in
        assert (slot >= 0);
        set_bit g.inode_map slot;
        g.inode_free <- g.inode_free - 1;
        g.inode_hint <- slot + 1;
        t.total_free_inodes <- t.total_free_inodes - 1;
        mark_group t g;
        Some ((g.index * t.cfg.inodes_per_group) + slot)
      end
    end
  in
  try_group 0

let free_inode t ino =
  let g = t.groups.(ino / t.cfg.inodes_per_group) in
  let slot = ino mod t.cfg.inodes_per_group in
  assert (bit g.inode_map slot);
  clear_bit g.inode_map slot;
  g.inode_free <- g.inode_free + 1;
  if slot < g.inode_hint then g.inode_hint <- slot;
  t.total_free_inodes <- t.total_free_inodes + 1;
  mark_group t g

(* Allocate data block [offset] of [g] to inode [ino]: the bitmap and the
   ownership map are each written here and each cleared in [free_block]. *)
let take_block t g offset ~ino =
  set_bit g.block_map offset;
  set_owner g offset ino;
  g.block_free <- g.block_free - 1;
  g.rotor <- (offset + 1) mod g.data_blocks;
  t.total_free_blocks <- t.total_free_blocks - 1;
  mark_group t g;
  g.first_block + offset

(* Blocks past the last whole group belong to no group and are never
   free. *)
let block_is_free t block =
  let gi = block / t.cfg.blocks_per_group in
  gi < Array.length t.groups
  &&
  let g = t.groups.(gi) in
  let offset = block - g.first_block in
  offset >= 0 && offset < g.data_blocks && not (bit g.block_map offset)

(* FFS-flavoured block allocation for inode [ino]: contiguous after block
   [near] (-1 = none) when possible, else next-fit in the preferred group,
   else the following groups.  -1 when every group is full. *)
let alloc_block t ~ino ~group ~near =
  if near >= 0 && block_is_free t (near + 1) then begin
    let g = group_of_block t (near + 1) in
    take_block t g (near + 1 - g.first_block) ~ino
  end
  else begin
    let ngroups = Array.length t.groups in
    let rec try_group i =
      if i = ngroups then -1
      else begin
        let g = t.groups.((group + i) mod ngroups) in
        if g.block_free = 0 then try_group (i + 1)
        else begin
          (* Next-fit from the rotor, wrapping: freed holes behind the
             rotor are not preferred, which is what makes i-number order
             drift away from layout order as the file system ages. *)
          let offset =
            match find_clear g.block_map g.rotor g.data_blocks with
            | -1 -> find_clear g.block_map 0 g.rotor
            | offset -> offset
          in
          assert (offset >= 0);
          take_block t g offset ~ino
        end
      end
    in
    try_group 0
  end

let free_block t block =
  let g = group_of_block t block in
  let offset = block - g.first_block in
  assert (bit g.block_map offset);
  clear_bit g.block_map offset;
  g.block_free <- g.block_free + 1;
  t.total_free_blocks <- t.total_free_blocks + 1;
  clear_owner g offset;
  mark_group t g

(* ---- paths ---- *)

let split_path path =
  if String.length path = 0 || path.[0] <> '/' then None
  else
    Some (List.filter (fun c -> c <> "") (String.split_on_char '/' path))

let get_inode t ino = Hashtbl.find t.inodes ino

let rec walk t dir_ino = function
  | [] -> Ok dir_ino
  | comp :: rest -> (
    match (get_inode t dir_ino).kind with
    | Regular -> Error Enotdir
    | Dir entries -> (
      match Hashtbl.find_opt entries comp with
      | None -> Error Enoent
      | Some ino -> walk t ino rest))

let lookup t path =
  match split_path path with
  | None -> Error Enoent
  | Some comps -> walk t t.root comps

(* Resolve a path into (parent directory inode, basename). *)
let resolve_parent t path =
  match split_path path with
  | None | Some [] -> Error Enoent
  | Some comps -> (
    let rec split_last acc = function
      | [] -> assert false
      | [ last ] -> (List.rev acc, last)
      | x :: rest -> split_last (x :: acc) rest
    in
    let dirs, base = split_last [] comps in
    match walk t t.root dirs with
    | Error e -> Error e
    | Ok dir_ino -> (
      match (get_inode t dir_ino).kind with
      | Regular -> Error Enotdir
      | Dir entries -> Ok (dir_ino, entries, base)))

(* ---- namespace operations ---- *)

let best_group_for_dir t =
  (* FFS places new directories in the group with the most free inodes. *)
  let best = ref 0 in
  Array.iter
    (fun g -> if g.inode_free > t.groups.(!best).inode_free then best := g.index)
    t.groups;
  !best

let add_inode t ino kind ~parent ~pname =
  Hashtbl.replace t.inodes ino (make_inode ~ino ~kind ~parent ~pname ~d_epoch:0);
  mark_ino t (get_inode t ino)

let mkdir t path =
  match resolve_parent t path with
  | Error e -> Error e
  | Ok (dir_ino, entries, base) ->
    if Hashtbl.mem entries base then Error Eexist
    else (
      match alloc_inode t ~group:(best_group_for_dir t) with
      | None -> Error Enospc
      | Some ino ->
        add_inode t ino (Dir (Hashtbl.create 16)) ~parent:dir_ino ~pname:base;
        Hashtbl.replace entries base ino;
        mark_ino t (get_inode t dir_ino);
        Ok ino)

let create_file t path =
  match resolve_parent t path with
  | Error e -> Error e
  | Ok (dir_ino, entries, base) ->
    if Hashtbl.mem entries base then Error Eexist
    else (
      (* file inodes are allocated in the directory's own group *)
      let group = dir_ino / t.cfg.inodes_per_group in
      match alloc_inode t ~group with
      | None -> Error Enospc
      | Some ino ->
        add_inode t ino Regular ~parent:dir_ino ~pname:base;
        Hashtbl.replace entries base ino;
        mark_ino t (get_inode t dir_ino);
        Ok ino)

let free_file_storage t node =
  for i = 0 to node.nblocks - 1 do
    free_block t (nth_block t node i)
  done;
  arena_free_chunk t node.ext_off node.ext_cap;
  node.ext_off <- -1;
  node.ext_cap <- 0;
  node.nblocks <- 0;
  node.size <- 0

let remove_inode t node =
  (match node.kind with Regular -> free_file_storage t node | Dir _ -> ());
  Hashtbl.remove t.inodes node.ino;
  free_inode t node.ino;
  mark_removed t node.ino

let unlink t path =
  match resolve_parent t path with
  | Error e -> Error e
  | Ok (dir_ino, entries, base) -> (
    match Hashtbl.find_opt entries base with
    | None -> Error Enoent
    | Some ino -> (
      let node = get_inode t ino in
      match node.kind with
      | Dir d when Hashtbl.length d > 0 -> Error Enotempty
      | Dir _ | Regular ->
        Hashtbl.remove entries base;
        remove_inode t node;
        mark_ino t (get_inode t dir_ino);
        Ok ()))

(* A renamed directory keeps its subtree; the subtree's reachability is
   re-derived through the moved inode, so every descendant must carry a
   dirty mark for the incremental checker to re-walk it. *)
let rec mark_subtree t node =
  mark_ino t node;
  match node.kind with
  | Regular -> ()
  | Dir entries ->
    Hashtbl.iter
      (fun _ ino ->
        match Hashtbl.find_opt t.inodes ino with
        | Some child -> mark_subtree t child
        | None -> mark_removed t ino)
      entries

let rename t ~src ~dst =
  match resolve_parent t src with
  | Error e -> Error e
  | Ok (src_dir, src_entries, src_base) -> (
    match Hashtbl.find_opt src_entries src_base with
    | None -> Error Enoent
    | Some src_ino -> (
      match resolve_parent t dst with
      | Error e -> Error e
      | Ok (dst_dir, dst_entries, dst_base) -> (
        let src_node = get_inode t src_ino in
        let replace_ok =
          match Hashtbl.find_opt dst_entries dst_base with
          | None -> Ok ()
          | Some dst_ino when dst_ino = src_ino -> Ok ()
          | Some dst_ino -> (
            let dst_node = get_inode t dst_ino in
            match (src_node.kind, dst_node.kind) with
            | _, Dir d when Hashtbl.length d > 0 -> Error Enotempty
            | Regular, Dir _ -> Error Eisdir
            | Dir _, Regular -> Error Enotdir
            | _ ->
              Hashtbl.remove dst_entries dst_base;
              remove_inode t dst_node;
              Ok ())
        in
        match replace_ok with
        | Error e -> Error e
        | Ok () ->
          Hashtbl.remove src_entries src_base;
          Hashtbl.replace dst_entries dst_base src_ino;
          src_node.parent <- dst_dir;
          src_node.pname <- dst_base;
          (match src_node.kind with
          | Dir _ -> mark_subtree t src_node
          | Regular -> mark_ino t src_node);
          mark_ino t (get_inode t src_dir);
          mark_ino t (get_inode t dst_dir);
          Ok ())))

let readdir t path =
  match lookup t path with
  | Error e -> Error e
  | Ok ino -> (
    match (get_inode t ino).kind with
    | Regular -> Error Enotdir
    | Dir entries -> Ok (Hashtbl.fold (fun name _ acc -> name :: acc) entries []))

(* ---- attributes ---- *)

type stat_info = {
  st_ino : int;
  st_size : int;
  st_is_dir : bool;
  st_atime : int;
  st_mtime : int;
  st_blocks : int;
}

let stat_of_node node =
  {
    st_ino = node.ino;
    st_size = node.size;
    st_is_dir = (match node.kind with Dir _ -> true | Regular -> false);
    st_atime = node.atime;
    st_mtime = node.mtime;
    st_blocks = node.nblocks;
  }

let stat_ino t ino =
  match Hashtbl.find_opt t.inodes ino with
  | None -> Error Enoent
  | Some node -> Ok (stat_of_node node)

let stat_path t path =
  match lookup t path with Error e -> Error e | Ok ino -> stat_ino t ino

let size_ino t ~ino =
  match Hashtbl.find_opt t.inodes ino with None -> 0 | Some node -> node.size

let set_times t ~ino ~atime ~mtime =
  match Hashtbl.find_opt t.inodes ino with
  | None -> Error Enoent
  | Some node ->
    node.atime <- atime;
    node.mtime <- mtime;
    Ok ()

let mark_atime t ~ino ~now =
  match Hashtbl.find_opt t.inodes ino with
  | None -> ()
  | Some node -> node.atime <- now

let mark_mtime t ~ino ~now =
  match Hashtbl.find_opt t.inodes ino with
  | None -> ()
  | Some node -> node.mtime <- now

(* ---- data layout ---- *)

let page_size = 4096

let pages_needed size = (size + page_size - 1) / page_size

let resize t ~ino ~size =
  match Hashtbl.find_opt t.inodes ino with
  | None -> Error Enoent
  | Some node -> (
    match node.kind with
    | Dir _ -> Error Eisdir
    | Regular ->
      let want = pages_needed size in
      if want > node.nblocks then begin
        let missing = want - node.nblocks in
        if missing > t.total_free_blocks then Error Enospc
        else begin
          let group = ino / t.cfg.inodes_per_group in
          mark_ino t node;
          for _ = 1 to missing do
            let near = if node.nblocks = 0 then -1 else nth_block t node (node.nblocks - 1) in
            let b = alloc_block t ~ino ~group ~near in
            assert (b >= 0) (* guarded by the free-count check *);
            push_block t node b
          done;
          node.size <- size;
          Ok ()
        end
      end
      else begin
        let extra = node.nblocks - want in
        if extra > 0 then mark_ino t node;
        for _ = 1 to extra do
          assert (node.nblocks > 0);
          free_block t (nth_block t node (node.nblocks - 1));
          node.nblocks <- node.nblocks - 1
        done;
        node.size <- size;
        Ok ()
      end)

let block_of_page t ~ino ~idx =
  match Hashtbl.find_opt t.inodes ino with
  | None -> None
  | Some node ->
    if idx < 0 || idx >= node.nblocks then None else Some (nth_block t node idx)

(* A view of the arena slice: valid while no block list changes (a
   resize may move the extent or regrow the arena). *)
type extent = { x_arena : int array; x_off : int; x_len : int }

let no_extent = { x_arena = [||]; x_off = 0; x_len = 0 }

let extent t ~ino =
  match Hashtbl.find_opt t.inodes ino with
  | None -> no_extent
  | Some node -> { x_arena = t.arena; x_off = node.ext_off; x_len = node.nblocks }

let extent_block x idx = if idx < 0 || idx >= x.x_len then -1 else x.x_arena.(x.x_off + idx)

let pages_of_file t ~ino =
  match Hashtbl.find_opt t.inodes ino with None -> 0 | Some node -> node.nblocks

let inode_block t ~ino =
  let group = ino / t.cfg.inodes_per_group in
  let slot = ino mod t.cfg.inodes_per_group in
  (group * t.cfg.blocks_per_group) + (slot / inodes_per_block)

(* ---- durability ---- *)

let set_blob t ~ino s =
  match Hashtbl.find_opt t.inodes ino with
  | None -> Error Enoent
  | Some node -> (
    match node.kind with
    | Dir _ -> Error Eisdir
    | Regular ->
      node.blob <- s;
      Ok ())

let blob t ~ino =
  match Hashtbl.find_opt t.inodes ino with None -> "" | Some node -> node.blob

let flush_node node =
  node.dsize <- node.size;
  node.datime <- node.atime;
  node.dmtime <- node.mtime;
  node.dblob <- node.blob

let fsync_ino t ~ino =
  match Hashtbl.find_opt t.inodes ino with
  | None -> Error Enoent
  | Some node ->
    flush_node node;
    Ok ()

let sync_all t = Hashtbl.iter (fun _ node -> flush_node node) t.inodes

let sorted_inos t =
  List.sort compare (Hashtbl.fold (fun ino _ acc -> ino :: acc) t.inodes [])

(* The machine died: every inode's volatile fields roll back to the last
   flushed image.  Sizes shrink (writes only ever grow files and [dsize]
   trails [size]), freeing tail blocks, exactly as a real fsck truncates a
   file to the length its durable inode records.  Allocator cursors reset
   as on a fresh mount, so post-crash allocation is first-fit from slot 0. *)
let crash t =
  List.iter
    (fun ino ->
      let node = get_inode t ino in
      (match node.kind with
      | Regular when node.size <> node.dsize -> (
        match resize t ~ino ~size:node.dsize with
        | Ok () -> ()
        | Error _ -> assert false (* dsize <= size: shrinking cannot fail *))
      | Regular | Dir _ -> ());
      node.atime <- node.datime;
      node.mtime <- node.dmtime;
      node.blob <- node.dblob)
    (sorted_inos t);
  Array.iter
    (fun g ->
      g.rotor <- 0;
      g.inode_hint <- 0)
    t.groups

(* ---- whole-volume snapshot (crash exploration) ---- *)

(* Deep copy of the complete volume state — durable and volatile fields,
   dirty-epoch bookkeeping included, so a checkpoint token taken from the
   original stays valid against the copy and [crash] rolls the copy back
   exactly as it would the original.  The snapshot-mode crash explorer
   clones the volume at each boundary of a single uncrashed run instead
   of replaying the workload prefix once per boundary. *)
let clone t =
  let clone_inode node =
    {
      node with
      kind =
        (match node.kind with
        | Regular -> Regular
        | Dir entries -> Dir (Hashtbl.copy entries));
    }
  in
  let inodes = Hashtbl.create (Hashtbl.length t.inodes) in
  Hashtbl.iter (fun ino node -> Hashtbl.replace inodes ino (clone_inode node)) t.inodes;
  {
    t with
    groups =
      Array.map
        (fun g ->
          { g with block_map = Bytes.copy g.block_map;
            inode_map = Bytes.copy g.inode_map;
            owners = Bytes.copy g.owners })
        t.groups;
    inodes;
    arena = Array.copy t.arena;
    free_chunks = Array.copy t.free_chunks;
    (* dirty_inos / dirty_groups are immutable lists: safe to share *)
  }

(* Exact structural equality of the complete volume state (the same
   fields [clone] copies).  Used as a memoisation key: every subsequent
   check and re-run is a deterministic function of this state, so equal
   states may share one verdict — an exact comparison, not a digest, so
   there is no collision risk of reusing a verdict across genuinely
   different states.  Arena chunks are position-compared, which is exact
   for images of a common lineage (consecutive boundaries of one run)
   and merely conservative otherwise.  A group's ownership map never made
   equals one that owns nothing. *)
let equal a b =
  let prefix_equal xs ys n =
    let rec go i = i >= n || (xs.(i) = ys.(i) && go (i + 1)) in
    Array.length xs >= n && Array.length ys >= n && go 0
  in
  let equal_kind ka kb =
    match (ka, kb) with
    | Regular, Regular -> true
    | Dir ea, Dir eb ->
      Hashtbl.length ea = Hashtbl.length eb
      && Hashtbl.fold
           (fun name ino acc -> acc && Hashtbl.find_opt eb name = Some ino)
           ea true
    | Regular, Dir _ | Dir _, Regular -> false
  in
  let equal_inode na nb =
    na.ino = nb.ino && na.size = nb.size && na.ext_off = nb.ext_off
    && na.ext_cap = nb.ext_cap && na.nblocks = nb.nblocks && na.atime = nb.atime
    && na.mtime = nb.mtime && na.blob = nb.blob && na.dsize = nb.dsize
    && na.datime = nb.datime && na.dmtime = nb.dmtime && na.dblob = nb.dblob
    && na.parent = nb.parent && na.pname = nb.pname && na.d_epoch = nb.d_epoch
    && equal_kind na.kind nb.kind
  in
  let unowned o = Bytes.for_all (fun c -> c = '\000') o in
  let equal_owners oa ob =
    if Bytes.length oa = 0 then unowned ob
    else if Bytes.length ob = 0 then unowned oa
    else Bytes.equal oa ob
  in
  let equal_group ga gb =
    ga.index = gb.index && ga.first_block = gb.first_block
    && ga.data_blocks = gb.data_blocks
    && Bytes.equal ga.block_map gb.block_map
    && ga.block_free = gb.block_free && ga.rotor = gb.rotor
    && Bytes.equal ga.inode_map gb.inode_map
    && ga.inode_free = gb.inode_free && ga.inode_hint = gb.inode_hint
    && ga.g_epoch = gb.g_epoch
    && equal_owners ga.owners gb.owners
  in
  a.cfg = b.cfg && a.root = b.root
  && a.total_free_blocks = b.total_free_blocks
  && a.total_free_inodes = b.total_free_inodes
  && a.epoch = b.epoch && a.gen = b.gen
  && a.dirty_inos = b.dirty_inos && a.dirty_groups = b.dirty_groups
  && a.arena_used = b.arena_used
  && prefix_equal a.arena b.arena a.arena_used
  && a.free_chunks = b.free_chunks
  && Array.for_all2 equal_group a.groups b.groups (* same cfg: same length *)
  && Hashtbl.length a.inodes = Hashtbl.length b.inodes
  && (try
        Hashtbl.iter
          (fun ino na ->
            match Hashtbl.find_opt b.inodes ino with
            | Some nb when equal_inode na nb -> ()
            | Some _ | None -> raise Exit)
          a.inodes;
        true
      with Exit -> false)

(* ---- fsck ---- *)

(* Full-volume consistency check, used by the crash explorer as the ground
   invariant after every crash+repair — and as the oracle the incremental
   checker is proven against.  Deterministic: inodes and bitmaps are
   scanned in sorted order, so the message list is reproducible. *)
let check_full t =
  (match Tele.active () with
  | None -> ()
  | Some s -> Tele.add_in s "fs.check.full");
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let cfg = t.cfg in
  (* namespace: every inode reachable from the root exactly once *)
  let reached = Hashtbl.create 64 in
  let rec visit path ino =
    if Hashtbl.mem reached ino then add "inode %d double-linked at %s" ino path
    else begin
      Hashtbl.replace reached ino ();
      match Hashtbl.find_opt t.inodes ino with
      | None -> add "dangling entry %s -> missing inode %d" path ino
      | Some node -> (
        match node.kind with
        | Regular -> ()
        | Dir entries ->
          let names =
            List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) entries [])
          in
          List.iter
            (fun name -> visit (path ^ "/" ^ name) (Hashtbl.find entries name))
            names)
    end
  in
  visit "" t.root;
  List.iter
    (fun ino -> if not (Hashtbl.mem reached ino) then add "orphan inode %d" ino)
    (sorted_inos t);
  (* inode bitmaps: table contents, per-group counts, global count *)
  List.iter
    (fun ino ->
      let g = t.groups.(ino / cfg.inodes_per_group) in
      if not (bit g.inode_map (ino mod cfg.inodes_per_group)) then
        add "inode %d exists but its slot is free in the bitmap" ino)
    (sorted_inos t);
  let total_free_inodes = ref 0 in
  Array.iter
    (fun g ->
      let used = ref 0 in
      iter_set
        (fun slot ->
          incr used;
          let ino = (g.index * cfg.inodes_per_group) + slot in
          if not (Hashtbl.mem t.inodes ino) then
            add "inode slot %d allocated but no inode exists" ino)
        g.inode_map;
      let free = cfg.inodes_per_group - !used in
      if free <> g.inode_free then
        add "group %d: inode free count %d but bitmap says %d" g.index g.inode_free free;
      total_free_inodes := !total_free_inodes + g.inode_free)
    t.groups;
  if !total_free_inodes <> t.total_free_inodes then
    add "total free inodes %d but groups sum to %d" t.total_free_inodes !total_free_inodes;
  (* block ownership: in range, allocated, owned exactly once; and sizes
     agree with block counts *)
  let owner = Hashtbl.create 1024 in
  List.iter
    (fun ino ->
      let node = get_inode t ino in
      (match node.kind with
      | Regular when node.nblocks <> pages_needed node.size ->
        add "inode %d: %d blocks for size %d" ino node.nblocks node.size
      | Regular | Dir _ -> ());
      for i = 0 to node.nblocks - 1 do
        let b = nth_block t node i in
        if b < 0 || b >= cfg.total_blocks then add "inode %d: block %d out of range" ino b
        else begin
          (match Hashtbl.find_opt owner b with
          | Some other -> add "block %d owned by inodes %d and %d" b other ino
          | None -> Hashtbl.replace owner b ino);
          let g = group_of_block t b in
          let offset = b - g.first_block in
          if offset < 0 || offset >= g.data_blocks then
            add "inode %d: block %d lies in an inode-table region" ino b
          else if not (bit g.block_map offset) then
            add "inode %d: block %d is free in the bitmap" ino b
        end
      done)
    (sorted_inos t);
  let total_free_blocks = ref 0 in
  Array.iter
    (fun g ->
      let used = ref 0 in
      iter_set
        (fun offset ->
          incr used;
          let b = g.first_block + offset in
          if not (Hashtbl.mem owner b) then add "block %d allocated but unowned" b)
        g.block_map;
      let free = g.data_blocks - !used in
      if free <> g.block_free then
        add "group %d: block free count %d but bitmap says %d" g.index g.block_free free;
      total_free_blocks := !total_free_blocks + g.block_free)
    t.groups;
  if !total_free_blocks <> t.total_free_blocks then
    add "total free blocks %d but groups sum to %d" t.total_free_blocks !total_free_blocks;
  List.rev !problems

let check = check_full

(* Incremental fsck: re-validate only what was dirtied since the last
   checkpoint.  Soundness rests on three facts: (1) every internal path
   that changes checked state (inode existence, directory entries, block
   attachment, bitmaps, counts) marks the touched inode/group dirty;
   (2) the state at the checkpoint passed [check_full] (the caller's
   contract), so clean inodes and groups still satisfy every local
   invariant; (3) cross-object facts are carried by maintained structures
   ([owner], [parent]/[pname]) that were themselves verified clean at the
   checkpoint.  A token from any other epoch (an older checkpoint, or one
   invalidated by an epoch wrap) cannot vouch for any of that, so the
   checker falls back to the full scan rather than ever missing a
   violation. *)
let check_incremental t cp =
  if cp <> cp_token t then begin
    (match Tele.active () with
    | None -> ()
    | Some s -> Tele.add_in s "fs.check.fallback");
    check_full t
  end
  else begin
    (match Tele.active () with
    | None -> ()
    | Some s -> Tele.add_in s "fs.check.incremental");
    let problems = ref [] in
    let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
    let cfg = t.cfg in
    let dirty = List.sort_uniq compare t.dirty_inos in
    let dgroups = List.sort_uniq compare t.dirty_groups in
    let n_inodes = Hashtbl.length t.inodes in
    (* Best-effort path reconstruction through the parent pointers (only
       used in messages; a broken chain shows up as its own problem). *)
    let path_of ino =
      let rec go ino acc depth =
        if ino = t.root then String.concat "" acc
        else if depth > n_inodes then "?"
        else
          match Hashtbl.find_opt t.inodes ino with
          | None -> "?"
          | Some n -> go n.parent (("/" ^ n.pname) :: acc) (depth + 1)
      in
      go ino [] 0
    in
    (* dirty directories: every entry resolves, and resolves to an inode
       whose back-pointer agrees (the incremental form of the reachability
       visit's dangling / double-link detection) *)
    List.iter
      (fun ino ->
        match Hashtbl.find_opt t.inodes ino with
        | None -> ()
        | Some node -> (
          match node.kind with
          | Regular -> ()
          | Dir entries ->
            let names =
              List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) entries [])
            in
            List.iter
              (fun name ->
                let child = Hashtbl.find entries name in
                let epath = path_of ino ^ "/" ^ name in
                match Hashtbl.find_opt t.inodes child with
                | None -> add "dangling entry %s -> missing inode %d" epath child
                | Some c ->
                  if child <> t.root && (c.parent <> ino || c.pname <> name) then
                    add "inode %d double-linked at %s" child epath)
              names))
      dirty;
    (* dirty inodes: reachability as an O(depth) walk up the parent chain *)
    List.iter
      (fun ino ->
        match Hashtbl.find_opt t.inodes ino with
        | None -> ()
        | Some node ->
          let rec up cur depth =
            if cur = t.root then ()
            else if depth > n_inodes then add "orphan inode %d" ino
            else
              match Hashtbl.find_opt t.inodes cur with
              | None -> add "orphan inode %d" ino
              | Some n -> (
                match Hashtbl.find_opt t.inodes n.parent with
                | None -> add "orphan inode %d" ino
                | Some p -> (
                  match p.kind with
                  | Regular -> add "orphan inode %d" ino
                  | Dir entries -> (
                    match Hashtbl.find_opt entries n.pname with
                    | Some j when j = cur -> up n.parent (depth + 1)
                    | Some _ | None -> add "orphan inode %d" ino)))
          in
          up node.ino 0)
      dirty;
    (* dirty inodes: bitmap slot backs the inode *)
    List.iter
      (fun ino ->
        if Hashtbl.mem t.inodes ino then begin
          let g = t.groups.(ino / cfg.inodes_per_group) in
          if not (bit g.inode_map (ino mod cfg.inodes_per_group)) then
            add "inode %d exists but its slot is free in the bitmap" ino
        end)
      dirty;
    (* dirty groups: inode bitmap recount *)
    List.iter
      (fun gi ->
        let g = t.groups.(gi) in
        let used = ref 0 in
        iter_set
          (fun slot ->
            incr used;
            let ino = (g.index * cfg.inodes_per_group) + slot in
            if not (Hashtbl.mem t.inodes ino) then
              add "inode slot %d allocated but no inode exists" ino)
          g.inode_map;
        let free = cfg.inodes_per_group - !used in
        if free <> g.inode_free then
          add "group %d: inode free count %d but bitmap says %d" g.index g.inode_free
            free)
      dgroups;
    (* global inode total (trusts per-group counters, which dirty groups
       just re-verified and clean groups kept from the checkpoint) *)
    let total_free_inodes = Array.fold_left (fun a g -> a + g.inode_free) 0 t.groups in
    if total_free_inodes <> t.total_free_inodes then
      add "total free inodes %d but groups sum to %d" t.total_free_inodes
        total_free_inodes;
    (* dirty inodes: block attachment vs the maintained ownership map *)
    List.iter
      (fun ino ->
        match Hashtbl.find_opt t.inodes ino with
        | None -> ()
        | Some node ->
          (match node.kind with
          | Regular when node.nblocks <> pages_needed node.size ->
            add "inode %d: %d blocks for size %d" ino node.nblocks node.size
          | Regular | Dir _ -> ());
          for i = 0 to node.nblocks - 1 do
            let b = nth_block t node i in
            if b < 0 || b >= cfg.total_blocks then
              add "inode %d: block %d out of range" ino b
            else begin
              let g = group_of_block t b in
              let offset = b - g.first_block in
              (* inode-table blocks are never owned *)
              let ow = if offset < 0 then -1 else owner g offset in
              if ow <> ino && ow >= 0 then
                add "block %d owned by inodes %d and %d" b (min ow ino) (max ow ino);
              if offset < 0 || offset >= g.data_blocks then
                add "inode %d: block %d lies in an inode-table region" ino b
              else if not (bit g.block_map offset) then
                add "inode %d: block %d is free in the bitmap" ino b
            end
          done)
      dirty;
    (* dirty groups: block bitmap recount against the ownership map *)
    List.iter
      (fun gi ->
        let g = t.groups.(gi) in
        let used = ref 0 in
        iter_set
          (fun offset ->
            incr used;
            if owner g offset < 0 then
              add "block %d allocated but unowned" (g.first_block + offset))
          g.block_map;
        let free = g.data_blocks - !used in
        if free <> g.block_free then
          add "group %d: block free count %d but bitmap says %d" g.index g.block_free
            free)
      dgroups;
    let total_free_blocks = Array.fold_left (fun a g -> a + g.block_free) 0 t.groups in
    if total_free_blocks <> t.total_free_blocks then
      add "total free blocks %d but groups sum to %d" t.total_free_blocks
        total_free_blocks;
    List.rev !problems
  end

(* ---- white-box corruption (differential testing of the checkers) ---- *)

(* Simulate one internal-corruption shape — the kind of damage a buggy
   update path would leave — while keeping the bookkeeping contract every
   internal path honours: whatever object is touched gets its dirty mark
   (and the ownership map tracks the attachment change being modelled).
   The chosen shape and target are a deterministic function of [seed] and
   the current state, so qcheck failures replay. *)
let break_one t ~seed =
  let cfg = t.cfg in
  let candidates = ref [] in
  let offer name f = candidates := (name, f) :: !candidates in
  (* (block, owning inode) pairs in block order *)
  let owned =
    let acc = ref [] in
    Array.iter
      (fun g ->
        if Bytes.length g.owners > 0 then
          for offset = 0 to g.data_blocks - 1 do
            let ow = owner g offset in
            if ow >= 0 then acc := (g.first_block + offset, ow) :: !acc
          done)
      t.groups;
    List.rev !acc
  in
  (match owned with
  | [] -> ()
  | _ ->
    offer "clear used-block bit" (fun () ->
        let b, ow = List.nth owned (abs seed mod List.length owned) in
        let g = group_of_block t b in
        clear_bit g.block_map (b - g.first_block);
        mark_group t g;
        (match Hashtbl.find_opt t.inodes ow with
        | Some node -> mark_ino t node
        | None -> mark_removed t ow);
        Printf.sprintf "cleared bitmap bit of owned block %d" b));
  (let g = t.groups.(abs seed mod Array.length t.groups) in
   if g.block_free > 0 then
     offer "set free-block bit" (fun () ->
         let offset = find_clear g.block_map 0 g.data_blocks in
         set_bit g.block_map offset;
         mark_group t g;
         Printf.sprintf "leaked free block %d" (g.first_block + offset)));
  offer "skew group free count" (fun () ->
      let g = t.groups.(abs seed mod Array.length t.groups) in
      g.block_free <- g.block_free + 1;
      t.total_free_blocks <- t.total_free_blocks + 1;
      mark_group t g;
      Printf.sprintf "inflated free count of group %d" g.index);
  (let inos = List.filter (fun i -> i <> t.root) (sorted_inos t) in
   match inos with
   | [] -> ()
   | _ ->
     let pick = List.nth inos (abs seed mod List.length inos) in
     offer "clear inode slot" (fun () ->
         let g = t.groups.(pick / cfg.inodes_per_group) in
         clear_bit g.inode_map (pick mod cfg.inodes_per_group);
         g.inode_free <- g.inode_free + 1;
         t.total_free_inodes <- t.total_free_inodes + 1;
         mark_group t g;
         mark_ino t (get_inode t pick);
         Printf.sprintf "freed bitmap slot of live inode %d" pick);
     offer "orphan inode" (fun () ->
         let node = get_inode t pick in
         (match Hashtbl.find_opt t.inodes node.parent with
         | Some { kind = Dir entries; _ } as p ->
           Hashtbl.remove entries node.pname;
           mark_ino t (Option.get p)
         | _ -> ());
         mark_subtree t node;
         Printf.sprintf "removed directory entry of inode %d" pick);
     let regulars =
       List.filter
         (fun i ->
           match Hashtbl.find_opt t.inodes i with
           | Some { kind = Regular; nblocks; _ } -> nblocks > 0
           | _ -> false)
         inos
     in
     (match regulars with
     | [] -> ()
     | _ ->
       let fino = List.nth regulars (abs seed mod List.length regulars) in
       offer "grow size without blocks" (fun () ->
           let node = get_inode t fino in
           node.size <- node.size + page_size;
           mark_ino t node;
           Printf.sprintf "grew inode %d size past its block count" fino);
       offer "steal an owned block" (fun () ->
           let node = get_inode t fino in
           match List.find_opt (fun (_, ow) -> ow <> fino) owned with
           | None -> "no block to steal (no-op)"
           | Some (victim, _) ->
             let old = nth_block t node (node.nblocks - 1) in
             t.arena.(node.ext_off + node.nblocks - 1) <- victim;
             (* the abandoned block stays allocated in its bitmap but no
                extent references it any more *)
             let g = group_of_block t old in
             clear_owner g (old - g.first_block);
             mark_ino t node;
             mark_group t g;
             Printf.sprintf "inode %d now claims block %d, abandoning %d" fino victim
               old)));
  (let dirs =
     List.filter
       (fun i ->
         match Hashtbl.find_opt t.inodes i with
         | Some { kind = Dir _; _ } -> true
         | _ -> false)
       (sorted_inos t)
   in
   match dirs with
   | [] -> ()
   | _ ->
     offer "dangling entry" (fun () ->
         let dino = List.nth dirs (abs seed mod List.length dirs) in
         let entries =
           match (get_inode t dino).kind with Dir e -> e | Regular -> assert false
         in
         let missing = ref (cfg.inodes_per_group * Array.length t.groups) in
         while Hashtbl.mem t.inodes !missing do incr missing done;
         Hashtbl.replace entries "zz-dangling" !missing;
         mark_ino t (get_inode t dino);
         Printf.sprintf "added dangling entry in directory %d -> %d" dino !missing));
  offer "skew global block total" (fun () ->
      t.total_free_blocks <- t.total_free_blocks + 1;
      "inflated the global free-block total");
  offer "skew global inode total" (fun () ->
      t.total_free_inodes <- t.total_free_inodes + 1;
      "inflated the global free-inode total");
  match List.rev !candidates with
  | [] -> None
  | cands ->
    let _, f = List.nth cands (abs (seed * 7919) mod List.length cands) in
    Some (f ())

(* ---- introspection ---- *)

let layout_of_file t ~ino =
  match Hashtbl.find_opt t.inodes ino with
  | None -> [||]
  | Some node -> Array.init node.nblocks (fun i -> nth_block t node i)

let free_blocks t = t.total_free_blocks
let free_inodes t = t.total_free_inodes

let fragmentation_of_file t ~ino =
  let layout = layout_of_file t ~ino in
  let n = Array.length layout in
  if n < 2 then 0.0
  else begin
    let breaks = ref 0 in
    for i = 1 to n - 1 do
      if layout.(i) <> layout.(i - 1) + 1 then incr breaks
    done;
    float_of_int !breaks /. float_of_int (n - 1)
  end

(* Exact work counts, read from the simulator's public counters before and
   after the measured phase.  Summed over every kernel a workload boots;
   the measured phase's counts are the difference of two snapshots. *)

open Simos

type t = {
  events : int;
  syscalls : int;
  by_kind : (string * int) list;  (** ledger syscall counts by kind *)
  hits : int;
  misses : int;
  evictions : int;
  page_ins : int;
  page_outs : int;
  zero_fills : int;
  file_fetches : int;
  file_writebacks : int;
  bytes_moved : int;  (** bytes read and written by syscalls *)
  disk_requests : int;
  disk_blocks : int;
  disk_seq : int;
  disk_busy_ns : int;
  slices : int;
  cpu_busy_ns : int;
  minor_words : float;
  major_words : float;
  major_collections : int;
}

let int_field name j =
  match Gray_util.Json.member name j with Some (Gray_util.Json.Int n) -> n | _ -> 0

(* Syscalls by kind, summed over the ledger's per-name aggregates (which
   include processes already reaped). *)
let account_totals k =
  match Kernel.account k with
  | None -> (0, [])
  | Some a -> (
    match Gray_util.Json.member "processes" (Account.export_json (Account.export a)) with
    | Some (Gray_util.Json.Obj procs) ->
      let by = Hashtbl.create 32 in
      let total =
        List.fold_left
          (fun acc (_, st) ->
            (match Gray_util.Json.member "by_syscall" st with
            | Some (Gray_util.Json.Obj kinds) ->
              List.iter
                (fun (kind, v) ->
                  let n = match v with Gray_util.Json.Int n -> n | _ -> 0 in
                  Hashtbl.replace by kind (n + Option.value ~default:0 (Hashtbl.find_opt by kind)))
                kinds
            | _ -> ());
            acc + int_field "syscalls" st)
          0 procs
      in
      (total, List.sort compare (List.of_seq (Hashtbl.to_seq by)))
    | _ -> (0, []))

let of_kernel k =
  let m = Kernel.memory k in
  let pools =
    if Memory.unified m then [ Memory.file_pool m ]
    else [ Memory.file_pool m; Memory.anon_pool m ]
  in
  let sum f = List.fold_left (fun acc q -> acc + f q) 0 pools in
  let disks =
    Kernel.swap_disk k :: List.init (Kernel.data_disks k) (Kernel.volume_disk k)
  in
  let dsum f = List.fold_left (fun acc d -> acc + f d) 0 disks in
  let c = Kernel.counters k in
  let syscalls, by_kind = account_totals k in
  {
    events = Engine.events_processed (Kernel.engine k);
    syscalls;
    by_kind;
    hits = sum Pool.hits;
    misses = sum Pool.misses;
    evictions = sum Pool.evictions;
    page_ins = c.Kernel.c_page_ins;
    page_outs = c.c_page_outs;
    zero_fills = c.c_zero_fills;
    file_fetches = c.c_file_fetches;
    file_writebacks = c.c_file_writebacks;
    bytes_moved = c.c_bytes_read + c.c_bytes_written;
    disk_requests = dsum Disk.requests;
    disk_blocks = dsum Disk.blocks_transferred;
    disk_seq = dsum Disk.sequential_hits;
    disk_busy_ns = dsum Disk.busy_ns;
    slices = (match Kernel.sched k with Some s -> Sched.slices s | None -> 0);
    cpu_busy_ns = Kernel.cpu_busy_ns k;
    minor_words = 0.0;
    major_words = 0.0;
    major_collections = 0;
  }

let merge_kinds ~sign a b =
  let tbl = Hashtbl.create 32 in
  let add sign (kind, n) =
    Hashtbl.replace tbl kind ((sign * n) + Option.value ~default:0 (Hashtbl.find_opt tbl kind))
  in
  List.iter (add 1) a;
  List.iter (add sign) b;
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

(* [combine ~sign:1 a b] sums two snapshots, [combine ~sign:(-1) a b]
   takes their difference. *)
let combine ~sign a b =
  let ( +! ) x y = x + (sign * y) in
  let ( +. ) x y = x +. (float_of_int sign *. y) in
  {
    events = a.events +! b.events;
    syscalls = a.syscalls +! b.syscalls;
    by_kind = merge_kinds ~sign a.by_kind b.by_kind;
    hits = a.hits +! b.hits;
    misses = a.misses +! b.misses;
    evictions = a.evictions +! b.evictions;
    page_ins = a.page_ins +! b.page_ins;
    page_outs = a.page_outs +! b.page_outs;
    zero_fills = a.zero_fills +! b.zero_fills;
    file_fetches = a.file_fetches +! b.file_fetches;
    file_writebacks = a.file_writebacks +! b.file_writebacks;
    bytes_moved = a.bytes_moved +! b.bytes_moved;
    disk_requests = a.disk_requests +! b.disk_requests;
    disk_blocks = a.disk_blocks +! b.disk_blocks;
    disk_seq = a.disk_seq +! b.disk_seq;
    disk_busy_ns = a.disk_busy_ns +! b.disk_busy_ns;
    slices = a.slices +! b.slices;
    cpu_busy_ns = a.cpu_busy_ns +! b.cpu_busy_ns;
    minor_words = a.minor_words +. b.minor_words;
    major_words = a.major_words +. b.major_words;
    major_collections = a.major_collections +! b.major_collections;
  }

let diff a b = combine ~sign:(-1) a b

let snapshot kernels =
  let base =
    match List.map of_kernel kernels with
    | [] -> invalid_arg "Ledger.snapshot: no kernel"
    | first :: rest -> List.fold_left (combine ~sign:1) first rest
  in
  let g = Gc.quick_stat () in
  {
    base with
    minor_words = g.Gc.minor_words;
    major_words = g.Gc.major_words;
    major_collections = g.Gc.major_collections;
  }

let kind t name = Option.value ~default:0 (List.assoc_opt name t.by_kind)

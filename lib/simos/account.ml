(* Per-process accounting ledger: see the .mli for the contract.  Rows
   are indexed by pid in a growable array (pids are small and dense —
   the kernel hands them out sequentially from 1), and the blame matrix
   is one flat [int array] with a power-of-two victim stride, so every
   hot-path bump is an array store. *)

module Flight = Gray_util.Flight
module Json = Gray_util.Json
module Table = Gray_util.Table

type stats = {
  st_pid : int;
  mutable st_name : string;
  sys : int array;
  mutable syscalls : int;
  mutable hits : int;
  mutable misses : int;
  mutable reads : int;
  mutable writes : int;
  mutable fetches : int;
  mutable writebacks : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable page_ins : int;
  mutable page_outs : int;
  mutable zero_fills : int;
  mutable evictions : int;
  mutable evicted : int;
  mutable faults : int;
  mutable cpu_ns : int;
  mutable block_ns : int;
}

let fresh_stats ~pid ~name =
  {
    st_pid = pid;
    st_name = name;
    sys = Array.make Flight.code_count 0;
    syscalls = 0;
    hits = 0;
    misses = 0;
    reads = 0;
    writes = 0;
    fetches = 0;
    writebacks = 0;
    bytes_read = 0;
    bytes_written = 0;
    page_ins = 0;
    page_outs = 0;
    zero_fills = 0;
    evictions = 0;
    evicted = 0;
    faults = 0;
    cpu_ns = 0;
    block_ns = 0;
  }

type t = {
  mutable procs : stats option array;  (* index = pid *)
  mutable exited : int list;  (* pids marked by [note_exit], not yet reaped *)
  mutable bstride : int;  (* victim stride of [blame], capped at [blame_cap] *)
  mutable blame : int array;  (* cell (e, v) at [e * bstride + v] *)
  blame_spill : (int, int) Hashtbl.t;  (* key (e lsl 30) lor v, pid >= stride *)
  reaped : (string, stats) Hashtbl.t;  (* name-keyed, st_pid = proc count *)
  reaped_blame : (string * string, int) Hashtbl.t;
  mutable reaped_procs : int;
}

let initial_pids = 16

(* The flat matrix stops doubling here: 1024² cells is 8 MB, and a fleet
   of 10⁴–10⁵ processes would otherwise square that.  Cells naming a
   higher pid go to [blame_spill] — sparse, sized by actual blame pairs. *)
let blame_cap = 1024

let create () =
  {
    procs = Array.make initial_pids None;
    exited = [];
    bstride = initial_pids;
    blame = Array.make (initial_pids * initial_pids) 0;
    blame_spill = Hashtbl.create 16;
    reaped = Hashtbl.create 8;
    reaped_blame = Hashtbl.create 8;
    reaped_procs = 0;
  }

let ensure_pid t pid =
  if pid >= Array.length t.procs then begin
    let cap = ref (Array.length t.procs) in
    while pid >= !cap do
      cap := !cap * 2
    done;
    let fresh = Array.make !cap None in
    Array.blit t.procs 0 fresh 0 (Array.length t.procs);
    t.procs <- fresh
  end;
  if pid >= t.bstride && t.bstride < blame_cap then begin
    let stride = ref t.bstride in
    while pid >= !stride && !stride < blame_cap do
      stride := !stride * 2
    done;
    let fresh = Array.make (!stride * !stride) 0 in
    for e = 0 to t.bstride - 1 do
      for v = 0 to t.bstride - 1 do
        fresh.((e * !stride) + v) <- t.blame.((e * t.bstride) + v)
      done
    done;
    t.bstride <- !stride;
    t.blame <- fresh
  end

let note_spawn t ~pid ~name =
  ensure_pid t pid;
  let st = fresh_stats ~pid ~name in
  t.procs.(pid) <- Some st;
  st

let note_syscall st code =
  st.sys.(Flight.code_index code) <- st.sys.(Flight.code_index code) + 1;
  st.syscalls <- st.syscalls + 1

let find t ~pid =
  if pid >= 0 && pid < Array.length t.procs then t.procs.(pid) else None

let spill_key e v = (e lsl 30) lor v
let spill_unkey key = (key lsr 30, key land 0x3FFFFFFF)

let bump_spill t key n =
  Hashtbl.replace t.blame_spill key
    (n + Option.value ~default:0 (Hashtbl.find_opt t.blame_spill key))

let note_eviction t ~evictor ~victim_pid =
  ensure_pid t evictor.st_pid;
  ensure_pid t victim_pid;
  let e = evictor.st_pid in
  if e < t.bstride && victim_pid < t.bstride then begin
    let cell = (e * t.bstride) + victim_pid in
    t.blame.(cell) <- t.blame.(cell) + 1
  end
  else bump_spill t (spill_key e victim_pid) 1;
  evictor.evictions <- evictor.evictions + 1;
  if victim_pid > 0 then
    match t.procs.(victim_pid) with
    | Some v -> v.evicted <- v.evicted + 1
    | None -> ()

let note_exit t ~pid =
  if pid >= 0 && pid < Array.length t.procs && Option.is_some t.procs.(pid)
  then t.exited <- pid :: t.exited

let reaped_procs t = t.reaped_procs

let reset t =
  t.procs <- Array.make initial_pids None;
  t.exited <- [];
  t.bstride <- initial_pids;
  t.blame <- Array.make (initial_pids * initial_pids) 0;
  Hashtbl.reset t.blame_spill;
  Hashtbl.reset t.reaped;
  Hashtbl.reset t.reaped_blame;
  t.reaped_procs <- 0

let rows t =
  let out = ref [] in
  for pid = Array.length t.procs - 1 downto 0 do
    match t.procs.(pid) with Some st -> out := st :: !out | None -> ()
  done;
  !out

let blame t ~evictor ~victim =
  if evictor < 0 || victim < 0 then 0
  else if evictor < t.bstride && victim < t.bstride then
    t.blame.((evictor * t.bstride) + victim)
  else
    Option.value ~default:0
      (Hashtbl.find_opt t.blame_spill (spill_key evictor victim))

let blame_triples t =
  let out = ref [] in
  Hashtbl.iter
    (fun key n ->
      if n > 0 then
        let e, v = spill_unkey key in
        out := (e, v, n) :: !out)
    t.blame_spill;
  for e = t.bstride - 1 downto 0 do
    for v = t.bstride - 1 downto 0 do
      let n = t.blame.((e * t.bstride) + v) in
      if n > 0 then out := (e, v, n) :: !out
    done
  done;
  List.sort compare !out

(* ---- aggregated export ------------------------------------------------ *)

(* Cross-kernel aggregation keys on process name (pids repeat across
   kernels).  The totals reuse [stats] with [st_pid] repurposed as the
   number of processes merged into the row. *)
type export = {
  ex_procs : (string * stats) list;  (* ascending name *)
  ex_blame : ((string * string) * int) list;  (* ascending (evictor, victim) *)
}

let file_victim = "(file)"

let victim_name t v =
  if v = 0 then file_victim
  else
    match find t ~pid:v with
    | Some st -> st.st_name
    | None -> "pid" ^ string_of_int v

let add_into acc st =
  acc.syscalls <- acc.syscalls + st.syscalls;
  Array.iteri (fun i n -> acc.sys.(i) <- acc.sys.(i) + n) st.sys;
  acc.hits <- acc.hits + st.hits;
  acc.misses <- acc.misses + st.misses;
  acc.reads <- acc.reads + st.reads;
  acc.writes <- acc.writes + st.writes;
  acc.fetches <- acc.fetches + st.fetches;
  acc.writebacks <- acc.writebacks + st.writebacks;
  acc.bytes_read <- acc.bytes_read + st.bytes_read;
  acc.bytes_written <- acc.bytes_written + st.bytes_written;
  acc.page_ins <- acc.page_ins + st.page_ins;
  acc.page_outs <- acc.page_outs + st.page_outs;
  acc.zero_fills <- acc.zero_fills + st.zero_fills;
  acc.evictions <- acc.evictions + st.evictions;
  acc.evicted <- acc.evicted + st.evicted;
  acc.faults <- acc.faults + st.faults;
  acc.cpu_ns <- acc.cpu_ns + st.cpu_ns;
  acc.block_ns <- acc.block_ns + st.block_ns

(* Every live row plus every reaped aggregate: each process is counted
   once, whether or not it has been folded away yet. *)
let total t =
  let acc = fresh_stats ~pid:0 ~name:"total" in
  Array.iter (Option.iter (add_into acc)) t.procs;
  Hashtbl.iter (fun _ st -> add_into acc st) t.reaped;
  acc

(* ---- exit-time reap --------------------------------------------------- *)

(* Fold exited rows into the same name-keyed shape the export uses, in
   two passes: blame first (counterpart names must resolve while every
   row is still live — dropping rows first would turn a dead partner
   into "pidN"), then the stats rows.  Cells are zeroed as they fold so
   a cell both of whose pids exited is counted exactly once. *)
let reap t =
  if t.exited <> [] then begin
    let dead = Hashtbl.create (List.length t.exited) in
    List.iter
      (fun p ->
        if p < Array.length t.procs && Option.is_some t.procs.(p) then
          Hashtbl.replace dead p ())
      t.exited;
    t.exited <- [];
    let fold_cell e v n =
      if n > 0 then begin
        let key = (victim_name t e, victim_name t v) in
        Hashtbl.replace t.reaped_blame key
          (n + Option.value ~default:0 (Hashtbl.find_opt t.reaped_blame key))
      end
    in
    Hashtbl.iter
      (fun p () ->
        if p < t.bstride then begin
          for v = 0 to t.bstride - 1 do
            let cell = (p * t.bstride) + v in
            fold_cell p v t.blame.(cell);
            t.blame.(cell) <- 0
          done;
          for e = 0 to t.bstride - 1 do
            let cell = (e * t.bstride) + p in
            fold_cell e p t.blame.(cell);
            t.blame.(cell) <- 0
          done
        end)
      dead;
    let spilled_dead =
      Hashtbl.fold
        (fun key n acc ->
          let e, v = spill_unkey key in
          if Hashtbl.mem dead e || Hashtbl.mem dead v then
            (key, e, v, n) :: acc
          else acc)
        t.blame_spill []
    in
    List.iter
      (fun (key, e, v, n) ->
        Hashtbl.remove t.blame_spill key;
        fold_cell e v n)
      spilled_dead;
    Hashtbl.iter
      (fun p () ->
        match t.procs.(p) with
        | None -> ()
        | Some st ->
          let acc =
            match Hashtbl.find_opt t.reaped st.st_name with
            | Some acc -> acc
            | None ->
              let acc = fresh_stats ~pid:0 ~name:st.st_name in
              Hashtbl.add t.reaped st.st_name acc;
              acc
          in
          add_into acc st;
          Hashtbl.replace t.reaped st.st_name { acc with st_pid = acc.st_pid + 1 };
          t.procs.(p) <- None;
          t.reaped_procs <- t.reaped_procs + 1)
      dead
  end

let sorted_assoc tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let export t =
  let procs = Hashtbl.create 8 in
  List.iter
    (fun st ->
      let acc =
        match Hashtbl.find_opt procs st.st_name with
        | Some acc -> acc
        | None ->
          let acc = fresh_stats ~pid:0 ~name:st.st_name in
          Hashtbl.add procs st.st_name acc;
          acc
      in
      add_into acc st;
      (* st_pid doubles as the merged-process count in exports *)
      Hashtbl.replace procs st.st_name { acc with st_pid = acc.st_pid + 1 })
    (rows t);
  Hashtbl.iter
    (fun name st ->
      match Hashtbl.find_opt procs name with
      | Some acc ->
        add_into acc st;
        Hashtbl.replace procs name { acc with st_pid = acc.st_pid + st.st_pid }
      | None ->
        let acc = fresh_stats ~pid:st.st_pid ~name in
        add_into acc st;
        Hashtbl.add procs name acc)
    t.reaped;
  let blame = Hashtbl.create 8 in
  let bump key n =
    Hashtbl.replace blame key
      (n + Option.value ~default:0 (Hashtbl.find_opt blame key))
  in
  List.iter
    (fun (e, v, n) -> bump (victim_name t e, victim_name t v) n)
    (blame_triples t);
  Hashtbl.iter (fun key n -> bump key n) t.reaped_blame;
  { ex_procs = sorted_assoc procs; ex_blame = sorted_assoc blame }

let merge_exports exports =
  let procs = Hashtbl.create 8 in
  let blame = Hashtbl.create 8 in
  List.iter
    (fun ex ->
      List.iter
        (fun (name, st) ->
          match Hashtbl.find_opt procs name with
          | Some acc ->
            add_into acc st;
            Hashtbl.replace procs name { acc with st_pid = acc.st_pid + st.st_pid }
          | None ->
            let acc = fresh_stats ~pid:st.st_pid ~name in
            add_into acc st;
            Hashtbl.replace procs name acc)
        ex.ex_procs;
      List.iter
        (fun (key, n) ->
          Hashtbl.replace blame key
            (n + Option.value ~default:0 (Hashtbl.find_opt blame key)))
        ex.ex_blame)
    exports;
  { ex_procs = sorted_assoc procs; ex_blame = sorted_assoc blame }

let export_is_empty ex = ex.ex_procs = [] && ex.ex_blame = []
let export_blame_nonempty ex = ex.ex_blame <> []

let syscalls_json st =
  let all =
    Flight.
      [
        Open; Create; Close; Read; Write; Mkdir; Unlink; Rename; Readdir;
        Stat; Utimes; Fsync; Sync; Write_blob; Read_blob; Valloc; Vfree;
        Vrelease; Touch; Vmstat; Compute;
      ]
  in
  List.filter_map
    (fun c ->
      let n = st.sys.(Flight.code_index c) in
      if n > 0 then Some (Flight.code_name c, Json.Int n) else None)
    all

let stats_json st =
  Json.Obj
    [
      ("procs", Json.Int st.st_pid);
      ("syscalls", Json.Int st.syscalls);
      ("by_syscall", Json.Obj (syscalls_json st));
      ("hits", Json.Int st.hits);
      ("misses", Json.Int st.misses);
      ("fetches", Json.Int st.fetches);
      ("writebacks", Json.Int st.writebacks);
      ("bytes_read", Json.Int st.bytes_read);
      ("bytes_written", Json.Int st.bytes_written);
      ("page_ins", Json.Int st.page_ins);
      ("page_outs", Json.Int st.page_outs);
      ("zero_fills", Json.Int st.zero_fills);
      ("evictions", Json.Int st.evictions);
      ("evicted", Json.Int st.evicted);
      ("faults", Json.Int st.faults);
      ("cpu_ns", Json.Int st.cpu_ns);
      ("block_ns", Json.Int st.block_ns);
    ]

let export_json ex =
  let blame_rows =
    (* group by evictor, preserving the sorted order *)
    List.fold_left
      (fun acc ((e, v), n) ->
        match acc with
        | (e', vs) :: rest when e' = e -> (e', (v, Json.Int n) :: vs) :: rest
        | _ -> (e, [ (v, Json.Int n) ]) :: acc)
      [] ex.ex_blame
    |> List.rev_map (fun (e, vs) -> (e, Json.Obj (List.rev vs)))
  in
  Json.Obj
    [
      ("processes", Json.Obj (List.map (fun (n, st) -> (n, stats_json st)) ex.ex_procs));
      ("eviction_blame", Json.Obj blame_rows);
    ]

(* ---- rendering -------------------------------------------------------- *)

let ms ns = Printf.sprintf "%.2f" (float_of_int ns /. 1e6)

let top_table t =
  let tbl =
    Table.create ~title:"per-process accounting"
      ~columns:
        [
          "pid"; "name"; "sys"; "hit"; "miss"; "fetch"; "wb"; "pgin";
          "pgout"; "zfill"; "ev"; "evd"; "fault"; "cpu_ms"; "blk_ms";
        ]
  in
  List.iter
    (fun st ->
      Table.add_row tbl
        [
          string_of_int st.st_pid; st.st_name; string_of_int st.syscalls;
          string_of_int st.hits; string_of_int st.misses;
          string_of_int st.fetches; string_of_int st.writebacks;
          string_of_int st.page_ins; string_of_int st.page_outs;
          string_of_int st.zero_fills; string_of_int st.evictions;
          string_of_int st.evicted; string_of_int st.faults; ms st.cpu_ns;
          ms st.block_ns;
        ])
    (rows t);
  Table.render tbl

let blame_table t =
  let triples = blame_triples t in
  let victims =
    List.sort_uniq compare (List.map (fun (_, v, _) -> v) triples)
  in
  let evictors =
    List.sort_uniq compare (List.map (fun (e, _, _) -> e) triples)
  in
  let label pid =
    if pid = 0 then file_victim
    else Printf.sprintf "%s(%d)" (victim_name t pid) pid
  in
  let tbl =
    Table.create ~title:"eviction blame (evictor row x victim column)"
      ~columns:("evictor" :: List.map label victims)
  in
  List.iter
    (fun e ->
      Table.add_row tbl
        (label e
        :: List.map (fun v -> string_of_int (blame t ~evictor:e ~victim:v)) victims))
    evictors;
  Table.render tbl

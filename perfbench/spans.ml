(* In-memory span recorder for the traced run.

   Everything here is host time (the monotonic clock), never simulated
   time.  Spans are recorded only by the benchmark's own code: phase
   spans around its calls into the kernel, parent spans around ICL entry
   points, and one span per [Os_intf.S] call made through {!Timed}.  The
   untraced run never turns recording on, so it pays one [bool ref] read
   per phase and nothing per call (it does not go through {!Timed} at
   all).

   A span's self time is its duration minus the durations of its direct
   children.  That is valid for the ICL spans because ICL code yields to
   other fibers only inside an [Os_intf.S] call, and the traced drivers
   run a single fiber at a time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let enabled = ref false

(* The [Os_intf.S] calls, in signature order; {!Timed} records each under
   its index. *)
let calls =
  [|
    "gettime"; "timing_confidence_cap"; "sleep_ns"; "open_file"; "create_file";
    "close"; "read"; "write"; "file_size"; "mkdir"; "unlink"; "rename";
    "readdir"; "stat"; "utimes"; "fsync"; "sync"; "write_blob"; "read_blob";
    "durability_on"; "valloc"; "vfree"; "vrelease"; "touch_pages"; "vmstat";
    "compute"; "compute_bytes"; "pid"; "flight";
  |]

let call_index name =
  let rec go i =
    if i = Array.length calls then invalid_arg ("Spans.call_index: " ^ name)
    else if calls.(i) = name then i
    else go (i + 1)
  in
  go 0

let ncalls = Array.length calls
let call_count = Array.make ncalls 0
let call_ns = Array.make ncalls 0

type frame = { f_start : int; mutable f_child_ns : int; f_child_calls : int array }

let stack : frame list ref = ref []

type agg = {
  mutable a_ns : int;
  mutable a_self_ns : int;
  a_child_calls : int array;
}

let aggs : (string, agg) Hashtbl.t = Hashtbl.create 16

(* Chrome trace events: name index, start, duration.  Syscall events stop
   being stored past [max_call_events] (their counts and times are still
   exact); phase and ICL spans are always stored. *)
let max_call_events = 50_000
let names : (string, int) Hashtbl.t = Hashtbl.create 64
let name_list = ref []

let name_id name =
  match Hashtbl.find_opt names name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length names in
    Hashtbl.add names name i;
    name_list := name :: !name_list;
    i

let ev_name = ref (Array.make 4096 0)
let ev_start = ref (Array.make 4096 0)
let ev_dur = ref (Array.make 4096 0)
let nev = ref 0
let call_events = ref 0
let dropped_events = ref 0

let grow a = Array.append !a (Array.make (Array.length !a) 0)

let push_event id start dur =
  if !nev = Array.length !ev_name then begin
    ev_name := grow ev_name;
    ev_start := grow ev_start;
    ev_dur := grow ev_dur
  end;
  !ev_name.(!nev) <- id;
  !ev_start.(!nev) <- start;
  !ev_dur.(!nev) <- dur;
  incr nev

let call_ids = Array.map (fun n -> lazy (name_id ("os." ^ n))) calls

let record_call id t0 t1 =
  let d = t1 - t0 in
  call_count.(id) <- call_count.(id) + 1;
  call_ns.(id) <- call_ns.(id) + d;
  (match !stack with
  | f :: _ ->
    f.f_child_ns <- f.f_child_ns + d;
    f.f_child_calls.(id) <- f.f_child_calls.(id) + 1
  | [] -> ());
  if !call_events < max_call_events then begin
    incr call_events;
    push_event (Lazy.force call_ids.(id)) t0 d
  end
  else incr dropped_events

let close_frame name frame =
  let t1 = now_ns () in
  let dur = t1 - frame.f_start in
  (match !stack with _ :: rest -> stack := rest | [] -> ());
  let a =
    match Hashtbl.find_opt aggs name with
    | Some a -> a
    | None ->
      let a =
        { a_ns = 0; a_self_ns = 0; a_child_calls = Array.make ncalls 0 }
      in
      Hashtbl.add aggs name a;
      a
  in
  a.a_ns <- a.a_ns + dur;
  a.a_self_ns <- a.a_self_ns + (dur - frame.f_child_ns);
  Array.iteri (fun i n -> a.a_child_calls.(i) <- a.a_child_calls.(i) + n) frame.f_child_calls;
  (match !stack with p :: _ -> p.f_child_ns <- p.f_child_ns + dur | [] -> ());
  push_event (name_id name) frame.f_start dur

let span name f =
  if not !enabled then f ()
  else begin
    let frame = { f_start = now_ns (); f_child_ns = 0; f_child_calls = Array.make ncalls 0 } in
    stack := frame :: !stack;
    match f () with
    | v ->
      close_frame name frame;
      v
    | exception e ->
      close_frame name frame;
      raise e
  end

(* Forget counts and aggregates (the stored trace events stay), so the
   measured phase's counts exclude set-up. *)
let reset_counts () =
  Array.fill call_count 0 ncalls 0;
  Array.fill call_ns 0 ncalls 0;
  Hashtbl.reset aggs

let agg name = Hashtbl.find_opt aggs name
let total_ns name = match agg name with Some a -> a.a_ns | None -> 0
let self_ns name = match agg name with Some a -> a.a_self_ns | None -> 0

let child_calls name call =
  match agg name with Some a -> a.a_child_calls.(call_index call) | None -> 0

(* Chrome trace_event JSON (Perfetto loads it directly), in the shape
   [Gray_util.Telemetry] exports: complete ("X") events with times in
   microseconds relative to the first event, after a process-name
   metadata event whose args carry [meta]. *)
let write_chrome ~path ~meta =
  let module J = Gray_util.Json in
  let names = Array.of_list (List.rev !name_list) in
  let base = ref max_int in
  for i = 0 to !nev - 1 do
    base := min !base !ev_start.(i)
  done;
  let us ns = J.Float (float_of_int ns /. 1e3) in
  let event i =
    J.Obj
      [
        ("ph", J.String "X");
        ("name", J.String names.(!ev_name.(i)));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ("ts", us (!ev_start.(i) - !base));
        ("dur", us !ev_dur.(i));
      ]
  in
  let process =
    J.Obj
      [
        ("ph", J.String "M");
        ("name", J.String "process_name");
        ("pid", J.Int 1);
        ( "args",
          J.Obj
            ((("name", J.String "perfbench") :: List.map (fun (k, v) -> (k, J.String v)) meta)
            @ [ ("dropped_call_events", J.Int !dropped_events) ]) );
      ]
  in
  let trace = Gray_util.Telemetry.chrome_trace (process :: List.init !nev event) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string trace);
      output_char oc '\n')

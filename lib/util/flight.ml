(* Always-on flight recorder: see the .mli for the black-box contract.
   Five parallel preallocated arrays keyed by a wrapping head keep
   [record] at five plain stores — the code variant is all-constant, so
   the runtime represents [code array] as an unboxed int array and the
   hot path never allocates. *)

type code =
  | Open | Create | Close | Read | Write | Mkdir | Unlink | Rename
  | Readdir | Stat | Utimes | Fsync | Sync | Write_blob | Read_blob
  | Valloc | Vfree | Vrelease | Touch | Vmstat | Compute
  | Evict
  | Fault
  | Disturb
  | Pressure
  | Drift
  | Stale | Recalibrated | Exhausted

let code_name = function
  | Open -> "open"
  | Create -> "create"
  | Close -> "close"
  | Read -> "read"
  | Write -> "write"
  | Mkdir -> "mkdir"
  | Unlink -> "unlink"
  | Rename -> "rename"
  | Readdir -> "readdir"
  | Stat -> "stat"
  | Utimes -> "utimes"
  | Fsync -> "fsync"
  | Sync -> "sync"
  | Write_blob -> "write_blob"
  | Read_blob -> "read_blob"
  | Valloc -> "valloc"
  | Vfree -> "vfree"
  | Vrelease -> "vrelease"
  | Touch -> "touch"
  | Vmstat -> "vmstat"
  | Compute -> "compute"
  | Evict -> "evict"
  | Fault -> "fault"
  | Disturb -> "fault.disturb"
  | Pressure -> "fault.pressure"
  | Drift -> "drift"
  | Stale -> "icl.stale"
  | Recalibrated -> "icl.recalibrated"
  | Exhausted -> "icl.exhausted"

let code_index = function
  | Open -> 0 | Create -> 1 | Close -> 2 | Read -> 3 | Write -> 4
  | Mkdir -> 5 | Unlink -> 6 | Rename -> 7 | Readdir -> 8 | Stat -> 9
  | Utimes -> 10 | Fsync -> 11 | Sync -> 12 | Write_blob -> 13
  | Read_blob -> 14 | Valloc -> 15 | Vfree -> 16 | Vrelease -> 17
  | Touch -> 18 | Vmstat -> 19 | Compute -> 20
  | Evict -> 21 | Fault -> 22 | Disturb -> 23 | Pressure -> 24
  | Drift -> 25 | Stale -> 26 | Recalibrated -> 27 | Exhausted -> 28

let code_count = 29

let is_syscall c = code_index c <= code_index Compute

(* Drift-event kind indices fixed by the kernel's drift daemon; kept here
   so the renderer names them without depending on Simos. *)
let drift_kind_name = function
  | 0 -> "cache_resize"
  | 1 -> "policy_swap"
  | 2 -> "timer_scale"
  | 3 -> "pressure"
  | k -> "kind" ^ string_of_int k

type t = {
  cap : int;
  ts : int array;
  code : code array;
  pid : int array;
  a : int array;
  b : int array;
  mutable total : int;  (* events ever recorded; head = total mod cap *)
}

let default_capacity = 128

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Flight.create: capacity must be >= 1";
  {
    cap = capacity;
    ts = Array.make capacity 0;
    code = Array.make capacity Open;
    pid = Array.make capacity 0;
    a = Array.make capacity 0;
    b = Array.make capacity 0;
    total = 0;
  }

let capacity t = t.cap
let recorded t = t.total

let record t ~ts ~code ~pid ~a ~b =
  let i = t.total mod t.cap in
  t.ts.(i) <- ts;
  t.code.(i) <- code;
  t.pid.(i) <- pid;
  t.a.(i) <- a;
  t.b.(i) <- b;
  t.total <- t.total + 1

let reset t = t.total <- 0

type event = {
  ev_ts : int;
  ev_code : code;
  ev_pid : int;
  ev_a : int;
  ev_b : int;
}

let events ?last t =
  let resident = min t.total t.cap in
  let keep = match last with None -> resident | Some n -> min n resident in
  let out = ref [] in
  (* newest-first walk, cons'ing yields oldest-first *)
  for k = 0 to keep - 1 do
    let i = (t.total - 1 - k) mod t.cap in
    out :=
      {
        ev_ts = t.ts.(i);
        ev_code = t.code.(i);
        ev_pid = t.pid.(i);
        ev_a = t.a.(i);
        ev_b = t.b.(i);
      }
      :: !out
  done;
  !out

let line_of ev =
  let base = Printf.sprintf "[%d] pid=%d %s" ev.ev_ts ev.ev_pid (code_name ev.ev_code) in
  match ev.ev_code with
  | Evict ->
    Printf.sprintf "%s victim=%s%s" base
      (if ev.ev_a = 0 then "file" else "pid" ^ string_of_int ev.ev_a)
      (if ev.ev_b = 1 then " dirty" else "")
  | Fault -> Printf.sprintf "%s target=%d" base ev.ev_a
  | Disturb -> Printf.sprintf "%s dropped=%d" base ev.ev_a
  | Pressure -> Printf.sprintf "%s pages=%d" base ev.ev_a
  | Drift -> Printf.sprintf "%s %s arg=%d" base (drift_kind_name ev.ev_a) ev.ev_b
  | Stale | Recalibrated | Exhausted -> Printf.sprintf "%s icl=%d" base ev.ev_a
  | _ ->
    (* syscall boundary: [a] carries the crash plane's boundary number
       when a plane is installed (0 otherwise) *)
    if ev.ev_a > 0 then Printf.sprintf "%s @%d" base ev.ev_a else base

let lines ?last t = List.map line_of (events ?last t)

let dump ?last t =
  let ls = lines ?last t in
  let header =
    Printf.sprintf "flight recorder: %d event(s) recorded, capacity %d, showing %d"
      t.total t.cap (List.length ls)
  in
  String.concat "\n" (header :: ls) ^ "\n"

(* The real-OS backend: [Os_intf.S] over the Unix module, hardened.

   Every syscall is wrapped so that no exception — [Unix_error],
   [Sys_error], [Out_of_memory] — ever escapes to the ICL: transient
   errno values (EINTR/EAGAIN) are retried with backoff up to a per-call
   deadline, partial reads/writes are completed in a loop, and every
   other errno maps into the same typed taxonomy the fault plane injects
   ([Simos.Kernel.error]), so ICL error paths exercised under simulated
   fault injection are the exact paths a flaky real kernel takes.

   Timing comes from CLOCK_MONOTONIC (the bechamel stub, a noalloc
   external).  A capability probe at {!create} measures the achievable
   timer resolution; a coarse timer widens {!timing_confidence_cap}
   instead of failing, and a broken clock (never advances) makes
   {!create} return [Unsupported] — graceful degradation, not a crash. *)

open Simos

let name = "host"

let page = 4096

(* ---- errno taxonomy --------------------------------------------------- *)

(* Stable errno names for the [Sys_error] payload: [Unix.error_message]
   is locale-dependent prose, useless in a typed result a test (or a
   shell script) wants to match on. *)
let errno_name (e : Unix.error) =
  match e with
  | Unix.EACCES -> "EACCES"
  | EBUSY -> "EBUSY"
  | EFAULT -> "EFAULT"
  | EFBIG -> "EFBIG"
  | EINVAL -> "EINVAL"
  | EIO -> "EIO"
  | ELOOP -> "ELOOP"
  | EMFILE -> "EMFILE"
  | ENAMETOOLONG -> "ENAMETOOLONG"
  | ENFILE -> "ENFILE"
  | ENODEV -> "ENODEV"
  | ENOMEM -> "ENOMEM"
  | ENXIO -> "ENXIO"
  | EPERM -> "EPERM"
  | EROFS -> "EROFS"
  | EXDEV -> "EXDEV"
  | EOVERFLOW -> "EOVERFLOW"
  | EUNKNOWNERR n -> Printf.sprintf "errno:%d" n
  | e -> (
    (* the remaining constructors are rare on the calls we make; fall
       back to the (ASCII) libc message rather than growing this match
       forever *)
    try Unix.error_message e with _ -> "EUNKNOWN")

let errno_error (e : Unix.error) : Kernel.error =
  match e with
  | Unix.ENOENT -> Kernel.Fs_error Fs.Enoent
  | EEXIST -> Kernel.Fs_error Fs.Eexist
  | ENOTDIR -> Kernel.Fs_error Fs.Enotdir
  | EISDIR -> Kernel.Fs_error Fs.Eisdir
  | ENOTEMPTY -> Kernel.Fs_error Fs.Enotempty
  | ENOSPC -> Kernel.Fs_error Fs.Enospc
  | EBADF -> Kernel.Bad_fd
  | EINTR | EAGAIN | EWOULDBLOCK -> Kernel.Retryable
  | e -> Kernel.Sys_error (errno_name e)

(* ---- the environment -------------------------------------------------- *)

type fd = int

type fd_info = { fi_real : Unix.file_descr; fi_path : string }

type t = {
  root : string;  (* "" = host paths used as given *)
  deadline_ns : int;  (* per-syscall transient-retry budget *)
  resolution_ns : int;  (* measured monotonic-timer resolution *)
  cap : float;  (* timing confidence cap derived from it *)
  t0 : int64;  (* monotonic origin: gettime counts from 0 *)
  fds : (int, fd_info) Hashtbl.t;
  mutable next_fd : int;
  scratch : Bytes.t;  (* reused I/O buffer: reads discard, writes zero *)
  fl : Gray_util.Flight.t;
}

type env = t
type region = { r_pages : int; mutable r_buf : Bytes.t option }

let now_raw () = Monotonic_clock.now ()
let now_ns t = Int64.to_int (Int64.sub (now_raw ()) t.t0)
let gettime = now_ns
let timing_confidence_cap t = t.cap
let timer_resolution_ns t = t.resolution_ns
let open_fd_count t = Hashtbl.length t.fds
let flight t = t.fl
let pid (_ : t) = Unix.getpid ()
let durability_on (_ : t) = true

let sleep_ns ns =
  if ns > 0 then
    try Unix.sleepf (float_of_int ns /. 1e9)
    with Unix.Unix_error ((EINTR | EAGAIN), _, _) -> ()

let record t code =
  Gray_util.Flight.record t.fl ~ts:(now_ns t) ~code ~pid:(Unix.getpid ()) ~a:0 ~b:0

(* ---- defensive call wrapper ------------------------------------------- *)

(* Run one Unix call totally: EINTR retries immediately, EAGAIN backs
   off (doubling, capped at 1 ms) until the deadline turns it into a
   typed [Timeout]; every other exception becomes a typed error.  The
   deadline only bounds the transient-retry loop — a slow but
   successful call is never cut short. *)
let guard t f =
  let deadline = now_ns t + t.deadline_ns in
  let rec go backoff =
    match f () with
    | v -> Ok v
    | exception Unix.Unix_error (EINTR, _, _) ->
      if now_ns t > deadline then Error Kernel.Timeout else go backoff
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      if now_ns t > deadline then Error Kernel.Timeout
      else begin
        sleep_ns backoff;
        go (min 1_000_000 (backoff * 2))
      end
    | exception Unix.Unix_error (e, _, _) -> Error (errno_error e)
    | exception Sys_error msg -> Error (Kernel.Sys_error msg)
    | exception Out_of_memory -> Error (Kernel.Sys_error "ENOMEM")
  in
  go 1_000

(* ---- paths ------------------------------------------------------------ *)

(* Containment is part of the hardening: with a [root] configured, a
   path that climbs out of it (a ".." component) is rejected with the
   same [Bad_path] the simulated kernel uses for a path outside its
   volumes — before any host syscall sees it. *)
let resolve t path =
  let climbs =
    List.exists (fun c -> c = "..") (String.split_on_char '/' path)
  in
  if climbs then Error Kernel.Bad_path
  else if t.root = "" then Ok path
  else if String.length path > 0 && path.[0] = '/' then Ok (t.root ^ path)
  else Ok (t.root ^ "/" ^ path)

let dirname path =
  match String.rindex_opt path '/' with
  | None | Some 0 -> "/"
  | Some i -> String.sub path 0 i

let basename path =
  match String.rindex_opt path '/' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

(* Blob side-band (the FLDC journal records): a sidecar file next to its
   owner.  Sidecars are an implementation detail — readdir hides them,
   unlink/rename carry them, fsync flushes them with the owner. *)
let blob_prefix = ".gb_blob."
let blob_path path = dirname path ^ "/" ^ blob_prefix ^ basename path

let is_blob_name n =
  String.length n >= String.length blob_prefix
  && String.sub n 0 (String.length blob_prefix) = blob_prefix

(* ---- fd table --------------------------------------------------------- *)

let find_fd t fd = Hashtbl.find_opt t.fds fd

let register t real path =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fds fd { fi_real = real; fi_path = path };
  fd

(* ---- file syscalls ---------------------------------------------------- *)

let open_file t path =
  record t Gray_util.Flight.Open;
  match resolve t path with
  | Error e -> Error e
  | Ok p -> (
    match guard t (fun () -> Unix.openfile p [ Unix.O_RDWR ] 0) with
    | Error _ as e -> e
    | Ok real -> Ok (register t real p))

let create_file t path =
  record t Gray_util.Flight.Create;
  match resolve t path with
  | Error e -> Error e
  | Ok p -> (
    match
      guard t (fun () ->
          Unix.openfile p [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_EXCL ] 0o644)
    with
    | Error _ as e -> e
    | Ok real -> Ok (register t real p))

let close t fd =
  record t Gray_util.Flight.Close;
  match find_fd t fd with
  | None -> ()
  | Some { fi_real; _ } ->
    Hashtbl.remove t.fds fd;
    (try Unix.close fi_real with Unix.Unix_error _ -> ())

let scratch_bytes = 1 lsl 20

(* Positional I/O through lseek + read/write (single-threaded per env,
   so the shared file offset is safe).  Short transfers are completed in
   a loop: the ICL asked for [len] bytes of cache-state evidence and a
   partial count is an artifact of the host, not information. *)
let read t fd ~off ~len =
  record t Gray_util.Flight.Read;
  if off < 0 || len < 0 then Error (Kernel.Sys_error "EINVAL")
  else
    match find_fd t fd with
    | None -> Error Kernel.Bad_fd
    | Some { fi_real; _ } ->
      let rec fill total =
        if total >= len then Ok total
        else
          let want = min (len - total) scratch_bytes in
          match
            guard t (fun () ->
                ignore (Unix.lseek fi_real (off + total) Unix.SEEK_SET);
                Unix.read fi_real t.scratch 0 want)
          with
          | Error _ as e -> e
          | Ok 0 -> Ok total (* end of file: short read, like the sim *)
          | Ok n -> fill (total + n)
      in
      fill 0

let write t fd ~off ~len =
  record t Gray_util.Flight.Write;
  if off < 0 || len < 0 then Error (Kernel.Sys_error "EINVAL")
  else
    match find_fd t fd with
    | None -> Error Kernel.Bad_fd
    | Some { fi_real; _ } ->
      Bytes.fill t.scratch 0 (min len scratch_bytes) '\000';
      let rec drain total =
        if total >= len then Ok total
        else
          let want = min (len - total) scratch_bytes in
          match
            guard t (fun () ->
                ignore (Unix.lseek fi_real (off + total) Unix.SEEK_SET);
                Unix.write fi_real t.scratch 0 want)
          with
          | Error _ as e -> e
          | Ok 0 -> Error (Kernel.Sys_error "EIO") (* no forward progress *)
          | Ok n -> drain (total + n)
      in
      drain 0

let file_size t fd =
  match find_fd t fd with
  | None -> 0
  | Some { fi_real; _ } -> (
    match guard t (fun () -> (Unix.fstat fi_real).Unix.st_size) with
    | Ok n -> n
    | Error _ -> 0)

let mkdir t path =
  record t Gray_util.Flight.Mkdir;
  match resolve t path with
  | Error e -> Error e
  | Ok p -> guard t (fun () -> Unix.mkdir p 0o755)

let unlink t path =
  record t Gray_util.Flight.Unlink;
  match resolve t path with
  | Error e -> Error e
  | Ok p ->
    (* the sim's unlink removes empty directories too; match it *)
    let r =
      guard t (fun () ->
          match (Unix.lstat p).Unix.st_kind with
          | Unix.S_DIR -> Unix.rmdir p
          | _ -> Unix.unlink p)
    in
    (match r with
    | Ok () -> ( try Unix.unlink (blob_path p) with _ -> ())
    | Error _ -> ());
    r

let rename t ~src ~dst =
  record t Gray_util.Flight.Rename;
  match (resolve t src, resolve t dst) with
  | Error e, _ | _, Error e -> Error e
  | Ok s, Ok d ->
    let r = guard t (fun () -> Unix.rename s d) in
    (match r with
    | Ok () -> ( try Unix.rename (blob_path s) (blob_path d) with _ -> ())
    | Error _ -> ());
    r

let readdir t path =
  record t Gray_util.Flight.Readdir;
  match resolve t path with
  | Error e -> Error e
  | Ok p ->
    guard t (fun () ->
        let dir = Unix.opendir p in
        Fun.protect
          ~finally:(fun () -> try Unix.closedir dir with _ -> ())
          (fun () ->
            let acc = ref [] in
            (try
               while true do
                 let n = Unix.readdir dir in
                 if n <> "." && n <> ".." && not (is_blob_name n) then
                   acc := n :: !acc
               done
             with End_of_file -> ());
            (* host readdir order is fs-dependent; sort for determinism *)
            List.sort compare !acc))

let stat t path =
  record t Gray_util.Flight.Stat;
  match resolve t path with
  | Error e -> Error e
  | Ok p ->
    guard t (fun () ->
        let st = Unix.stat p in
        {
          Fs.st_ino = st.Unix.st_ino;
          st_size = st.Unix.st_size;
          st_is_dir = st.Unix.st_kind = Unix.S_DIR;
          (* the taxonomy keeps integer nanoseconds; 63-bit ints hold
             epoch-ns until the year 2262 *)
          st_atime = int_of_float (st.Unix.st_atime *. 1e9);
          st_mtime = int_of_float (st.Unix.st_mtime *. 1e9);
          st_blocks = (st.Unix.st_size + 511) / 512;
        })

let utimes t path ~atime ~mtime =
  record t Gray_util.Flight.Utimes;
  match resolve t path with
  | Error e -> Error e
  | Ok p ->
    guard t (fun () ->
        let s ns =
          let v = float_of_int ns /. 1e9 in
          (* Unix.utimes treats (0, 0) as "set to now"; an ICL restoring
             a genuine zero timestamp must not be misread as that *)
          if v = 0.0 then 1e-6 else v
        in
        Unix.utimes p (s atime) (s mtime))

let fsync_dir p =
  (* a directory fsync makes the entry durable; some file systems refuse
     it (EINVAL) and that is fine — best effort, never an error *)
  match Unix.openfile p [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | d ->
    (try Unix.fsync d with Unix.Unix_error _ -> ());
    ( try Unix.close d with Unix.Unix_error _ -> ())

let fsync t fd =
  record t Gray_util.Flight.Fsync;
  match find_fd t fd with
  | None -> Error Kernel.Bad_fd
  | Some { fi_real; fi_path } ->
    let r = guard t (fun () -> Unix.fsync fi_real) in
    (match r with
    | Ok () ->
      (* the durable image must include the blob sidecar and the name *)
      (match Unix.openfile (blob_path fi_path) [ Unix.O_RDONLY ] 0 with
      | exception Unix.Unix_error _ -> ()
      | b ->
        (try Unix.fsync b with Unix.Unix_error _ -> ());
        (try Unix.close b with Unix.Unix_error _ -> ()));
      fsync_dir (dirname fi_path)
    | Error _ -> ());
    r

let sync t =
  record t Gray_util.Flight.Sync;
  (* OCaml's Unix has no sync(2) binding; flushing every descriptor this
     env holds open covers everything this env can have dirtied *)
  Hashtbl.iter
    (fun _ { fi_real; _ } ->
      try Unix.fsync fi_real with Unix.Unix_error _ -> ())
    t.fds

let write_blob t fd s =
  record t Gray_util.Flight.Write_blob;
  match find_fd t fd with
  | None -> Error Kernel.Bad_fd
  | Some { fi_path; _ } ->
    guard t (fun () ->
        let b =
          Unix.openfile (blob_path fi_path)
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
            0o644
        in
        Fun.protect
          ~finally:(fun () -> try Unix.close b with _ -> ())
          (fun () ->
            let n = Unix.write_substring b s 0 (String.length s) in
            if n <> String.length s then raise (Sys_error "short blob write")))

let read_blob t fd =
  record t Gray_util.Flight.Read_blob;
  match find_fd t fd with
  | None -> Error Kernel.Bad_fd
  | Some { fi_path; _ } -> (
    match
      guard t (fun () ->
          let b = Unix.openfile (blob_path fi_path) [ Unix.O_RDONLY ] 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close b with _ -> ())
            (fun () ->
              let size = (Unix.fstat b).Unix.st_size in
              let buf = Bytes.create size in
              let rec fill off =
                if off >= size then Bytes.to_string buf
                else
                  match Unix.read b buf off (size - off) with
                  | 0 -> Bytes.sub_string buf 0 off
                  | n -> fill (off + n)
              in
              fill 0))
    with
    | Ok s -> Ok s
    | Error (Kernel.Fs_error Fs.Enoent) -> Ok "" (* never written *)
    | Error _ as e -> e)

(* ---- memory syscalls -------------------------------------------------- *)

let valloc t ~pages =
  record t Gray_util.Flight.Valloc;
  if pages < 0 then Error (Kernel.Sys_error "EINVAL")
  else
    guard t (fun () -> { r_pages = pages; r_buf = Some (Bytes.create (pages * page)) })

let vfree t r =
  record t Gray_util.Flight.Vfree;
  r.r_buf <- None

let vrelease t r ~first ~count =
  record t Gray_util.Flight.Vrelease;
  match r.r_buf with
  | None -> ()
  | Some b ->
    (* MADV_DONTNEED semantics: contents are lost, the next touch sees
       zeroes.  We cannot return the frames from a Bytes-backed region,
       but the observable contract holds. *)
    let first = max 0 first in
    let count = min count (r.r_pages - first) in
    if count > 0 then Bytes.fill b (first * page) (count * page) '\000'

let touch_pages t r ~first ~count =
  record t Gray_util.Flight.Touch;
  match r.r_buf with
  | None -> Array.make (max 0 count) 0
  | Some b ->
    let first = max 0 first in
    let count = max 0 (min count (r.r_pages - first)) in
    Array.init count (fun i ->
        let t0 = now_raw () in
        Bytes.set b ((first + i) * page) 'x';
        let t1 = now_raw () in
        max 0 (Int64.to_int (Int64.sub t1 t0)))

(* /proc/vmstat's swap counters are the closest host analogue of the
   sim's anonymous page-in/out counters.  Absent (non-Linux, hidden
   procfs) the typed [Unsupported] tells MAC to fall back to timing. *)
let vmstat t =
  record t Gray_util.Flight.Vmstat;
  let parse ic =
    let ins = ref None and outs = ref None in
    (try
       while !ins = None || !outs = None do
         let line = input_line ic in
         match String.split_on_char ' ' line with
         | [ "pswpin"; v ] -> ins := int_of_string_opt v
         | [ "pswpout"; v ] -> outs := int_of_string_opt v
         | _ -> ()
       done
     with End_of_file -> ());
    match (!ins, !outs) with
    | Some i, Some o -> Some { Kernel.vm_page_ins = i; vm_page_outs = o }
    | _ -> None
  in
  match open_in "/proc/vmstat" with
  | exception Sys_error _ -> Error (Kernel.Unsupported "/proc/vmstat")
  | ic -> (
    let r = try parse ic with _ -> None in
    close_in_noerr ic;
    match r with
    | Some v -> Ok v
    | None -> Error (Kernel.Unsupported "/proc/vmstat"))

(* ---- cpu -------------------------------------------------------------- *)

let compute t ~ns =
  record t Gray_util.Flight.Compute;
  if ns > 0 then begin
    let stop = Int64.add (now_raw ()) (Int64.of_int ns) in
    let x = ref 0 in
    while Int64.compare (now_raw ()) stop < 0 do
      x := Sys.opaque_identity (!x + 1)
    done
  end

let compute_bytes t ~bytes ~ns_per_byte =
  compute t ~ns:(int_of_float (float_of_int bytes *. ns_per_byte))

(* ---- capability probe and construction -------------------------------- *)

let default_deadline_ns = 2_000_000_000

(* Measure the monotonic clock: take back-to-back readings and find the
   smallest positive increment.  A clock that never advances across many
   pairs (or runs backwards) is unusable for timing probes — that is the
   one capability this backend cannot degrade around. *)
let probe_timer () =
  let rec spin_delta tries =
    if tries = 0 then None
    else
      let a = now_raw () in
      let b = now_raw () in
      let d = Int64.sub b a in
      if Int64.compare d 0L < 0 then Some (Error `Backwards)
      else if Int64.compare d 0L > 0 then Some (Ok (Int64.to_int d))
      else spin_delta (tries - 1)
  in
  let rec best i acc =
    if i = 0 then acc
    else
      match spin_delta 10_000 with
      | None -> acc
      | Some (Error `Backwards) -> Some (Error `Backwards)
      | Some (Ok d) -> (
        match acc with
        | Some (Ok prev) -> best (i - 1) (Some (Ok (min prev d)))
        | _ -> best (i - 1) (Some (Ok d)))
  in
  best 16 None

(* Sub-microsecond resolution deserves full belief; beyond that the cap
   shrinks with the resolution (a 10 us timer cannot separate a cache
   hit from a miss on a fast disk), flooring at 0.25 — coarse timing is
   degraded evidence, not no evidence. *)
let cap_of_resolution res_ns =
  if res_ns <= 1_000 then 1.0
  else Float.max 0.25 (float_of_int 1_000 /. float_of_int res_ns)

let create ?(root = "") ?(deadline_ns = default_deadline_ns) () =
  if deadline_ns <= 0 then Error (Kernel.Sys_error "EINVAL")
  else
    match
      if root = "" then Ok ()
      else
        match (Unix.stat root).Unix.st_kind with
        | Unix.S_DIR -> Ok ()
        | _ -> Error (Kernel.Fs_error Fs.Enotdir)
        | exception Unix.Unix_error (e, _, _) -> Error (errno_error e)
    with
    | Error _ as e -> e
    | Ok () -> (
      match probe_timer () with
      | None -> Error (Kernel.Unsupported "monotonic clock does not advance")
      | Some (Error `Backwards) ->
        Error (Kernel.Unsupported "monotonic clock runs backwards")
      | Some (Ok res) ->
        Ok
          {
            root = (if root = "" then "" else Filename.concat root "" |> fun s ->
                    (* strip the trailing separator Filename.concat adds *)
                    String.sub s 0 (String.length s - 1));
            deadline_ns;
            resolution_ns = res;
            cap = cap_of_resolution res;
            t0 = now_raw ();
            fds = Hashtbl.create 32;
            next_fd = 3;
            scratch = Bytes.create scratch_bytes;
            fl = Gray_util.Flight.create ();
          })

(* Close every descriptor still open (the temp-dir cleanup path of
   [gbp --os host] and the conformance suite's leak check). *)
let shutdown t =
  Hashtbl.iter
    (fun _ { fi_real; _ } ->
      try Unix.close fi_real with Unix.Unix_error _ -> ())
    t.fds;
  Hashtbl.reset t.fds

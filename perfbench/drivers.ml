(* The grep and layout drivers, written once against the functorized ICLs.
   The untraced run instantiates them over [Os_sim], the traced run over
   [Timed.Make (Os_sim)].  Each ICL entry point ([order_files],
   [order_by_inumber], [refresh_directory]) runs inside a {!Spans.span},
   which records only while tracing is on.  Over [Os_sim] the drivers
   issue exactly the syscalls of [Gray_apps.Grep.run] and of the Figure 6
   aging loop over the flat [Fldc] — the self-tests in [perfbench/test]
   hold them to it. *)

open Graybox_core

let ok = Gray_apps.Workload.ok_exn
let grep_chunk = 4 * 1024 * 1024

(* Raised exceptions count as failed operations; the engine's own unwind
   signal must still propagate. *)
let attempt f =
  match f () with
  | () -> true
  | exception Simos.Engine.Cancelled -> raise Simos.Engine.Cancelled
  | exception _ -> false

module Make (Os : Os_intf.S) = struct
  module F = Fccd.Make (Os)
  module L = Fldc.Make (Os)
  module W = Gray_apps.Workload.Make (Os)

  (* ---- grep (Figure 3) ---- *)

  let grep_file env path =
    let fd = ok (Os.open_file env path) in
    let size = Os.file_size env fd in
    let off = ref 0 in
    while !off < size do
      let len = min grep_chunk (size - !off) in
      ignore (ok (Os.read env fd ~off:!off ~len));
      Os.compute_bytes env ~bytes:len ~ns_per_byte:Gray_apps.Grep.scan_ns_per_byte;
      off := !off + len
    done;
    Os.close env fd

  type grep_round = {
    g_order : string list;  (** the order the files were scanned in *)
    g_ns : int;  (** simulated round time, ordering included *)
    g_failed : int;
        (** files whose scan raised or returned an error; every file of
            the round when FCCD's ordering failed *)
  }

  (* One grep invocation over [paths]: [Gray_apps.Grep.run] with the
     [Unmodified] ([fccd = None]) or [Gray] variant.  A failed ordering
     falls back to argument order. *)
  let grep_round env ~fccd ~paths =
    let t0 = Os.gettime env in
    let order = ref paths in
    let ordered =
      match fccd with
      | None -> true
      | Some cfg ->
        attempt (fun () ->
            let ranked = ok (Spans.span "fccd.order_files" (fun () -> F.order_files env cfg ~paths)) in
            order := List.map (fun r -> r.Fccd.fr_path) ranked)
    in
    let failed =
      List.fold_left
        (fun n p -> if attempt (fun () -> grep_file env p) then n else n + 1)
        0 !order
    in
    let failed = if ordered then failed else List.length paths in
    { g_order = !order; g_ns = Os.gettime env - t0; g_failed = failed }

  (* ---- layout (Figures 5 and 6) ---- *)

  type epoch = {
    e_random_ns : int;  (** cold read of the directory in random order *)
    e_ino_ns : int;  (** cold read in [order_by_inumber] order *)
    e_ino_order : string list;
  }

  let timed_read env ~flush order =
    flush ();
    let t0 = Os.gettime env in
    List.iter (fun p -> W.read_file env p) order;
    Os.gettime env - t0

  let measure_epoch env rng ~flush ~dir =
    let paths = W.paths_in env ~dir in
    let arr = Array.of_list paths in
    Gray_util.Rng.shuffle rng arr;
    let random_ns = timed_read env ~flush (Array.to_list arr) in
    let ordered = ok (Spans.span "fldc.order_by_inumber" (fun () -> L.order_by_inumber env ~paths)) in
    let order = List.map (fun s -> s.Fldc.so_path) ordered in
    let ino_ns = timed_read env ~flush order in
    { e_random_ns = random_ns; e_ino_ns = ino_ns; e_ino_order = order }

  (* The Figure 6 loop for one directory: measure the fresh directory,
     then [epochs] times delete five random files and create five, with
     a refresh just before epoch [refresh_at]'s churn.  [on_epoch] sees
     each epoch's result, or [None] when the epoch raised. *)
  let age_directory env rng ~flush ~dir ~epochs ~refresh_at ~file_bytes ~on_epoch =
    for epoch = 0 to epochs do
      let result = ref None in
      let completed =
        attempt (fun () ->
            if epoch > 0 then begin
              if epoch = refresh_at then
                ok (Spans.span "fldc.refresh_directory" (fun () -> L.refresh_directory env ~dir ()));
              W.age_directory env rng ~dir ~deletes:5 ~creates:5 ~size:file_bytes
            end;
            result := Some (measure_epoch env rng ~flush ~dir))
      in
      on_epoch epoch (if completed then !result else None)
    done
end

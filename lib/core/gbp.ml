open Simos

type mode = Mem | File | Compose

let mode_of_string = function
  | "mem" | "-mem" -> Some Mem
  | "file" | "-file" -> Some File
  | "compose" | "-compose" -> Some Compose
  | _ -> None

let mode_to_string = function Mem -> "mem" | File -> "file" | Compose -> "compose"

let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v

type fallback_reason =
  | Degraded_error of Kernel.error
  | Low_confidence of float

let fallback_reason_to_string = function
  | Degraded_error e -> Kernel.error_to_string e
  | Low_confidence c -> Printf.sprintf "low probe confidence (%.2f)" c

module Make (Os : Os_intf.S) = struct
  module F = Fccd.Make (Os)
  module L = Fldc.Make (Os)
  module C = Compose.Make (Os)

  let best_order env config mode ~paths =
    match mode with
    | Mem ->
      let* ranked = F.order_files env config ~paths in
      Ok (List.map (fun r -> r.Fccd.fr_path) ranked)
    | File ->
      let* ordered = L.order_by_inumber env ~paths in
      Ok (List.map (fun s -> s.Fldc.so_path) ordered)
    | Compose ->
      let* decision = C.order_files env config paths in
      Ok decision.Compose.d_order

  (* A reordering hint must never make the pipeline worse than not
     asking: on error, or when the probe timings do not support a
     believable ordering, hand back the caller's own argument order and
     say why.  A coarse timer bounds how much a ranking may be believed,
     exactly as in probe plans (the sim's cap is 1, the identity). *)
  let best_order_or_fallback env config ?(min_confidence = 0.0) mode ~paths =
    let fallback reason = (paths, Some reason) in
    match mode with
    | Mem -> (
      match F.order_files env config ~paths with
      | Error e -> fallback (Degraded_error e)
      | Ok ranked ->
        let conf =
          Float.min (Os.timing_confidence_cap env) (Fccd.order_confidence config ranked)
        in
        if conf < min_confidence then fallback (Low_confidence conf)
        else (List.map (fun r -> r.Fccd.fr_path) ranked, None))
    | File | Compose -> (
      match best_order env config mode ~paths with
      | Error e -> fallback (Degraded_error e)
      | Ok order -> (order, None))
end

include Make (Os_sim)

(* Distinct, stable shell exit codes per kernel error (1 is reserved for
   usage errors). *)
let exit_code_of_error = function
  | Kernel.Bad_path -> 2
  | Kernel.Bad_fd -> 3
  | Kernel.Retryable | Kernel.Timeout -> 4
  | Kernel.Fs_error Fs.Enoent -> 5
  | Kernel.Fs_error Fs.Eexist -> 6
  | Kernel.Fs_error _ | Kernel.Sys_error _ -> 7
  | Kernel.Unsupported _ -> 12

(* A telemetry export that cannot be written is not a kernel error, but it
   still deserves its own code in the same namespace. *)
let exit_export_failed = 8

(* Crash-injection runs (gbp --crash-at N): the machine died mid-pipeline
   and the driver either recovered the volume to a consistent state or did
   not — two outcomes a crash-matrix CI job must tell apart. *)
let exit_crash_recovered = 9
let exit_recovery_failed = 10

(* Adaptive runs (gbp --adaptive under --drift): the ICL watchdog spent
   its whole re-calibration budget and the environment was still hostile
   — the pipeline degraded into a distinct, scriptable failure rather
   than thrashing forever. *)
let exit_stale = 11

(* Host-backend runs (gbp --os host): the real-OS backend could not be
   brought up, or the requested pipeline needs a capability the backend
   does not provide.  Scripts probing for host support branch on this. *)
let exit_host_unavailable = 12

(* One pipe transfer costs a kernel-to-user copy of the payload (writer
   copies in, reader copies out — we charge the reader side once more,
   which is the "extra copy of all data through the operating system via
   the pipe mechanism" of Section 4.1.3). *)
let pipe_ns_per_byte env =
  let platform = Kernel.platform (Kernel.kernel_of_env env) in
  2.0 *. platform.Platform.memcopy_byte_ns

let out env config ~path ~consume =
  let* plan = Fccd.probe_file env config ~path in
  let* fd = Kernel.open_file env path in
  let per_byte = pipe_ns_per_byte env in
  let total = ref 0 in
  Fccd.read_plan ?policy:config.Fccd.retry env fd plan ~f:(fun ~off ~len ->
      Kernel.compute_bytes env ~bytes:len ~ns_per_byte:per_byte;
      consume ~off ~len;
      total := !total + len);
  Kernel.close env fd;
  Ok !total

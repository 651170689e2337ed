(** The [gbp] utility logic: gray-box benefits for {e unmodified}
    applications (Section 4.1.2).

    [grep foo `gbp -mem *`] reorders the file arguments by cache
    residence; [gbp -mem -out infile | app] re-orders {e within} a single
    file, copying data to the consumer through a pipe.  This module holds
    the reusable logic behind the [bin/gbp] executable and behind the
    "unmodified application" variants in the benchmarks. *)

type mode =
  | Mem  (** order by file-cache probe time (FCCD) *)
  | File  (** order by i-number (FLDC) *)
  | Compose  (** cached first, then i-number (Section 4.2.4) *)

val mode_of_string : string -> mode option
val mode_to_string : mode -> string

type fallback_reason =
  | Degraded_error of Simos.Kernel.error  (** probing itself failed *)
  | Low_confidence of float  (** the ordering exists but is not believable *)

val fallback_reason_to_string : fallback_reason -> string

(** The orderings over any {!Os_intf.S} backend. *)
module Make (Os : Os_intf.S) : sig
  val best_order :
    Os.env ->
    Fccd.config ->
    mode ->
    paths:string list ->
    (string list, Simos.Kernel.error) result
  (** The file ordering a shell substitution would receive. *)

  val best_order_or_fallback :
    Os.env ->
    Fccd.config ->
    ?min_confidence:float ->
    mode ->
    paths:string list ->
    string list * fallback_reason option
  (** Like {!best_order} but total: on a kernel error, or (in [Mem]
      mode) when {!Fccd.order_confidence}, capped at the backend's
      {!Os_intf.S.timing_confidence_cap}, falls below [min_confidence]
      (default 0), the input [paths] come back unchanged together with
      the reason — a degraded [gbp] passes the arguments through rather
      than break the pipeline.  [None] reason means the ordering is the
      real prediction. *)
end

(** The simulated-backend instance (the historical flat API). *)
include module type of struct include Make (Os_sim) end

val exit_code_of_error : Simos.Kernel.error -> int
(** Stable non-zero shell exit code for each kernel error ([Bad_path] 2,
    [Bad_fd] 3, [Retryable] and host [Timeout] 4, [Enoent] 5, [Eexist] 6,
    other fs errors and host [Sys_error] 7, host [Unsupported]
    {!exit_host_unavailable}); code 1 stays reserved for usage errors. *)

val exit_export_failed : int
(** Exit code (8) for a telemetry export that could not be written —
    same namespace as {!exit_code_of_error}, next free slot. *)

val exit_crash_recovered : int
(** Exit code (9) for a [--crash-at] run: the machine died as scheduled
    and the post-restart repair left the volume consistent. *)

val exit_recovery_failed : int
(** Exit code (10): the machine died as scheduled but recovery did not
    restore consistency (repair error or fsck violations). *)

val exit_stale : int
(** Exit code (11) for an adaptive run ([gbp --adaptive]) whose ICL
    watchdog exhausted its re-calibration budget: the environment kept
    drifting faster than the ICL could re-learn it, and the run degraded
    into this distinct code instead of thrashing. *)

val exit_host_unavailable : int
(** Exit code (12) for a [gbp --os host] run: the real-OS backend could
    not be brought up (capability probe failed) or the requested pipeline
    is not supported on the host.  Same code as
    [exit_code_of_error (Unsupported _)]. *)

val out :
  Simos.Kernel.env ->
  Fccd.config ->
  path:string ->
  consume:(off:int -> len:int -> unit) ->
  (int, Simos.Kernel.error) result
(** [gbp -mem -out path]: probe the file, read it in best order, and
    stream each extent to [consume] through a simulated pipe (the extra
    kernel copy of all data is charged, which is why the gbp variant runs
    slightly behind the modified application in Figure 3).  Returns total
    bytes delivered. *)

val pipe_ns_per_byte : Simos.Kernel.env -> float
(** Cost model of the pipe copy used by {!out}. *)

(** Probe primitives: timed requests inserted solely to observe the OS.

    "The ICL can insert probes, or specific requests to the OS generated
    solely to observe the resulting output" (Section 2.1).  All timings go
    through the backend's gray-box clock ({!Os_intf.S.gettime}), never
    through white-box channels. *)

module Make (Os : Os_intf.S) : sig
  val file_byte : Os.env -> Os.fd -> off:int -> int
  (** Read one byte at [off] and return the observed elapsed nanoseconds.
      Destructive: a missing page is faulted into the file cache.  A failed
      read is reported as its own (small) elapsed time — under fault
      injection prefer {!file_byte_r}, which would misread an [EINTR]
      return as a cache hit. *)

  val file_byte_r :
    Os.env ->
    ?policy:Resilient.policy ->
    Os.fd ->
    off:int ->
    (int, Simos.Kernel.error) result
  (** Like {!file_byte} but transient failures are retried
      ({!Resilient.Make.retry}) and only the {e successful} attempt's
      elapsed time is reported — backoff sleeps never pollute the sample.
      Errors that survive the retry budget are returned. *)

  val timed_read : Os.env -> Os.fd -> off:int -> len:int -> int * int
  (** [(bytes_read, elapsed_ns)]. *)

  val timed : Os.env -> (unit -> 'a) -> 'a * int
  (** Time an arbitrary action with the gray-box clock. *)
end

(** The simulated-backend instance (the historical flat API). *)
include module type of struct include Make (Os_sim) end

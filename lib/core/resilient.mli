(** Retry combinator for gray-box syscalls under a hostile OS.

    Real probing faces transient failures (EINTR/EAGAIN) and must back off
    rather than hammer a loaded machine.  [retry] re-issues a call while it
    fails {e transiently}, sleeping between attempts with bounded
    exponential backoff and decorrelated jitter; permanent errors
    ([Enoent], [Bad_fd], ...) are returned immediately.  A per-policy
    retry {e budget} bounds the total number of re-issues an ICL run may
    spend, so a persistently failing channel degrades into an error
    instead of an unbounded stall.

    All jitter comes from the policy's own seeded RNG, and nothing is
    drawn unless a retry actually happens — with fault injection off the
    combinator is invisible. *)

open Gray_util

type policy = {
  max_attempts : int;  (** attempts per call, including the first *)
  base_backoff_ns : int;  (** first sleep *)
  max_backoff_ns : int;  (** sleep cap *)
  budget : int;  (** total retries this policy may spend across calls *)
  rng : Rng.t;  (** decorrelated-jitter draws *)
  mutable spent : int;  (** retries performed so far — read via {!retries_spent} *)
}

val policy :
  ?max_attempts:int ->
  ?base_backoff_ns:int ->
  ?max_backoff_ns:int ->
  ?budget:int ->
  seed:int ->
  unit ->
  policy
(** Defaults: 6 attempts, 50 us base, 20 ms cap, budget 10_000. *)

val default : unit -> policy
(** A fresh policy from a fixed seed (deterministic across runs). *)

val classify : Simos.Kernel.error -> [ `Transient | `Permanent ]
(** [Retryable] and the host backend's [Timeout] are transient;
    everything else is permanent.  One classification serves both
    backends — that is the point of the shared taxonomy. *)

val retries_spent : policy -> int
(** Retries this policy has performed so far (counts against [budget]). *)

(** Only the backoff sleep depends on the backend, so only the retry
    combinators are functorized; {!policy} and {!classify} are shared. *)
module Make (Os : Os_intf.S) : sig
  val retry :
    ?policy:policy ->
    (unit -> ('a, Simos.Kernel.error) result) ->
    ('a, Simos.Kernel.error) result
  (** Run the call, retrying transient failures with backoff
      ([Os.sleep_ns]; under the sim backend this is a fiber delay and
      must run inside a fiber).  When attempts or budget run out the
      last error is returned.  [?policy] defaults to a one-shot
      {!default} policy. *)

  val retry_idempotent :
    ?policy:policy ->
    completed:(Simos.Kernel.error -> 'a option) ->
    (unit -> ('a, Simos.Kernel.error) result) ->
    ('a, Simos.Kernel.error) result
  (** {!retry} for calls that are not naturally idempotent under
      crash–restart.  When a {e re-issued} attempt fails with a permanent
      error that [completed] recognises as "the earlier attempt already took
      effect" (e.g. [Eexist] from a create that became durable just before
      the machine died), its value is returned as success.  [completed] is
      never consulted for an error on the first attempt — that is a genuine
      conflict, not evidence of completion. *)
end

(** The simulated-backend instance, re-exported so existing callers keep
    the historical flat API. *)
include module type of struct include Make (Os_sim) end

(** {1 Robust sample summaries}

    Shared by the hardened probing paths: reject outliers (a latency
    spike must not masquerade as a disk access), then summarise. *)

val robust_mean : float array -> float
(** Mean after discarding samples beyond 2 sigma; plain mean when the
    rejection would discard everything.  [nan] on empty input. *)

val robust_median : float array -> float
(** Median after the same rejection.  [nan] on empty input. *)

(** File-Cache Content Detector (Section 4.1).

    FCCD infers which parts of a file (or which files of a set) are in the
    OS file cache by timing single-byte [read()] probes — one random byte
    per {e prediction unit} — and sorting {e access units} by their total
    probe time.  No differentiation threshold is needed: sorting naturally
    orders a multi-level store (memory, then disk).

    Usage template (Section 4.1.2): the application names its files, the
    library returns [(offset, length)] pairs in predicted-fastest-first
    order, and the application re-orders its accesses accordingly.

    The Heisenberg effect is respected: files smaller than one page are
    never probed and are reported with a "fake" high time. *)

open Gray_util

type config = {
  access_unit : int;  (** bytes returned per extent (default 20 MB) *)
  prediction_unit : int;  (** bytes predicted per probe (default 5 MB) *)
  align : int;  (** extent boundaries snap to this (records), default 1 *)
  fake_high_ns : int;  (** reported time for unprobeable small files *)
  rng : Rng.t;  (** probe-point randomisation (Section 4.1.2) *)
  retry : Resilient.policy option;
      (** retry transient probe faults (default [Some] of a seeded
          policy); [None] restores the raw non-retrying probes *)
  resample : int;
      (** extra probe passes per extent when the first pass has high
          variance (default 0 = off; keeps benign runs bit-identical) *)
  min_confidence : float;
      (** below this {!plan} confidence, {!extents_or_sequential} falls
          back to sequential order (default 0 = never) *)
}

val default_config : ?repo:Param_repo.t -> seed:int -> unit -> config
(** 20 MB / 5 MB units (overridden by the repo's
    [fccd.access_unit_bytes] when present), byte alignment. *)

val with_align : config -> int -> config
(** Same config with extent boundaries snapped to a record size. *)

type extent = { ext_off : int; ext_len : int }

type plan = {
  plan_path : string;
  plan_size : int;
  plan_extents : (extent * int) list;
      (** extents with their total probe time, fastest first *)
  plan_probes : int;  (** how many probes were issued *)
  plan_confidence : float;
      (** how much to believe the ordering, in [0, 1]: log-domain
          cluster separation of the per-unit probe times.  Noise that
          blurs the cache/disk gap drives it towards 0. *)
}

val extents : plan -> extent list
(** Just the ordering, fastest first. *)

val extents_or_sequential : config -> plan -> extent list
(** {!extents} when [plan_confidence >= config.min_confidence], otherwise
    the same extents in plain sequential (offset) order — a low-belief
    reordering is worse than none. *)

type file_rank = { fr_path : string; fr_probe_ns : int; fr_size : int }

val order_confidence : config -> file_rank list -> float
(** Confidence in a {!Make.order_files} ranking, in [0, 1] (same
    clustering metric as [plan_confidence]).  Pure — [Gbp.Make] caps
    the result at the backend's {!Os_intf.S.timing_confidence_cap}. *)

(** The probing machinery over any {!Os_intf.S} backend.  A plan's
    [plan_confidence] is capped at the backend's
    [timing_confidence_cap] — a coarse host timer widens uncertainty
    instead of crashing (the sim's cap is 1.0, the identity). *)
module Make (Os : Os_intf.S) : sig
  val probe_file : Os.env -> config -> path:string -> (plan, Simos.Kernel.error) result
  (** Probe one file and plan its best access order. *)

  val probe_fd : Os.env -> config -> path:string -> Os.fd -> plan
  (** Same on an already-open descriptor. *)

  val order_files :
    Os.env ->
    config ->
    paths:string list ->
    (file_rank list, Simos.Kernel.error) result
  (** Rank whole files by probe time, fastest (most cached) first; the
      multi-file interface behind [gbp -mem] and [gb-grep].  Each file gets
      one probe per prediction unit; sub-page files get [fake_high_ns]. *)

  val read_plan :
    ?policy:Resilient.policy ->
    Os.env ->
    Os.fd ->
    plan ->
    f:(off:int -> len:int -> unit) ->
    unit
  (** Read the file extent-by-extent in plan order, invoking [f] after each
      extent arrives (the application's processing hook).  With [?policy],
      transient read errors are retried; an extent whose read still fails is
      skipped (so [f] never sees bytes that did not arrive). *)
end

(** The simulated-backend instance (the historical flat API). *)
include module type of struct include Make (Os_sim) end

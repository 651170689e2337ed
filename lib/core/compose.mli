(** Composition of FCCD and FLDC (Section 4.2.4).

    "For the best ordering of files, an application should first access
    those files in cache and then access the rest according to their
    i-number ordering."  FCCD only {e orders} files by probe time, so the
    composition clusters probe times into two groups (standard statistical
    clustering, minimising intra-group variance), predicts the low group
    in-cache and the high group on-disk, and sorts {e each} group by
    i-number — so a wrong in-cache prediction still degrades gracefully. *)

type decision = {
  d_order : string list;  (** final access order *)
  d_in_cache : string list;  (** predicted-cached files (probe order) *)
  d_on_disk : string list;
  d_separation : float;  (** cluster mean ratio; ~1 means "all on disk" *)
}

(** The composition over any {!Os_intf.S} backend. *)
module Make (Os : Os_intf.S) : sig
  val order_files :
    Os.env ->
    Fccd.config ->
    ?min_separation:float ->
    string list ->
    (decision, Simos.Kernel.error) result
  (** [min_separation] (default 4.0): below this ratio the split is
      treated as spurious — e.g. every file actually on disk — and all
      files fall in the on-disk group, ordered purely by i-number. *)
end

(** The simulated-backend instance (the historical flat API). *)
include module type of struct include Make (Os_sim) end

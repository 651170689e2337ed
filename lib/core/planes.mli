(** The hostile planes a program installs, read once at its edge.
    [Simos.Kernel.boot] installs only the scenarios it is passed; gbp,
    the bench harness and the test runner read [GRAYBOX_FAULTS],
    [GRAYBOX_CRASH] and [GRAYBOX_DRIFT] here and pass them on. *)

type t = {
  faults : Simos.Fault.scenario option;
  crash : Simos.Crash.scenario option;
  drift : Simos.Drift.scenario option;
}

val none : t

val of_env : unit -> t
(** The three variables through each plane's [of_string]; unset is
    [None].  A malformed value prints ["error: GRAYBOX_X=token: expected
    ..."] on stderr and exits 2, like [GRAYBOX_OS]. *)

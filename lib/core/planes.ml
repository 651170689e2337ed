(* Each plane's [of_string] is its variable's grammar and names the
   variable in its error, so a bad token reads as in [gbp --faults]. *)

open Simos

type t = {
  faults : Fault.scenario option;
  crash : Crash.scenario option;
  drift : Drift.scenario option;
}

let none = { faults = None; crash = None; drift = None }

let read var of_string =
  match of_string (Option.value (Sys.getenv_opt var) ~default:"") with
  | scenario -> scenario
  | exception Invalid_argument msg ->
    Printf.eprintf "error: %s\n%!" msg;
    exit 2

let of_env () =
  {
    faults = read "GRAYBOX_FAULTS" Fault.of_string;
    crash = read "GRAYBOX_CRASH" Crash.of_string;
    drift = read "GRAYBOX_DRIFT" Drift.of_string;
  }

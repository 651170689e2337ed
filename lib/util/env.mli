(** Strict, uniform parsing of the [GRAYBOX_*] environment variables.

    Every variable (faults, crash, drift, telemetry, OS backend, bench
    trial count) is decoded through {!decode} or {!parse}, so a bad token
    always produces the same shape of diagnostic —
    ["GRAYBOX_X=token: expected <grammar>"] — naming both the variable
    and the offending token.  Only the failure {e channel} differs: the
    planes' [of_string] raise [Invalid_argument], which a command-line
    flag turns into a usage error and [Graybox_core.Planes] into exit 2;
    the other variables exit with the usage code directly. *)

type 'a outcome =
  | Value of 'a  (** token accepted *)
  | Soft of string * 'a
      (** syntactically valid but degraded: warn with the detail string
          on stderr and use the fallback (e.g. a sub-1 sample rate turns
          telemetry off rather than failing the run) *)
  | Invalid  (** token rejected: fail via [on_invalid] *)

val message : var:string -> token:string -> expected:string -> string
(** ["var=token: expected <expected>"] — the uniform diagnostic. *)

val decode :
  var:string ->
  expected:string ->
  on_invalid:[ `Raise | `Exit ] ->
  default:'a ->
  (string -> 'a outcome) ->
  string ->
  'a
(** Decode one raw value in [var]'s grammar: empty (after trimming)
    yields [default]; otherwise the token is trimmed and lowercased and
    handed to the callback.  [`Raise] fails with [Invalid_argument]
    (library-level misuse, catchable); [`Exit] prints ["error: ..."] and
    exits with the usage code 2 (process-level configuration, not
    catchable).  A plane's [of_string] is this on a command-line value. *)

val parse :
  var:string ->
  expected:string ->
  on_invalid:[ `Raise | `Exit ] ->
  default:'a ->
  (string -> 'a outcome) ->
  'a
(** {!decode} on the value of [var]; unset counts as empty. *)

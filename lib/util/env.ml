(* One strict-validation path for every GRAYBOX_* variable.  Each plane
   keeps its own grammar (the [parse] callback) but the variable name, the
   offending token and the failure channel are rendered uniformly here, so
   a typo in any of the seven variables reads the same way. *)

type 'a outcome = Value of 'a | Soft of string * 'a | Invalid

let message ~var ~token ~expected =
  Printf.sprintf "%s=%s: expected %s" var token expected

let normalize s = String.lowercase_ascii (String.trim s)

let decode ~var ~expected ~on_invalid ~default parse_token raw =
  let token = normalize raw in
  if token = "" then default
  else
    match parse_token token with
    | Value v -> v
    | Soft (detail, v) ->
      Printf.eprintf "warning: %s=%s: %s\n%!" var token detail;
      v
    | Invalid -> (
      let msg = message ~var ~token ~expected in
      match on_invalid with
      | `Raise -> invalid_arg msg
      | `Exit ->
        Printf.eprintf "error: %s\n%!" msg;
        exit 2)

let parse ~var ~expected ~on_invalid ~default parse_token =
  decode ~var ~expected ~on_invalid ~default parse_token
    (Option.value (Sys.getenv_opt var) ~default:"")

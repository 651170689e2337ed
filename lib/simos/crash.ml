exception Crashed

type scenario = {
  cs_name : string;
  cs_seed : int;
  cs_crash_at : int option;
  cs_prob : float;
}

let durable = { cs_name = "durable"; cs_seed = 0; cs_crash_at = None; cs_prob = 0.0 }

let at_syscall n =
  if n < 1 then invalid_arg "Crash.at_syscall: boundary index must be >= 1";
  { cs_name = Printf.sprintf "at:%d" n; cs_seed = 0; cs_crash_at = Some n; cs_prob = 0.0 }

let probabilistic ?(seed = 0xC4A5) ~prob () =
  if not (prob > 0.0 && prob <= 1.0) then
    invalid_arg "Crash.probabilistic: probability must be in (0, 1]";
  { cs_name = Printf.sprintf "prob:%g" prob; cs_seed = seed; cs_crash_at = None;
    cs_prob = prob }

(* Same strict-validation style as the other GRAYBOX_* planes: a bad
   value is a hard error, not a silent default (see Gray_util.Env). *)
let expected_grammar = "none, durable, at:N or a probability in (0,1]"

let parse_token token =
  match token with
  | "none" -> Gray_util.Env.Value None
  | "durable" -> Value (Some durable)
  | _ ->
    if String.length token > 3 && String.sub token 0 3 = "at:" then begin
      match int_of_string_opt (String.sub token 3 (String.length token - 3)) with
      | Some n when n >= 1 -> Value (Some (at_syscall n))
      | _ -> Invalid
    end
    else begin
      match float_of_string_opt token with
      | Some p when p > 0.0 && p <= 1.0 -> Value (Some (probabilistic ~prob:p ()))
      | _ -> Invalid
    end

let of_string =
  Gray_util.Env.decode ~var:"GRAYBOX_CRASH" ~expected:expected_grammar
    ~on_invalid:`Raise ~default:None parse_token

type mutable_stats = { mutable m_crashes : int; mutable m_restarts : int }

type t = {
  c_scenario : scenario;
  c_rng : Gray_util.Rng.t;
  mutable c_syscalls : int;
  mutable c_armed : int option;  (* absolute tick count at which to fire *)
  mutable c_observer : (int -> unit) option;
  c_stats : mutable_stats;
}

let create sc =
  {
    c_scenario = sc;
    c_rng = Gray_util.Rng.create ~seed:sc.cs_seed;
    c_syscalls = 0;
    c_armed = sc.cs_crash_at;
    c_observer = None;
    c_stats = { m_crashes = 0; m_restarts = 0 };
  }

let scenario t = t.c_scenario
let syscalls t = t.c_syscalls

let arm_at t n =
  if n < 1 then invalid_arg "Crash.arm_at: boundary index must be >= 1";
  t.c_armed <- Some (t.c_syscalls + n)

let disarm t = t.c_armed <- None

let observe_boundaries t f = t.c_observer <- Some f

(* One syscall boundary.  Deterministic armed countdowns never draw from
   the RNG; probabilistic scenarios draw exactly once per boundary, so a
   run is as reproducible as a benign one.  The observer runs first, at
   the exact point an armed crash would fire, so the machine state it
   sees {e is} the state a crash at this boundary would leave behind. *)
let tick t =
  t.c_syscalls <- t.c_syscalls + 1;
  (match t.c_observer with None -> () | Some f -> f t.c_syscalls);
  let fire =
    match t.c_armed with
    | Some n -> t.c_syscalls = n
    | None ->
      t.c_scenario.cs_prob > 0.0
      && Gray_util.Rng.float t.c_rng 1.0 < t.c_scenario.cs_prob
  in
  if fire then t.c_stats.m_crashes <- t.c_stats.m_crashes + 1;
  fire

let note_restart t = t.c_stats.m_restarts <- t.c_stats.m_restarts + 1

type stats = { c_crashes : int; c_restarts : int }

let stats t = { c_crashes = t.c_stats.m_crashes; c_restarts = t.c_stats.m_restarts }

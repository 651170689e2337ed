open Gray_util
open Simos

type policy = {
  max_attempts : int;
  base_backoff_ns : int;
  max_backoff_ns : int;
  budget : int;
  rng : Rng.t;
  mutable spent : int;
}

let policy ?(max_attempts = 6) ?(base_backoff_ns = 50_000) ?(max_backoff_ns = 20_000_000)
    ?(budget = 10_000) ~seed () =
  if max_attempts < 1 then invalid_arg "Resilient.policy: max_attempts < 1";
  { max_attempts; base_backoff_ns; max_backoff_ns; budget; rng = Rng.create ~seed; spent = 0 }

let default_seed = 0x5E511E47

let default () = policy ~seed:default_seed ()

let classify = function
  | Kernel.Retryable | Kernel.Timeout -> `Transient
  | Kernel.Fs_error _ | Kernel.Bad_fd | Kernel.Bad_path
  | Kernel.Unsupported _ | Kernel.Sys_error _ ->
    `Permanent

let retries_spent p = p.spent

(* Only the backoff sleep touches the OS, so only [retry] and its
   idempotent variant live in the functor — one [policy] type (and one
   [classify]) is shared across backends. *)
module Make (Os : Os_intf.S) = struct
  (* Without [?policy] the call gets a fresh [default ()], which only a
     transient error reads — so it is built at the first one. *)
  let retry ?policy f =
    let rec attempt policy n prev_sleep =
      match f () with
      | Ok v -> Ok v
      | Error e -> (
        match classify e with
        | `Permanent -> Error e
        | `Transient ->
          let p = match policy with Some p -> p | None -> default () in
          if n >= p.max_attempts || p.spent >= p.budget then Error e
          else begin
            p.spent <- p.spent + 1;
            (* decorrelated jitter: sleep in [base, 3 * previous], capped;
               the first retry's "previous" is the base *)
            let prev_sleep = if n = 1 then p.base_backoff_ns else prev_sleep in
            let hi = max p.base_backoff_ns (3 * prev_sleep) in
            let sleep =
              min p.max_backoff_ns
                (p.base_backoff_ns + Rng.int p.rng (max 1 (hi - p.base_backoff_ns + 1)))
            in
            (match Telemetry.active () with
            | None -> ()
            | Some s ->
              Telemetry.add_in s "core.resilient.retries";
              Telemetry.point s "core.resilient.retry"
                ~attrs:(fun () ->
                  [ ("attempt", Telemetry.Int n); ("sleep_ns", Telemetry.Int sleep) ]));
            Os.sleep_ns sleep;
            attempt (Some p) (n + 1) sleep
          end)
    in
    attempt policy 1 0

  (* Retry for non-idempotent calls under crash–restart.  A create that
     completed durably just before a crash fails its re-issue with [Eexist];
     [completed] recognises such an error as evidence the earlier attempt
     took effect and supplies the result.  Crucially it is consulted only on
     a RE-issue: the same error on the very first attempt is a genuine
     conflict and surfaces unchanged. *)
  let retry_idempotent ?policy ~completed f =
    let reissued = ref false in
    let wrapped () =
      let r = f () in
      (match r with
      | Error e when classify e = `Transient -> reissued := true
      | _ -> ());
      r
    in
    match retry ?policy wrapped with
    | Ok v -> Ok v
    | Error e when !reissued -> (
      match completed e with Some v -> Ok v | None -> Error e)
    | Error e -> Error e
end

include Make (Os_sim)

let reject samples =
  if Array.length samples = 0 then samples
  else begin
    let kept = Stats.discard_outliers samples ~k:2.0 in
    if Array.length kept = 0 then samples else kept
  end

let robust_mean samples =
  if Array.length samples = 0 then Float.nan else Stats.mean_of (reject samples)

let robust_median samples =
  if Array.length samples = 0 then Float.nan else Stats.median_of (reject samples)

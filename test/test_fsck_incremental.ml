(* Differential proof obligations of the incremental fsck (PR 7): on any
   state reachable through the Fs API — randomized workloads, crash
   rollbacks, white-box corruptions — [check_incremental] with a current
   token returns the same violation multiset as [check_full]; a stale
   token (older checkpoint, or one invalidated by an epoch wrap) falls
   back to the full scan and so can never miss a violation.  Plus the
   named edge cases: rename + unlink of one inode inside one window, and
   the epoch-counter wraparound. *)

open Simos

let block = 4096

let must = function
  | Ok v -> v
  | Error e -> Alcotest.failf "fs error: %s" (Fs.error_to_string e)

(* Two volume shapes: the default geometry, and an odd one whose groups
   hold 13 data blocks (not a multiple of 8) and whose volume ends in a
   5-block tail past the last whole group, so random workloads spill
   across groups, wrap the next-fit scan and grow files against the
   tail. *)
let default_cfg = Fs.default_config ~total_blocks:16384
let odd_cfg = { Fs.total_blocks = (3 * 14) + 5; blocks_per_group = 14; inodes_per_group = 16 }

(* A consistent base image: /dir with six files of one to six blocks.
   The checkpoint contract requires a state that passes the full fsck —
   asserted, not assumed. *)
let base ?(cfg = default_cfg) () =
  let fs = Fs.create cfg in
  ignore (must (Fs.mkdir fs "/dir"));
  for i = 0 to 5 do
    let ino = must (Fs.create_file fs (Printf.sprintf "/dir/f%d" i)) in
    must (Fs.resize fs ~ino ~size:((i + 1) * block))
  done;
  Alcotest.(check (list string)) "base image passes the full fsck" [] (Fs.check_full fs);
  fs

let agree what fs cp =
  Alcotest.(check (list string))
    (what ^ ": incremental == full")
    (List.sort compare (Fs.check_full fs))
    (List.sort compare (Fs.check_incremental fs cp))

(* ---- randomized workloads (the qcheck differential harness) ---- *)

(* One post-checkpoint mutation step, driven by two generated ints.  The
   interpreter only issues operations the API accepts on the current
   state (errors are ignored — an [Error] leaves the volume untouched),
   so every generated program is a legal workload; [Fs.crash] mid-stream
   covers the rollback path at arbitrary "crash points". *)
let apply fs (op, a) =
  let name i = Printf.sprintf "/dir/f%d" (abs i mod 9) in
  let ino_of path =
    match Fs.stat_path fs path with Ok st -> Some st.Fs.st_ino | Error _ -> None
  in
  match abs op mod 8 with
  | 0 -> ignore (Fs.create_file fs (name a))
  | 1 -> ignore (Fs.unlink fs (name a))
  | 2 -> (
    match ino_of (name a) with
    | Some ino -> ignore (Fs.resize fs ~ino ~size:((abs a mod 8) * block))
    | None -> ())
  | 3 -> ignore (Fs.rename fs ~src:(name a) ~dst:(name (a + 1)))
  | 4 -> (
    match ino_of (name a) with
    | Some ino -> ignore (Fs.fsync_ino fs ~ino)
    | None -> ())
  | 5 -> Fs.sync_all fs
  | 6 -> Fs.crash fs
  | _ -> (
    (* a subdirectory and a cross-directory move: parent/pname churn *)
    ignore (Fs.mkdir fs "/dir/sub");
    match abs a mod 2 with
    | 0 -> ignore (Fs.rename fs ~src:(name a) ~dst:("/dir/sub" ^ "/g"))
    | _ -> ignore (Fs.rename fs ~src:"/dir/sub/g" ~dst:(name a)))

let gen_program =
  QCheck2.Gen.(
    pair
      (list_size (int_range 0 40) (pair int int))
      (* [Some seed]: finish with one white-box corruption *)
      (option (int_range 0 1000)))

let prop_differential =
  QCheck2.Test.make ~name:"check_incremental == check_full on random workloads"
    ~count:150 gen_program (fun (ops, break) ->
      List.iter
        (fun cfg ->
          let fs = base ~cfg () in
          let cp = Fs.checkpoint fs in
          List.iter (apply fs) ops;
          let broke =
            (* a candidate may find nothing to damage on this state ("(no-op)") *)
            match break with
            | None -> None
            | Some seed -> (
              match Fs.break_one fs ~seed with
              | Some d when not (String.ends_with ~suffix:"(no-op)" d) -> Some d
              | Some _ | None -> None)
          in
          let full = List.sort compare (Fs.check_full fs) in
          let incr = List.sort compare (Fs.check_incremental fs cp) in
          if full <> incr then
            QCheck2.Test.fail_reportf "checkers disagree (%d-block volume)\nfull: %s\nincr: %s"
              cfg.Fs.total_blocks (String.concat "; " full) (String.concat "; " incr);
          (* a corruption must be *caught*, not just agreed upon *)
          match broke with
          | Some damage when full = [] ->
            QCheck2.Test.fail_reportf "corruption missed by both checkers: %s" damage
          | Some _ | None -> ())
        [ default_cfg; odd_cfg ];
      true)

(* ---- named edge cases ---- *)

(* Rename then unlink of the same inode between one checkpoint and the
   check: the dirty set holds the inode under both identities (moved,
   then removed), its old parent, and its new parent. *)
let test_rename_unlink_same_window () =
  let fs = base () in
  let cp = Fs.checkpoint fs in
  must (Fs.rename fs ~src:"/dir/f2" ~dst:"/dir/moved");
  agree "after rename" fs cp;
  must (Fs.unlink fs "/dir/moved");
  agree "after rename+unlink" fs cp;
  (* and the replacing variant: rename onto an existing target removes
     the target inode in the same operation *)
  must (Fs.rename fs ~src:"/dir/f3" ~dst:"/dir/f4");
  agree "after replacing rename" fs cp;
  Alcotest.(check (list string)) "still consistent" [] (Fs.check_full fs)

(* A token from an older epoch can vouch for nothing: after a newer
   checkpoint, corruption marked against the *new* epoch must still be
   caught through the stale token (the fallback path, observable via the
   telemetry counter). *)
let test_stale_token_falls_back () =
  let fs = base () in
  let stale = Fs.checkpoint fs in
  let _fresh = Fs.checkpoint fs in
  let damage =
    match Fs.break_one fs ~seed:7 with
    | Some d -> d
    | None -> Alcotest.fail "break_one found nothing to corrupt"
  in
  let sink = Gray_util.Telemetry.create ~mode:Gray_util.Telemetry.Full ~name:"stale" () in
  let via_stale =
    Gray_util.Telemetry.with_sink sink (fun () -> Fs.check_incremental fs stale)
  in
  Alcotest.(check bool)
    (Printf.sprintf "stale token catches: %s" damage)
    false (via_stale = []);
  agree "stale token == full scan" fs stale;
  Alcotest.(check int) "fallback counter bumped" 1
    (Gray_util.Telemetry.counter_value sink "fs.check.fallback")

(* Epoch wraparound: drive the epoch counter to its limit; the wrap
   renormalises every stored mark, bumps the generation, and so
   invalidates all outstanding tokens — a pre-wrap token must fall back
   rather than trust aliased epoch numbers. *)
let test_epoch_wraparound () =
  let fs = base () in
  let pre_wrap = Fs.checkpoint fs in
  let gen0, _epoch0 = Fs.epoch_state fs in
  (* mutate under the pre-wrap epoch so stale marks exist to renormalise *)
  must (Fs.resize fs ~ino:(must (Fs.stat_path fs "/dir/f0")).Fs.st_ino ~size:(7 * block));
  while fst (Fs.epoch_state fs) = gen0 do
    ignore (Fs.checkpoint fs)
  done;
  let gen1, epoch1 = Fs.epoch_state fs in
  Alcotest.(check int) "generation bumped once" (gen0 + 1) gen1;
  Alcotest.(check int) "epoch renormalised to 1" 1 epoch1;
  (* the volume is clean, but the pre-wrap token must not say so cheaply:
     corrupt now and check through it *)
  (match Fs.break_one fs ~seed:3 with
  | Some _ -> ()
  | None -> Alcotest.fail "break_one found nothing to corrupt");
  Alcotest.(check bool) "pre-wrap token catches post-wrap damage" false
    (Fs.check_incremental fs pre_wrap = []);
  agree "pre-wrap token == full scan" fs pre_wrap

(* Crash rollback dirties what it rolls back: unsynced growth is undone
   at restart, and the checkers agree on the rolled-back image — the
   explorer's per-boundary configuration. *)
let test_crash_rollback_differential () =
  let fs = base () in
  Fs.sync_all fs;
  let cp = Fs.checkpoint fs in
  let ino = (must (Fs.stat_path fs "/dir/f5")).Fs.st_ino in
  must (Fs.resize fs ~ino ~size:(12 * block));
  let fresh = must (Fs.create_file fs "/dir/torn") in
  must (Fs.resize fs ~ino:fresh ~size:(3 * block));
  Fs.crash fs;
  agree "after rollback" fs cp;
  Alcotest.(check int) "unsynced growth rolled back" (6 * block)
    (must (Fs.stat_path fs "/dir/f5")).Fs.st_size

let suite =
  [
    QCheck_alcotest.to_alcotest prop_differential;
    Alcotest.test_case "rename+unlink in one window" `Quick test_rename_unlink_same_window;
    Alcotest.test_case "stale token falls back" `Quick test_stale_token_falls_back;
    Alcotest.test_case "epoch wraparound" `Quick test_epoch_wraparound;
    Alcotest.test_case "crash rollback differential" `Quick
      test_crash_rollback_differential;
  ]

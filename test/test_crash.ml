(* Crash–restart plane: durability semantics (durable vs volatile state,
   fsync/sync), deterministic crash-at-syscall-N injection, restart
   reclamation, the torn-journal hardening of Fldc.repair, idempotent
   retries under crash–restart, namespace fault targets, and the
   exhaustive crash-point explorer (including the mutation check that
   proves the explorer can catch a broken repair). *)

open Simos
open Graybox_core

let kib8 = 8192

let tiny_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.0

let boot ?faults ?crash ?(seed = 11) () =
  let engine = Engine.create () in
  (engine, Ambient.boot ~engine ~platform:tiny_linux ~data_disks:1 ?faults ?crash ~seed ())

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Kernel.error_to_string e)

(* ---- scenario parsing -------------------------------------------------- *)

let test_of_string_validation () =
  Alcotest.(check bool) "empty is off" true (Crash.of_string "" = None);
  Alcotest.(check bool) "none is off" true (Crash.of_string "none" = None);
  (match Crash.of_string "durable" with
  | Some sc ->
    Alcotest.(check bool) "durable never crashes" true
      (sc.Crash.cs_crash_at = None && sc.Crash.cs_prob = 0.0)
  | None -> Alcotest.fail "durable not parsed");
  (match Crash.of_string "at:3" with
  | Some sc -> Alcotest.(check bool) "at:3" true (sc.Crash.cs_crash_at = Some 3)
  | None -> Alcotest.fail "at:3 not parsed");
  (match Crash.of_string "0.25" with
  | Some sc -> Alcotest.(check (float 1e-9)) "prob" 0.25 sc.Crash.cs_prob
  | None -> Alcotest.fail "0.25 not parsed");
  List.iter
    (fun bad ->
      match Crash.of_string bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "bad value %S accepted" bad)
    [ "at:0"; "at:x"; "bogus"; "1.5"; "-0.1"; "0" ]

(* ---- durable vs volatile state ----------------------------------------- *)

(* Without fsync the written size is volatile: a crash rolls the file
   back to the durable image (size 0 for a never-synced file); the
   namespace entry itself is durable at the create. *)
let test_unsynced_write_rolls_back () =
  let _e, k = boot ~crash:Crash.durable () in
  Kernel.spawn k (fun env ->
      let fd = ok (Kernel.create_file env "/d0/f") in
      ignore (ok (Kernel.write env fd ~off:0 ~len:kib8));
      Kernel.close env fd);
  Kernel.run k;
  Kernel.restart k;
  let st = Result.get_ok (Fs.stat_path (Kernel.volume_fs k 0) "/f") in
  Alcotest.(check int) "file survives at durable size 0" 0 st.Fs.st_size

let test_fsynced_write_survives () =
  let _e, k = boot ~crash:Crash.durable () in
  Kernel.spawn k (fun env ->
      let fd = ok (Kernel.create_file env "/d0/f") in
      ignore (ok (Kernel.write env fd ~off:0 ~len:kib8));
      ok (Kernel.fsync env fd);
      (* a later unsynced extension stays volatile *)
      ignore (ok (Kernel.write env fd ~off:kib8 ~len:kib8));
      Kernel.close env fd);
  Kernel.run k;
  Kernel.restart k;
  let st = Result.get_ok (Fs.stat_path (Kernel.volume_fs k 0) "/f") in
  Alcotest.(check int) "size rolls to the fsynced point" kib8 st.Fs.st_size

let test_blob_durability () =
  let _e, k = boot ~crash:Crash.durable () in
  Kernel.spawn k (fun env ->
      let fd = ok (Kernel.create_file env "/d0/f") in
      ok (Kernel.write_blob env fd "hello");
      ok (Kernel.fsync env fd);
      ok (Kernel.write_blob env fd "world, torn");
      Alcotest.(check string) "volatile read sees the latest blob" "world, torn"
        (ok (Kernel.read_blob env fd));
      Kernel.close env fd);
  Kernel.run k;
  Kernel.restart k;
  let fs = Kernel.volume_fs k 0 in
  let st = Result.get_ok (Fs.stat_path fs "/f") in
  Alcotest.(check string) "crash rolls the blob to the fsynced image" "hello"
    (Fs.blob fs ~ino:st.Fs.st_ino)

let test_sync_makes_everything_durable () =
  let _e, k = boot ~crash:Crash.durable () in
  Kernel.spawn k (fun env ->
      let fd = ok (Kernel.create_file env "/d0/f") in
      ignore (ok (Kernel.write env fd ~off:0 ~len:(2 * kib8)));
      Kernel.close env fd;
      ok (Kernel.utimes env "/d0/f" ~atime:7 ~mtime:9);
      Kernel.sync env);
  Kernel.run k;
  Kernel.restart k;
  let st = Result.get_ok (Fs.stat_path (Kernel.volume_fs k 0) "/f") in
  Alcotest.(check int) "size durable" (2 * kib8) st.Fs.st_size;
  Alcotest.(check int) "mtime durable" 9 st.Fs.st_mtime;
  Alcotest.(check int) "atime durable" 7 st.Fs.st_atime

(* ---- the off switch is free -------------------------------------------- *)

(* With no plane installed, fsync and sync are complete no-ops: no
   virtual time passes.  With the plane on, fsyncing dirty pages pays
   real disk writebacks. *)
let test_fsync_free_when_off_charges_when_on () =
  let elapsed ?crash () =
    let engine, k = boot ?crash () in
    let dt = ref 0 in
    Kernel.spawn k (fun env ->
        let fd = ok (Kernel.create_file env "/d0/f") in
        ignore (ok (Kernel.write env fd ~off:0 ~len:(4 * kib8)));
        let t0 = Engine.now engine in
        ok (Kernel.fsync env fd);
        Kernel.sync env;
        dt := Engine.now engine - t0;
        Kernel.close env fd);
    Kernel.run k;
    !dt
  in
  Alcotest.(check int) "plane off: fsync+sync cost nothing" 0 (elapsed ());
  Alcotest.(check bool) "plane on: fsync pays for the writeback" true
    (elapsed ~crash:Crash.durable () > 0)

(* An installed-but-never-fired durable plane must not perturb a workload
   that never syncs: same virtual end time, same probe results. *)
let test_inert_plane_byte_identical () =
  let fingerprint ?crash () =
    let engine, k = boot ?crash () in
    let out = ref None in
    Kernel.spawn k (fun env ->
        let paths =
          Gray_apps.Workload.make_files env ~dir:"/d0/data" ~prefix:"f" ~count:4
            ~size:(64 * kib8)
        in
        Kernel.flush_file_cache k;
        Gray_apps.Workload.read_file env (List.hd paths);
        let config = Fccd.default_config ~seed:5 () in
        let ranked = ok (Fccd.order_files env config ~paths) in
        out := Some (List.map (fun r -> (r.Fccd.fr_path, r.Fccd.fr_probe_ns)) ranked));
    Kernel.run k;
    (Engine.now engine, !out)
  in
  Alcotest.(check bool) "fingerprints equal" true
    (fingerprint () = fingerprint ~crash:Crash.durable ())

(* ---- crash injection and restart --------------------------------------- *)

let test_crash_at_kills_machine_and_restart_recovers () =
  let _e, k = boot ~crash:Crash.durable () in
  let c = Option.get (Kernel.crash_plane k) in
  Crash.arm_at c 5;
  let reached_end = ref false in
  Kernel.spawn k (fun env ->
      for i = 0 to 9 do
        let fd = ok (Kernel.create_file env (Printf.sprintf "/d0/f%d" i)) in
        Kernel.close env fd
      done;
      reached_end := true);
  (match Kernel.run k with
  | () -> Alcotest.fail "machine did not crash"
  | exception Engine.Fiber_crash (_, Crash.Crashed) -> ());
  Alcotest.(check bool) "workload was cut short" false !reached_end;
  Alcotest.(check int) "no live processes after the crash" 0 (Kernel.live_procs k);
  Alcotest.(check int) "one crash counted" 1 (Crash.stats c).Crash.c_crashes;
  Kernel.restart k;
  Alcotest.(check int) "one restart counted" 1 (Crash.stats c).Crash.c_restarts;
  (* boundary 5 = syscall 5 never starts: creates 1..2 completed (two
     syscalls each: create + close) *)
  let fs = Kernel.volume_fs k 0 in
  Alcotest.(check bool) "f0 durable" true (Result.is_ok (Fs.stat_path fs "/f0"));
  Alcotest.(check bool) "f1 durable" true (Result.is_ok (Fs.stat_path fs "/f1"));
  Alcotest.(check bool) "f2 never created" true (Result.is_error (Fs.stat_path fs "/f2"));
  (* the restarted machine is fully usable *)
  let done_ = ref false in
  Kernel.spawn k (fun env ->
      let fd = ok (Kernel.create_file env "/d0/after") in
      ok (Kernel.fsync env fd);
      Kernel.close env fd;
      done_ := true);
  Kernel.run k;
  Alcotest.(check bool) "post-restart workload completes" true !done_;
  Alcotest.(check (list string)) "fsck clean after crash + restart" [] (Fs.check fs)

(* ---- namespace fault targets (satellite: swallowed-error audit) -------- *)

let test_namespace_fault_targets () =
  let scenario target =
    { Fault.quiet with Fault.sc_name = "ns"; sc_seed = 7; sc_error_prob = 1.0;
      sc_error_targets = [ target ] }
  in
  let expect_retryable what = function
    | Error Kernel.Retryable -> ()
    | Ok _ -> Alcotest.failf "%s: fault not injected" what
    | Error e -> Alcotest.failf "%s: wrong error %s" what (Kernel.error_to_string e)
  in
  (* each op gets its own kernel whose scenario targets only that op, so
     the setup syscalls sail through *)
  let run_with target f =
    let _e, k = boot ~faults:(scenario target) () in
    Kernel.spawn k (fun env -> f env);
    Kernel.run k
  in
  run_with Fault.Create (fun env ->
      expect_retryable "create" (Kernel.create_file env "/d0/f"));
  run_with Fault.Mkdir (fun env -> expect_retryable "mkdir" (Kernel.mkdir env "/d0/dir"));
  run_with Fault.Unlink (fun env ->
      let fd = ok (Kernel.create_file env "/d0/f") in
      Kernel.close env fd;
      expect_retryable "unlink" (Kernel.unlink env "/d0/f"));
  run_with Fault.Rename (fun env ->
      let fd = ok (Kernel.create_file env "/d0/f") in
      Kernel.close env fd;
      expect_retryable "rename" (Kernel.rename env ~src:"/d0/f" ~dst:"/d0/g"))

(* the canonical scenario must not have gained namespace targets — that
   would shift every seeded fault run in the suite *)
let test_canonical_targets_unchanged () =
  Alcotest.(check bool) "canonical targets probes only" true
    (Fault.canonical.Fault.sc_error_targets = [ Fault.Open; Fault.Read; Fault.Write; Fault.Stat ])

(* ---- pool writeback-in-place ------------------------------------------- *)

let test_pool_clean_drops_dirty_bit_in_place () =
  let pool = Pool.create ~name:"t" ~capacity_pages:4 ~policy:Replacement.lru in
  let key = Page.File { ino = 9; idx = 0 } in
  ignore (Pool.access pool key ~dirty:true);
  Alcotest.(check bool) "dirty after write" true (Pool.is_dirty pool key);
  Pool.clean pool key;
  Alcotest.(check bool) "clean after writeback" false (Pool.is_dirty pool key);
  Alcotest.(check bool) "still resident" true (Pool.contains pool key);
  (* unknown keys are ignored *)
  Pool.clean pool (Page.File { ino = 9; idx = 99 })

(* ---- journal records and torn tails ------------------------------------ *)

let jfiles = [ ("a", 100, 7); ("bb", 200, 8); ("c c", 300, 9) ]

let test_journal_committed_parses () =
  let full = Fldc.journal_content ~base:"dir" ~files:jfiles ~commit:true in
  Alcotest.(check bool) "full journal is committed" true
    (Fldc.journal_committed full ~base:"dir");
  Alcotest.(check bool) "intent-only journal is not" false
    (Fldc.journal_committed
       (Fldc.journal_content ~base:"dir" ~files:jfiles ~commit:false)
       ~base:"dir");
  Alcotest.(check bool) "wrong base is not" false
    (Fldc.journal_committed full ~base:"other");
  Alcotest.(check bool) "trailing garbage is not" false
    (Fldc.journal_committed (full ^ "x") ~base:"dir");
  (* every strict prefix — a write torn at any byte — must read as
     uncommitted, never raise *)
  for cut = 0 to String.length full - 1 do
    if Fldc.journal_committed (String.sub full 0 cut) ~base:"dir" then
      Alcotest.failf "torn prefix of %d bytes read as committed" cut
  done

(* A refresh torn at any byte of its journal must roll back: repair never
   raises, removes the temporary directory and the journal, and leaves
   the original directory untouched.  Exercises every truncation point of
   a real committed journal image against a real interrupted-refresh
   directory state. *)
let test_torn_journal_repair_rolls_back () =
  let full = Fldc.journal_content ~base:"dir" ~files:[ ("f0", kib8, 5) ] ~commit:true in
  for cut = 0 to String.length full - 1 do
    let torn = String.sub full 0 cut in
    let _e, k = boot ~crash:Crash.durable () in
    Kernel.spawn k (fun env ->
        ok (Kernel.mkdir env "/d0/dir");
        let fd = ok (Kernel.create_file env "/d0/dir/f0") in
        ignore (ok (Kernel.write env fd ~off:0 ~len:kib8));
        Kernel.close env fd;
        (* a mid-copy temporary directory *)
        ok (Kernel.mkdir env (Fldc.tmp_dir_path ~parent:"/d0" ~base:"dir"));
        let jd =
          ok (Kernel.create_file env (Fldc.journal_path ~parent:"/d0" ~base:"dir"))
        in
        ok (Kernel.write_blob env jd torn);
        ok (Kernel.fsync env jd);
        Kernel.close env jd;
        Kernel.sync env);
    Kernel.run k;
    let repaired = ref false in
    Kernel.spawn k (fun env ->
        match Fldc.repair env ~parent:"/d0" with
        | Ok r -> repaired := r
        | Error e ->
          Alcotest.failf "cut=%d: repair error %s" cut (Kernel.error_to_string e));
    (try Kernel.run k
     with e -> Alcotest.failf "cut=%d: repair raised %s" cut (Printexc.to_string e));
    Alcotest.(check bool) "a repair was performed" true !repaired;
    let fs = Kernel.volume_fs k 0 in
    (match Fs.readdir fs "/" with
    | Ok names ->
      Alcotest.(check (list string))
        (Printf.sprintf "cut=%d: parent holds only the data directory" cut)
        [ "dir" ] (List.sort compare names)
    | Error e -> Alcotest.failf "cut=%d: %s" cut (Fs.error_to_string e));
    let st = Result.get_ok (Fs.stat_path fs "/dir/f0") in
    Alcotest.(check int) "original file intact" kib8 st.Fs.st_size;
    Alcotest.(check (list string)) "fsck clean" [] (Fs.check fs)
  done

(* ---- idempotent retries under crash–restart ----------------------------- *)

(* A create made durable just before a crash fails its re-issue with
   Eexist; retry_idempotent treats that as completion — but only on a
   re-issue.  The property interleaves k transient failures (retries)
   with the final outcome. *)
let prop_retry_idempotent =
  QCheck2.Test.make ~name:"retry_idempotent under crash-restart interleavings" ~count:60
    QCheck2.Gen.(pair (int_range 0 3) bool)
    (fun (transients, completes) ->
      let result = ref (Error Kernel.Retryable) in
      let _e, k = boot () in
      Kernel.spawn k (fun _env ->
          let calls = ref 0 in
          let f () =
            incr calls;
            if !calls <= transients then Error Kernel.Retryable
            else Error (Kernel.Fs_error Fs.Eexist)
          in
          let completed = function
            | Kernel.Fs_error Fs.Eexist when completes -> Some "already-done"
            | _ -> None
          in
          let policy = Resilient.policy ~seed:1 ~max_attempts:8 () in
          result := Resilient.retry_idempotent ~policy ~completed f);
      Kernel.run k;
      match !result with
      | Ok v -> transients >= 1 && completes && v = "already-done"
      | Error (Kernel.Fs_error Fs.Eexist) -> transients = 0 || not completes
      | Error _ -> false)

(* ---- the exhaustive explorer ------------------------------------------- *)

let test_explorer_refresh_no_violations () =
  let r = Crash_explore.explore_refresh ~files:3 ~file_size:4096 () in
  Alcotest.(check bool) "window non-empty" true (r.Crash_explore.rp_workload_syscalls > 0);
  Alcotest.(check int) "every boundary visited" r.Crash_explore.rp_workload_syscalls
    r.Crash_explore.rp_boundaries;
  Alcotest.(check int) "all boundaries classified" r.Crash_explore.rp_boundaries
    (r.Crash_explore.rp_rolled_back + r.Crash_explore.rp_rolled_forward);
  Alcotest.(check bool) "some boundaries roll back" true (r.Crash_explore.rp_rolled_back > 0);
  Alcotest.(check bool) "some boundaries roll forward" true
    (r.Crash_explore.rp_rolled_forward > 0);
  (match r.Crash_explore.rp_violations with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "boundary %d violated: %s (%s)" v.Crash_explore.vi_boundary
      v.Crash_explore.vi_problem v.Crash_explore.vi_replay)

let test_explorer_catches_broken_repair () =
  let r = Crash_explore.explore_refresh ~files:3 ~file_size:4096 ~break_repair:true () in
  Alcotest.(check bool) "broken repair produces violations" true
    (r.Crash_explore.rp_violations <> []);
  List.iter
    (fun v ->
      Alcotest.(check bool) "violation carries a replayable seed" true
        (v.Crash_explore.vi_replay <> "");
      Alcotest.(check bool) "violation embeds a flight-recorder tail" true
        (v.Crash_explore.vi_flight <> []))
    r.Crash_explore.rp_violations;
  (* the embedded tails are a pure function of (baseline, boundary), so
     sharding the same sweep over an 8-domain pool must reproduce the
     serial report — flight lines included — exactly *)
  let bl = Crash_explore.refresh_baseline ~files:3 ~file_size:4096 () in
  let ws = Crash_explore.windows ~boundaries:(Crash_explore.baseline_boundaries bl) in
  let pool = Gray_util.Domain_pool.create ~size:8 in
  let merged =
    Fun.protect
      ~finally:(fun () -> Gray_util.Domain_pool.shutdown pool)
      (fun () ->
        Crash_explore.merge_reports
          (Gray_util.Domain_pool.map pool
             (fun (lo, hi) ->
               Crash_explore.explore_refresh_window ~break_repair:true bl ~lo ~hi)
             ws))
  in
  Alcotest.(check bool) "violations (and their flight tails) identical at -j8"
    true
    (r = merged)

let test_explorer_pipeline_no_violations () =
  let r = Crash_explore.explore_pipeline ~files:2 ~file_size:4096 () in
  Alcotest.(check bool) "window non-empty" true (r.Crash_explore.rp_workload_syscalls > 0);
  Alcotest.(check int) "every boundary visited" r.Crash_explore.rp_workload_syscalls
    r.Crash_explore.rp_boundaries;
  (match r.Crash_explore.rp_violations with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "boundary %d violated: %s" v.Crash_explore.vi_boundary
      v.Crash_explore.vi_problem)

let test_explorer_deterministic () =
  let a = Crash_explore.explore_refresh ~files:3 ~file_size:4096 () in
  let b = Crash_explore.explore_refresh ~files:3 ~file_size:4096 () in
  Alcotest.(check bool) "same report twice" true (a = b)

(* Window sharding is pure bookkeeping: exploring explicit windows and
   merging reproduces the serial report exactly, and the incremental
   fsck on the per-boundary path returns the same report as the
   full-scan oracle. *)
let test_explorer_windows_merge_and_fsck_oracle () =
  let bl = Crash_explore.refresh_baseline ~files:3 ~file_size:4096 () in
  let ws = Crash_explore.windows ~boundaries:(Crash_explore.baseline_boundaries bl) in
  let sweep ~full_fsck =
    Crash_explore.merge_reports
      (List.map
         (fun (lo, hi) -> Crash_explore.explore_refresh_window ~full_fsck bl ~lo ~hi)
         ws)
  in
  let serial = Crash_explore.explore_refresh ~files:3 ~file_size:4096 () in
  let merged = sweep ~full_fsck:false in
  Alcotest.(check bool) "windows merge to the serial report" true (serial = merged);
  Alcotest.(check bool) "incremental fsck == full-scan oracle" true
    (merged = sweep ~full_fsck:true)

(* The two proof obligations on the explorer's own optimisations, under
   the mutation they must not be allowed to hide: with the broken repair
   installed, the incremental fsck reports the same violations at the
   same boundaries as the full scan... *)
let test_explorer_mutation_fsck_oracle () =
  let with_fsck full_fsck =
    Crash_explore.explore_refresh ~files:3 ~file_size:4096 ~break_repair:true
      ~full_fsck ()
  in
  let incr = with_fsck false in
  Alcotest.(check bool) "mutation caught" true (incr.Crash_explore.rp_violations <> []);
  Alcotest.(check bool) "same violations under the full-scan oracle" true
    (incr = with_fsck true)

(* ...and the snapshot strategy (one uncrashed run per window + cloned
   boundary images + memoised verdicts) reports exactly what the armed
   per-boundary replay reports. *)
let test_explorer_pipeline_snapshot_equals_replay () =
  let sweep strategy =
    Crash_explore.explore_pipeline ~files:2 ~file_size:4096 ~strategy ()
  in
  Alcotest.(check bool) "snapshot == replay" true (sweep `Snapshot = sweep `Replay);
  let sweep_full strategy =
    Crash_explore.explore_pipeline ~files:2 ~file_size:4096 ~full_fsck:true ~strategy ()
  in
  Alcotest.(check bool) "snapshot == replay under the full-scan oracle" true
    (sweep_full `Snapshot = sweep_full `Replay)

let suite =
  [
    Alcotest.test_case "of_string validation" `Quick test_of_string_validation;
    Alcotest.test_case "unsynced write rolls back" `Quick test_unsynced_write_rolls_back;
    Alcotest.test_case "fsynced write survives" `Quick test_fsynced_write_survives;
    Alcotest.test_case "blob durability" `Quick test_blob_durability;
    Alcotest.test_case "sync makes state durable" `Quick test_sync_makes_everything_durable;
    Alcotest.test_case "fsync free when off" `Quick test_fsync_free_when_off_charges_when_on;
    Alcotest.test_case "inert plane byte-identical" `Quick test_inert_plane_byte_identical;
    Alcotest.test_case "crash-at kills, restart recovers" `Quick
      test_crash_at_kills_machine_and_restart_recovers;
    Alcotest.test_case "namespace fault targets" `Quick test_namespace_fault_targets;
    Alcotest.test_case "canonical targets unchanged" `Quick test_canonical_targets_unchanged;
    Alcotest.test_case "pool clean in place" `Quick test_pool_clean_drops_dirty_bit_in_place;
    Alcotest.test_case "journal commit parsing" `Quick test_journal_committed_parses;
    Alcotest.test_case "torn journal always rolls back" `Quick
      test_torn_journal_repair_rolls_back;
    QCheck_alcotest.to_alcotest prop_retry_idempotent;
    Alcotest.test_case "explorer: refresh has no violations" `Quick
      test_explorer_refresh_no_violations;
    Alcotest.test_case "explorer: catches broken repair" `Quick
      test_explorer_catches_broken_repair;
    Alcotest.test_case "explorer: pipeline has no violations" `Quick
      test_explorer_pipeline_no_violations;
    Alcotest.test_case "explorer: deterministic" `Quick test_explorer_deterministic;
    Alcotest.test_case "explorer: windows merge, fsck oracle agrees" `Quick
      test_explorer_windows_merge_and_fsck_oracle;
    Alcotest.test_case "explorer: mutation caught under both fscks" `Quick
      test_explorer_mutation_fsck_oracle;
    Alcotest.test_case "explorer: snapshot == replay" `Quick
      test_explorer_pipeline_snapshot_equals_replay;
  ]

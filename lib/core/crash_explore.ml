open Simos

(* ALICE/CrashMonkey-style exhaustive crash-point exploration (cf.
   Pillai et al., OSDI '14; Mohan et al., OSDI '18) of the ICL recovery
   protocols.  A workload is run once against the crash plane to count
   its syscall boundaries T, then re-run T more times on identical
   kernels, crashing at boundary n = 1..T, restarting from the durable
   image, running the recovery path, and checking invariants.  Every
   boundary is visited — no sampling — and a violating boundary is
   reported as a replayable seed.

   Exploration is window-sharded: the boundary range splits into fixed
   contiguous windows, each a hermetic function of (baseline, lo, hi)
   that replays its boundaries independently, so windows can run as
   seeded tasks on a {!Gray_util.Domain_pool} and merge in submission
   order into the exact serial report — byte-identical at any [-j].
   The per-boundary fsck is {!Fs.check_incremental} against a
   checkpoint taken at the end of setup (every boundary run replays the
   identical setup whose full-fsck cleanliness the baseline verified);
   [~full_fsck:true] pins the full-scan oracle instead, which the
   differential tests diff against. *)

type violation = {
  vi_boundary : int;
  vi_seed : int;
  vi_problem : string;
  vi_replay : string;
  vi_flight : string list;
}

(* How much post-mortem history a violation carries.  16 events cover the
   crashing boundary, the evictions and faults just before it, and the
   failing recovery run — enough to read the story without bloating a
   many-violation report. *)
let flight_tail_events = 16

let flight_tail k = Gray_util.Flight.lines ~last:flight_tail_events (Kernel.flight k)

type report = {
  rp_workload_syscalls : int;
  rp_boundaries : int;
  rp_rolled_back : int;
  rp_rolled_forward : int;
  rp_violations : violation list;
}

let small_platform =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.0

let boot ~seed =
  let engine = Engine.create () in
  Kernel.boot ~engine ~platform:small_platform ~data_disks:1 ~volume_blocks:16384
    ~crash:Crash.durable ~seed ()

let must = function
  | Ok v -> v
  | Error e -> failwith ("Crash_explore: " ^ Kernel.error_to_string e)

let parent = "/d0"
let dir = parent ^ "/dir"

(* The explorer lives below [Gray_apps], so the workload is built from
   raw syscalls.  Sizes decrease with creation order so that the
   refreshed (size-ascending) layout is distinguishable from the
   original creation order.  Setup ends with [sync]: the pre-state must
   be durable, or the first crash boundary would roll the workload
   itself away. *)
let setup env ~files ~file_size =
  must (Kernel.mkdir env dir);
  for i = 0 to files - 1 do
    let path = Printf.sprintf "%s/f%02d" dir i in
    let fd = must (Kernel.create_file env path) in
    let len = file_size * (files - i) in
    ignore (must (Kernel.write env fd ~off:0 ~len));
    Kernel.close env fd
  done;
  Kernel.sync env

(* White-box observation of the durable directory state: sorted
   (name, ino, size, mtime).  Taken through [Fs] directly, not through
   syscalls, so observing does not perturb the crash schedule. *)
let observe fs =
  match Fs.readdir fs "/dir" with
  | Error _ -> None
  | Ok names ->
    Some
      (List.map
         (fun n ->
           match Fs.stat_path fs ("/dir/" ^ n) with
           | Ok st -> (n, st.Fs.st_ino, st.Fs.st_size, st.Fs.st_mtime)
           | Error _ -> (n, -1, -1, -1))
         (List.sort compare names))

(* The paper's layout goal: i-number order matches size order. *)
let ino_order_ok obs =
  let by_ino =
    List.sort (fun (_, a, _, _) (_, b, _, _) -> compare a b) obs
    |> List.map (fun (n, _, _, _) -> n)
  in
  let by_size =
    List.sort (fun (na, _, sa, _) (nb, _, sb, _) -> compare (sa, na) (sb, nb)) obs
    |> List.map (fun (n, _, _, _) -> n)
  in
  by_ino = by_size

(* A deliberately wrong repair for mutation-testing the explorer: it
   ignores the commit record and always rolls back.  After a post-commit
   crash (original directory already deleted) it destroys the only copy
   of the data — the explorer must catch this. *)
let broken_repair env ~parent =
  let ( let* ) r f = Result.bind r f in
  let rm_dir d =
    let* entries = Kernel.readdir env d in
    let rec go = function
      | [] -> Kernel.unlink env d
      | n :: rest -> (
        match Kernel.unlink env (d ^ "/" ^ n) with
        | Ok () -> go rest
        | Error e -> Error e)
    in
    go entries
  in
  let* entries = Kernel.readdir env parent in
  let prefix = Fldc.journal_name ^ "." in
  let plen = String.length prefix in
  let journals =
    List.filter (fun n -> String.length n > plen && String.sub n 0 plen = prefix) entries
    |> List.sort compare
  in
  let rec fix = function
    | [] -> Ok (journals <> [])
    | jname :: rest ->
      let base = String.sub jname plen (String.length jname - plen) in
      let tmp = Fldc.tmp_dir_path ~parent ~base in
      let* () =
        match Kernel.stat env tmp with
        | Ok _ -> rm_dir tmp
        | Error _ -> Ok ()
      in
      let* () = Kernel.unlink env (parent ^ "/" ^ jname) in
      fix rest
  in
  fix journals

(* ---- workload runners ---- *)

(* One run of a workload: setup, then — with the plane optionally armed
   [n] boundaries into the window — the window body itself.  The fsck
   checkpoint is taken at the end of setup: every boundary run replays
   the byte-identical setup, and the baseline verified that state passes
   the full fsck, so the incremental checker's contract holds for
   everything the window (and the crash rollback, and the repair)
   touches after it.  Returns the kernel (for post-mortem inspection),
   the syscall window, the checkpoint, and whether the machine
   crashed. *)
let run_window ~name ~seed ~files ~file_size ~arm window =
  let k = boot ~seed in
  let c = Option.get (Kernel.crash_plane k) in
  let span = ref (0, 0) in
  let cp = ref None in
  Kernel.spawn k ~name (fun env ->
      setup env ~files ~file_size;
      cp := Some (Fs.checkpoint (Kernel.volume_fs k 0));
      let s0 = Crash.syscalls c in
      (match arm with Some n -> Crash.arm_at c n | None -> ());
      window env;
      span := (s0, Crash.syscalls c));
  let crashed =
    try
      Kernel.run k;
      false
    with Engine.Fiber_crash (_, Crash.Crashed) -> true
  in
  (k, !span, !cp, crashed)

let run_refresh ~seed ~files ~file_size ~arm =
  run_window ~name:"refresh" ~seed ~files ~file_size ~arm (fun env ->
      match Fldc.refresh_directory env ~dir () with
      | Ok () -> ()
      | Error e -> failwith ("Crash_explore: refresh: " ^ Kernel.error_to_string e))

(* {1 MAC / gbp pipeline} *)

let mib = 1024 * 1024

(* A gbp-style pipeline: order the directory's files (cache-then-inode
   composition), read them in that order, then run a MAC allocate /
   touch / free cycle.  No recovery protocol of its own — after a crash
   the invariants are that restart reclaims everything ([Fs.check]
   clean, no processes, no leaked memory keeping a re-run from
   completing) and the durable setup image is intact. *)
let pipeline_window env ~files ~fccd =
  let paths = List.init files (fun i -> Printf.sprintf "%s/f%02d" dir i) in
  let order, (_ : Gbp.fallback_reason option) =
    Gbp.best_order_or_fallback env fccd Gbp.Compose ~paths
  in
  List.iter
    (fun path ->
      let fd = must (Kernel.open_file env path) in
      let size = Kernel.file_size env fd in
      ignore (must (Kernel.read env fd ~off:0 ~len:size));
      Kernel.close env fd)
    order;
  let cfg = Mac.default_config () in
  let cfg = { cfg with Mac.initial_increment = 2 * mib; max_increment = 4 * mib } in
  match Mac.gb_alloc env cfg ~min:mib ~max:(8 * mib) ~multiple:mib with
  | None -> ()
  | Some a ->
    Mac.touch_all env a;
    Mac.gb_free env a

(* Each run builds its own FCCD config from the seed: the config carries
   a mutable RNG, and a shared one would let run order leak into the
   probe schedule — boundary n would crash a {e different} syscall
   sequence than the one the baseline counted, and windows would not be
   independent.  Fresh-per-run, every boundary replays the baseline's
   exact sequence. *)
let run_pipeline ~seed ~files ~file_size ~arm =
  run_window ~name:"pipeline" ~seed ~files ~file_size ~arm (fun env ->
      pipeline_window env ~files ~fccd:(Fccd.default_config ~seed ()))

(* ---- baselines ---- *)

type workload = Refresh | Pipeline

type observation = (string * int * int * int) list

type baseline = {
  bl_workload : workload;
  bl_seed : int;
  bl_files : int;
  bl_file_size : int;
  bl_boundaries : int;
  bl_pre : observation;   (* durable state at the start of the window *)
  bl_post : observation;  (* committed state after an uncrashed run *)
}

let baseline_boundaries bl = bl.bl_boundaries

(* The durable pre-image, observed from a setup-only run — the same
   state every boundary run holds at its checkpoint.  The full fsck must
   pass here: this anchors the incremental checker's contract for the
   whole window sweep. *)
let pre_image ~seed ~files ~file_size =
  let k = boot ~seed in
  Kernel.spawn k ~name:"setup" (fun env -> setup env ~files ~file_size);
  Kernel.run k;
  let fs = Kernel.volume_fs k 0 in
  (match Fs.check_full fs with
  | [] -> ()
  | ps ->
    failwith
      ("Crash_explore: setup state fails the full fsck: " ^ String.concat "; " ps));
  match observe fs with
  | Some obs -> obs
  | None -> failwith "Crash_explore: setup produced no directory"

let refresh_baseline ?(seed = 11) ?(files = 6) ?(file_size = 8192) () =
  let bl_pre = pre_image ~seed ~files ~file_size in
  let k, (s0, s1), _cp, crashed = run_refresh ~seed ~files ~file_size ~arm:None in
  if crashed then failwith "Crash_explore: baseline run crashed";
  let bl_post =
    match observe (Kernel.volume_fs k 0) with
    | Some obs -> obs
    | None -> failwith "Crash_explore: baseline refresh produced no directory"
  in
  let t = s1 - s0 in
  if t <= 0 then failwith "Crash_explore: empty refresh window";
  { bl_workload = Refresh; bl_seed = seed; bl_files = files; bl_file_size = file_size;
    bl_boundaries = t; bl_pre; bl_post }

let pipeline_baseline ?(seed = 23) ?(files = 4) ?(file_size = 8192) () =
  let bl_pre = pre_image ~seed ~files ~file_size in
  let _k, (s0, s1), _cp, crashed = run_pipeline ~seed ~files ~file_size ~arm:None in
  if crashed then failwith "Crash_explore: baseline pipeline crashed";
  let t = s1 - s0 in
  if t <= 0 then failwith "Crash_explore: empty pipeline window";
  { bl_workload = Pipeline; bl_seed = seed; bl_files = files; bl_file_size = file_size;
    bl_boundaries = t; bl_pre; bl_post = bl_pre }

(* ---- per-boundary invariant checking ---- *)

type checker = {
  mutable problems : string list;  (* newest first *)
}

let add ck fmt = Printf.ksprintf (fun s -> ck.problems <- s :: ck.problems) fmt

let fsck_of ~full_fsck ~cp fs =
  if full_fsck then Fs.check_full fs
  else
    match cp with
    | Some cp -> Fs.check_incremental fs cp
    | None -> Fs.check_full fs (* crashed before setup finished: no token *)

(* Restart the crashed machine, run [repair], and record every invariant
   violation: all processes reclaimed, the parent directory holds only
   the data directory (journal and temporary directory cleaned up), the
   surviving state is exactly the pre- or the post-refresh image, and
   the file system passes fsck.  Returns [`Back] / [`Forward] for the
   outcome, or [`Broken] when the state matches neither image. *)
let recover_and_check ~k ~pre ~post ~repair ~fsck ck =
  if Kernel.live_procs k <> 0 then
    add ck "%d live processes after crash" (Kernel.live_procs k);
  Kernel.restart k;
  let repair_error = ref None in
  Kernel.spawn k ~name:"repair" (fun env ->
      match repair env ~parent with
      | Ok (_ : bool) -> ()
      | Error e -> repair_error := Some e);
  (try Kernel.run k
   with Engine.Fiber_crash (name, e) ->
     add ck "repair fiber crashed (%s: %s)" name (Printexc.to_string e));
  (match !repair_error with
  | Some e -> add ck "repair returned an error: %s" (Kernel.error_to_string e)
  | None -> ());
  if Kernel.live_procs k <> 0 then
    add ck "%d live processes after repair" (Kernel.live_procs k);
  let fs = Kernel.volume_fs k 0 in
  (match Fs.readdir fs "/" with
  | Ok names -> (
    match List.sort compare names with
    | [ "dir" ] -> ()
    | names -> add ck "parent not clean after repair: [%s]" (String.concat "; " names))
  | Error e -> add ck "parent unreadable after repair: %s" (Fs.error_to_string e));
  (match fsck fs with
  | [] -> ()
  | ps -> add ck "fsck: %s" (String.concat "; " ps));
  match observe fs with
  | None ->
    add ck "data directory missing after repair";
    `Broken
  | Some obs ->
    if obs = pre then `Back
    else if obs = post then `Forward
    else begin
      add ck "surviving state is neither the pre- nor the post-refresh image";
      `Broken
    end

(* ---- windows ---- *)

(* Fixed window granularity, independent of how many domains run them:
   the report split is a function of the boundary count alone, so the
   merged output cannot depend on -j. *)
let window_size = 16

let windows ~boundaries =
  let rec go lo acc =
    if lo > boundaries then List.rev acc
    else go (lo + window_size) ((lo, min boundaries (lo + window_size - 1)) :: acc)
  in
  go 1 []

let merge_reports = function
  | [] -> invalid_arg "Crash_explore.merge_reports: no reports"
  | r0 :: _ as reports ->
    List.iter
      (fun r ->
        if r.rp_workload_syscalls <> r0.rp_workload_syscalls then
          invalid_arg "Crash_explore.merge_reports: windows of different workloads")
      reports;
    {
      rp_workload_syscalls = r0.rp_workload_syscalls;
      rp_boundaries = List.fold_left (fun a r -> a + r.rp_boundaries) 0 reports;
      rp_rolled_back = List.fold_left (fun a r -> a + r.rp_rolled_back) 0 reports;
      rp_rolled_forward =
        List.fold_left (fun a r -> a + r.rp_rolled_forward) 0 reports;
      rp_violations = List.concat_map (fun r -> r.rp_violations) reports;
    }

let check_window bl ~lo ~hi =
  if lo < 1 || hi > bl.bl_boundaries || lo > hi then
    invalid_arg
      (Printf.sprintf "Crash_explore: window [%d, %d] outside boundaries [1, %d]" lo hi
         bl.bl_boundaries)

let explore_refresh_window ?(break_repair = false) ?(full_fsck = false) bl ~lo ~hi =
  if bl.bl_workload <> Refresh then
    invalid_arg "Crash_explore.explore_refresh_window: not a refresh baseline";
  check_window bl ~lo ~hi;
  let { bl_seed = seed; bl_files = files; bl_file_size = file_size; bl_pre = pre;
        bl_post = post; _ } = bl in
  let violations = ref [] in
  let violate ~boundary ?(flight = []) ck =
    violations :=
      {
        vi_boundary = boundary;
        vi_seed = seed;
        vi_problem = String.concat "; " (List.rev ck.problems);
        vi_replay =
          Printf.sprintf "GRAYBOX_CRASH=at:%d seed=%d workload=refresh" boundary seed;
        vi_flight = flight;
      }
      :: !violations
  in
  (* The committed image must itself meet the layout goal, or every
     roll-forward would be a silent regression.  Boundary 0 belongs to
     the first window so the merged report carries it exactly once. *)
  if lo = 1 then (
    let ck = { problems = [] } in
    if not (ino_order_ok post) then begin
      add ck "post-refresh image does not order i-numbers by size";
      violate ~boundary:0 ck
    end);
  let rolled_back = ref 0 in
  let rolled_forward = ref 0 in
  let repair = if break_repair then broken_repair else Fldc.repair in
  for n = lo to hi do
    let k, _window, cp, crashed = run_refresh ~seed ~files ~file_size ~arm:(Some n) in
    let ck = { problems = [] } in
    if not crashed then add ck "no crash fired at boundary %d" n;
    (match
       recover_and_check ~k ~pre ~post ~repair ~fsck:(fsck_of ~full_fsck ~cp) ck
     with
    | `Back -> incr rolled_back
    | `Forward -> incr rolled_forward
    | `Broken -> ());
    if ck.problems <> [] then violate ~boundary:n ~flight:(flight_tail k) ck
  done;
  {
    rp_workload_syscalls = bl.bl_boundaries;
    rp_boundaries = hi - lo + 1;
    rp_rolled_back = !rolled_back;
    rp_rolled_forward = !rolled_forward;
    rp_violations = List.rev !violations;
  }

(* Invariants of a restarted pipeline machine: fsck clean, the durable
   setup image untouched (the pipeline only reads the directory), and the
   same pipeline re-runs to completion — proving memory, swap, and
   descriptors were reclaimed.  [k] is either the restarted crashed
   kernel (replay strategy) or a fresh boot carrying the rolled-back
   image (snapshot strategy); the checks see only the volume state and
   the re-run's completion, identical between the two constructions. *)
let check_restarted_pipeline ~full_fsck ~cp ~pre ~seed ~files k ck =
  let fs = Kernel.volume_fs k 0 in
  (match fsck_of ~full_fsck ~cp fs with
  | [] -> ()
  | ps -> add ck "fsck: %s" (String.concat "; " ps));
  (match observe fs with
  | Some obs when obs = pre -> ()
  | Some _ -> add ck "durable setup image changed under a read-only pipeline"
  | None -> add ck "data directory missing after crash");
  let reran = ref false in
  Kernel.spawn k ~name:"pipeline-rerun" (fun env ->
      pipeline_window env ~files ~fccd:(Fccd.default_config ~seed ());
      reran := true);
  (try Kernel.run k
   with Engine.Fiber_crash (name, e) ->
     add ck "re-run crashed (%s: %s)" name (Printexc.to_string e));
  if not !reran then add ck "pipeline re-run did not complete after restart";
  if Kernel.live_procs k <> 0 then
    add ck "%d live processes after re-run" (Kernel.live_procs k)

(* Snapshot strategy: ONE uncrashed run of the workload per window,
   cloning the volume at each boundary in [lo, hi] through the crash
   plane's boundary observer — the observer fires at the exact point an
   armed crash would, so the clone {e is} the crash state.  Each clone
   is rolled back ({!Fs.crash}) and adopted by a fresh kernel, which is
   the restarted machine minus the O(prefix) armed replay.  Boundaries
   whose raw volume state equals the previous boundary's (the read-only
   pipeline dirties nothing, so in practice all of them) share its
   verdict: every check and the full re-run are deterministic functions
   of the adopted state, and {!Fs.equal} is exact, so the shared verdict
   is the one the slow path would recompute.  The replay strategy below
   remains the oracle this equivalence is differentially tested against
   (it alone exercises arming and the crashed machine itself). *)
let pipeline_window_snapshot ~full_fsck bl ~lo ~hi =
  let { bl_seed = seed; bl_files = files; bl_file_size = file_size; bl_pre = pre; _ } =
    bl
  in
  let width = hi - lo + 1 in
  let snaps = Array.make width None in  (* None = same image as previous *)
  let cp = ref None in
  let k = boot ~seed in
  let c = Option.get (Kernel.crash_plane k) in
  Kernel.spawn k ~name:"pipeline" (fun env ->
      setup env ~files ~file_size;
      cp := Some (Fs.checkpoint (Kernel.volume_fs k 0));
      let s0 = Crash.syscalls c in
      let fs = Kernel.volume_fs k 0 in
      let last = ref None in
      Crash.observe_boundaries c (fun abs ->
          let n = abs - s0 in
          if n >= lo && n <= hi then begin
            match !last with
            | Some prev when Fs.equal fs prev -> ()
            | Some _ | None ->
              let img = Fs.clone fs in
              snaps.(n - lo) <- Some img;
              last := Some img
          end);
      pipeline_window env ~files ~fccd:(Fccd.default_config ~seed ()));
  Kernel.run k;
  let violations = ref [] in
  let last_verdict = ref ([], []) in  (* (problems, flight tail) *)
  for i = 0 to width - 1 do
    let n = lo + i in
    let problems, flight =
      match snaps.(i) with
      | None -> !last_verdict
      | Some img ->
        Fs.crash img;
        let k2 = boot ~seed in
        Kernel.install_volume_image k2 0 img;
        let ck = { problems = [] } in
        check_restarted_pipeline ~full_fsck ~cp:!cp ~pre ~seed ~files k2 ck;
        let verdict = (List.rev ck.problems, flight_tail k2) in
        last_verdict := verdict;
        verdict
    in
    if problems <> [] then
      violations :=
        {
          vi_boundary = n;
          vi_seed = seed;
          vi_problem = String.concat "; " problems;
          vi_replay =
            Printf.sprintf "GRAYBOX_CRASH=at:%d seed=%d workload=pipeline" n seed;
          vi_flight = flight;
        }
        :: !violations
  done;
  List.rev !violations

let pipeline_window_replay ~full_fsck bl ~lo ~hi =
  let { bl_seed = seed; bl_files = files; bl_file_size = file_size; bl_pre = pre; _ } =
    bl
  in
  let violations = ref [] in
  for n = lo to hi do
    let k, _window, cp, crashed = run_pipeline ~seed ~files ~file_size ~arm:(Some n) in
    let ck = { problems = [] } in
    if not crashed then add ck "no crash fired at boundary %d" n;
    if Kernel.live_procs k <> 0 then
      add ck "%d live processes after crash" (Kernel.live_procs k);
    Kernel.restart k;
    check_restarted_pipeline ~full_fsck ~cp ~pre ~seed ~files k ck;
    if ck.problems <> [] then
      violations :=
        {
          vi_boundary = n;
          vi_seed = seed;
          vi_problem = String.concat "; " (List.rev ck.problems);
          vi_replay =
            Printf.sprintf "GRAYBOX_CRASH=at:%d seed=%d workload=pipeline" n seed;
          vi_flight = flight_tail k;
        }
        :: !violations
  done;
  List.rev !violations

let explore_pipeline_window ?(full_fsck = false) ?(strategy = `Snapshot) bl ~lo ~hi =
  if bl.bl_workload <> Pipeline then
    invalid_arg "Crash_explore.explore_pipeline_window: not a pipeline baseline";
  check_window bl ~lo ~hi;
  let violations =
    match strategy with
    | `Snapshot -> pipeline_window_snapshot ~full_fsck bl ~lo ~hi
    | `Replay -> pipeline_window_replay ~full_fsck bl ~lo ~hi
  in
  {
    rp_workload_syscalls = bl.bl_boundaries;
    rp_boundaries = hi - lo + 1;
    rp_rolled_back = 0;
    rp_rolled_forward = 0;
    rp_violations = violations;
  }

type strategy = [ `Snapshot | `Replay ]

(* ---- whole-range exploration ---- *)

let sharded ?pool ~boundaries run_window =
  let ws = windows ~boundaries in
  let reports =
    match pool with
    | Some pool -> Gray_util.Domain_pool.map pool (fun (lo, hi) -> run_window ~lo ~hi) ws
    | None -> List.map (fun (lo, hi) -> run_window ~lo ~hi) ws
  in
  merge_reports reports

let explore_refresh ?seed ?files ?file_size ?(break_repair = false)
    ?(full_fsck = false) ?pool () =
  let bl = refresh_baseline ?seed ?files ?file_size () in
  sharded ?pool ~boundaries:bl.bl_boundaries
    (explore_refresh_window ~break_repair ~full_fsck bl)

let explore_pipeline ?seed ?files ?file_size ?(full_fsck = false)
    ?(strategy = `Snapshot) ?pool () =
  let bl = pipeline_baseline ?seed ?files ?file_size () in
  sharded ?pool ~boundaries:bl.bl_boundaries
    (explore_pipeline_window ~full_fsck ~strategy bl)

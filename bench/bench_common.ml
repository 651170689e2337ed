(* Shared plumbing for the figure/table reproductions.

   Experiments no longer print as they compute.  Each module builds a
   {!plan}: a list of self-contained {!task}s (one kernel boot each, all
   seeds derived up front) plus a [render] function that turns the task
   results into human output, machine-readable figure numbers and
   expected-shape checks.  The driver fans every task of every selected
   experiment over a {!Gray_util.Domain_pool} and renders in submission
   order afterwards — so the output is byte-identical at any [-j]. *)

open Simos

let mib = 1024 * 1024

(* ---- trial count ----------------------------------------------------- *)

(* The paper used 30 trials per figure; the default here is 10 — high
   enough for stable error bars now that trials run domain-parallel,
   low enough for a laptop.  Override with GRAYBOX_TRIALS. *)
let default_trials = 10

let trials_of_env () =
  Gray_util.Env.parse ~var:"GRAYBOX_TRIALS" ~expected:"an integer >= 1"
    ~on_invalid:`Exit ~default:default_trials (fun token ->
      match int_of_string_opt token with
      | Some n when n >= 1 -> Gray_util.Env.Value n
      | Some _ -> Soft ("trial count below 1; using 1 trial", 1)
      | None -> Invalid)

let trials_slot = ref None
let trials () = match !trials_slot with
  | Some n -> n
  | None ->
    let n = trials_of_env () in
    trials_slot := Some n;
    n

let set_trials n = trials_slot := Some (max 1 n)

(* ---- telemetry mode --------------------------------------------------- *)

(* Resolved once (before the pool fans out, so the env warning prints at
   most once) and shared by every task of the run. *)
let telemetry_slot = ref None

let telemetry_mode () =
  match !telemetry_slot with
  | Some m -> m
  | None ->
    let m = Gray_util.Telemetry.of_env () in
    telemetry_slot := Some m;
    m

let set_telemetry_mode m = telemetry_slot := Some m

(* ---- hostile planes --------------------------------------------------- *)

(* Set by bench/main.ml from GRAYBOX_FAULTS/CRASH/DRIFT before the pool
   fans out; {!boot} installs them unless an experiment pins its own. *)
let planes_slot = ref Graybox_core.Planes.none
let set_planes p = planes_slot := p

(* ---- simulation helpers ---------------------------------------------- *)

(* Engines booted while a task runs are registered domain-locally so the
   harness can report simulated-time and event totals per experiment. *)
let engine_collector : Engine.t list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let register_engine engine =
  match Domain.DLS.get engine_collector with
  | None -> ()
  | Some engines -> engines := engine :: !engines

(* Kernels likewise, so the harness can pull each task's accounting
   ledger and flight-recorder tail after the task ran. *)
let kernel_collector : Kernel.t list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let register_kernel k =
  match Domain.DLS.get kernel_collector with
  | None -> ()
  | Some kernels -> kernels := k :: !kernels

let boot ?(platform = Platform.linux_2_2) ?(data_disks = 4) ?(seed = 42) ?faults
    ?drift ?sched ?procs () =
  let engine = Engine.create () in
  register_engine engine;
  let p = !planes_slot in
  let pinned given run = match given with None -> run | Some _ -> given in
  let k =
    Kernel.boot ~engine ~platform ~data_disks ~seed
      ?faults:(pinned faults p.faults) ?crash:p.crash ?drift:(pinned drift p.drift)
      ?sched ?procs ()
  in
  register_kernel k;
  k

(* Run one simulated process to completion and return its result. *)
let in_proc k body =
  let result = ref None in
  Kernel.spawn k (fun env -> result := Some (body env));
  Kernel.run k;
  match !result with Some v -> v | None -> failwith "bench process failed"

let seconds ns = Gray_util.Units.sec_of_ns ns

let mean_std samples =
  let arr = Array.of_list (List.map float_of_int samples) in
  (Gray_util.Stats.mean_of arr, Gray_util.Stats.stddev_of arr)

let pp_mean_std (m, s) = Printf.sprintf "%7.2f ± %5.2f s" (m /. 1e9) (s /. 1e9)

(* ---- tasks ------------------------------------------------------------ *)

type task = {
  t_label : string;
  t_run : unit -> unit;
  mutable t_wall_ns : int;
  mutable t_sim_ns : int;
  mutable t_events : int;
  mutable t_sink : Gray_util.Telemetry.sink option;
  mutable t_account : Account.export option;
      (* merged ledgers of every kernel the task booted *)
  mutable t_flight : string list;
      (* flight tail of the task's last kernel, for perf-gate post-mortems *)
}

let task ~label f =
  let cell = ref None in
  let t =
    {
      t_label = label;
      t_run = (fun () -> cell := Some (f ()));
      t_wall_ns = 0;
      t_sim_ns = 0;
      t_events = 0;
      t_sink = None;
      t_account = None;
      t_flight = [];
    }
  in
  let get () =
    match !cell with
    | Some v -> v
    | None -> failwith (Printf.sprintf "bench task %S rendered before it ran" label)
  in
  (t, get)

(* One task per item; the getter returns results in item order. *)
let tasks ~label items f =
  let pairs = List.map (fun item -> task ~label:(label item) (fun () -> f item)) items in
  let ts = List.map fst pairs in
  let get () = List.map (fun (_, g) -> g ()) pairs in
  (ts, get)

(* One independent, seeded task per trial; results merge in seed order.
   This is the harness's determinism contract: a trial owns its seed and
   everything derived from it, so the schedule cannot change the data. *)
let run_trials ~label ~seeds f =
  tasks ~label:(fun seed -> Printf.sprintf "%s[seed=%d]" label seed) seeds
    (fun seed -> f ~seed)

(* Standard per-figure seed derivation: one small, readable namespace per
   experiment, disjoint across experiments by construction. *)
let trial_seeds ~base n = List.init n (fun i -> base + i)

(* ---- plans ------------------------------------------------------------ *)

type figure = { fg_name : string; fg_value : float }
type check = { ck_name : string; ck_ok : bool }

type rendered = {
  rd_output : string;
  rd_figures : figure list;
  rd_checks : check list;
}

type plan = { p_tasks : task list; p_render : unit -> rendered }

let figure name value = { fg_name = name; fg_value = value }
let check name ok = { ck_name = name; ck_ok = ok }

(* ---- rendering helpers ------------------------------------------------ *)

let header b title =
  Buffer.add_string b "\n==============================================================\n";
  Buffer.add_string b title;
  Buffer.add_string b "\n==============================================================\n"

let note b fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string b "  # ";
      Buffer.add_string b s;
      Buffer.add_char b '\n')
    fmt

(* ---- execution -------------------------------------------------------- *)

let exec_task t =
  let t0 = Unix.gettimeofday () in
  let engines = ref [] in
  let kernels = ref [] in
  Domain.DLS.set engine_collector (Some engines);
  Domain.DLS.set kernel_collector (Some kernels);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set engine_collector None;
      Domain.DLS.set kernel_collector None)
    (fun () ->
      match telemetry_mode () with
      | Gray_util.Telemetry.Off -> t.t_run ()
      | mode ->
        (* Each task owns a hermetic sink: no cross-domain interleaving,
           and exports in submission order are identical at any -j. *)
        let sink = Gray_util.Telemetry.create ~mode ~name:t.t_label () in
        t.t_sink <- Some sink;
        Gray_util.Telemetry.with_sink sink t.t_run);
  t.t_wall_ns <- int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
  List.iter
    (fun e ->
      t.t_sim_ns <- t.t_sim_ns + Engine.now e;
      t.t_events <- t.t_events + Engine.events_processed e)
    !engines;
  (* [kernels] conses newest-first: reverse for boot order so the merged
     export (and hence the suite JSON) is schedule-independent. *)
  let exports =
    List.filter_map
      (fun k -> Option.map Account.export (Kernel.account k))
      (List.rev !kernels)
  in
  if exports <> [] then t.t_account <- Some (Account.merge_exports exports);
  match !kernels with
  | last :: _ -> t.t_flight <- Gray_util.Flight.lines ~last:32 (Kernel.flight last)
  | [] -> ()

let execute ?pool plans =
  ignore (telemetry_mode ());
  let all = List.concat_map (fun p -> p.p_tasks) plans in
  match pool with
  | Some pool when Gray_util.Domain_pool.size pool > 1 ->
    Gray_util.Domain_pool.run pool (List.map (fun t () -> exec_task t) all)
  | Some _ | None -> List.iter exec_task all

type plan_stats = {
  st_tasks : int;
  st_wall_ns : int;  (* sum of task wall times: work, not elapsed, time *)
  st_sim_ns : int;
  st_events : int;
}

let plan_stats p =
  List.fold_left
    (fun acc t ->
      {
        st_tasks = acc.st_tasks + 1;
        st_wall_ns = acc.st_wall_ns + t.t_wall_ns;
        st_sim_ns = acc.st_sim_ns + t.t_sim_ns;
        st_events = acc.st_events + t.t_events;
      })
    { st_tasks = 0; st_wall_ns = 0; st_sim_ns = 0; st_events = 0 }
    p.p_tasks

(* ---- telemetry exports ------------------------------------------------ *)

let plan_sinks p = List.filter_map (fun t -> t.t_sink) p.p_tasks

(* One Chrome trace for the whole run: pid per experiment, tid per task,
   both in submission order — so the export is byte-identical at any -j. *)
let chrome_trace_of plans =
  let events =
    List.concat
      (List.mapi
         (fun pid plan ->
           List.concat
             (List.mapi
                (fun tid t ->
                  match t.t_sink with
                  | None -> []
                  | Some s -> Gray_util.Telemetry.chrome_events s ~pid:(pid + 1) ~tid:(tid + 1))
                plan.p_tasks))
         plans)
  in
  Gray_util.Telemetry.chrome_trace events

let telemetry_summary plans =
  Gray_util.Telemetry.summary (List.concat_map plan_sinks plans)

(* ---- the machine-readable perf trajectory ----------------------------- *)

(* Merged accounting ledger of every kernel the plan's tasks booted
   (tasks merge in submission order, so the aggregate is -j-independent). *)
let plan_account p =
  Account.merge_exports (List.filter_map (fun t -> t.t_account) p.p_tasks)

(* The last non-empty flight tail among the plan's tasks: the most recent
   machine history a regressed experiment can attach to its verdict. *)
let plan_flight_tail p =
  List.fold_left
    (fun acc t -> if t.t_flight <> [] then t.t_flight else acc)
    [] p.p_tasks

(* Schema v3: each experiment carries its "accounting" object and, when
   named in [regressed], the "flight_tail" post-mortem. *)
let suite_json ~jobs ~suite_wall_ns ?(regressed = []) results =
  let open Gray_util.Json in
  let experiment (name, doc, plan, rendered) =
    let st = plan_stats plan in
    let flight_tail =
      if List.mem name regressed then
        match plan_flight_tail plan with
        | [] -> []
        | lines -> [ ("flight_tail", List (List.map (fun l -> String l) lines)) ]
      else []
    in
    Obj
      ([
         ("name", String name);
         ("doc", String doc);
         ("tasks", Int st.st_tasks);
         ("wall_ns", Int st.st_wall_ns);
         ("sim_ns", Int st.st_sim_ns);
         ("events", Int st.st_events);
         ("metrics", Gray_util.Telemetry.merge_metrics_json (plan_sinks plan));
         ("accounting", Account.export_json (plan_account plan));
       ]
      @ flight_tail
      @ [
          ( "figures",
            List
              (List.map
                 (fun f -> Obj [ ("name", String f.fg_name); ("value", Float f.fg_value) ])
                 rendered.rd_figures) );
          ( "checks",
            List
              (List.map
                 (fun c -> Obj [ ("name", String c.ck_name); ("ok", Bool c.ck_ok) ])
                 rendered.rd_checks) );
        ])
  in
  Obj
    [
      ("schema", String "graybox-bench-suite/3");
      ("jobs", Int jobs);
      ("trials", Int (trials ()));
      ("telemetry", String (Gray_util.Telemetry.mode_to_string (telemetry_mode ())));
      ("suite_wall_ns", Int suite_wall_ns);
      ("experiments", List (List.map experiment results));
    ]

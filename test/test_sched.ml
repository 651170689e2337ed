(* The proportional-share scheduler: the starvation bound that makes a
   fleet of contenders schedulable at all, weighted shares, the
   per-pid-grants-sum-to-total exactness invariant (against the CPU
   resource's own busy time), the late-arrival bound, and the restart
   audit.  All on a 1-CPU noiseless platform so the round-robin algebra
   is exact. *)

open Simos

let quantum = 1_000_000 (* 1 ms *)
let ms = 1_000_000

(* One CPU serialises the run queue; zero noise makes bursts exact. *)
let one_cpu =
  Platform.with_noise { Platform.linux_2_2 with Platform.cpus = 1 } ~sigma:0.0

let boot ?sched ~seed () =
  let engine = Engine.create () in
  (engine, Kernel.boot ~engine ~platform:one_cpu ~data_disks:1 ?sched ~seed ())

let the_sched k = Option.get (Kernel.sched k)

(* Spawn [specs] = [(name, weight, burst_ns)] computing fibers at t=0 and
   return their completion times.  Each body yields for 1 µs before its
   burst: a burst dispatched while its process is the sole participant
   runs whole (the legacy path that keeps a 1-process fleet
   byte-identical to solo), so the round-robin properties govern bursts
   admitted under contention — the yield lets every fiber register
   first. *)
let run_bursts k specs =
  let finish = Array.make (List.length specs) 0 in
  List.iteri
    (fun i (name, weight, ns) ->
      Kernel.spawn k ~name ~weight (fun env ->
          Engine.delay 1_000;
          Kernel.compute env ~ns;
          finish.(i) <- Engine.now (Kernel.engine k)))
    specs;
  Kernel.run k;
  finish

(* ---- the starvation bound --------------------------------------------- *)

(* M equal processes, one CPU: with quantum slicing no process waits
   longer than the other M-1 processes' chunks between its own slices,
   so all completions land within (M-1) quanta of each other.  The
   scheduler-less kernel runs the same bursts FCFS and spreads them by a
   whole burst each — the contrast is the point of having a run queue. *)
let test_starvation_bound () =
  let m = 4 and burst = 10 * ms in
  let specs = List.init m (fun i -> (Printf.sprintf "p%d" i, 1, burst)) in
  let _, k = boot ~sched:{ Sched.sd_quantum_ns = quantum } ~seed:3 () in
  let finish = run_bursts k specs in
  let spread a = Array.fold_left max 0 a - Array.fold_left min max_int a in
  Alcotest.(check bool)
    (Printf.sprintf "sliced spread %d <= (M-1) quanta" (spread finish))
    true
    (spread finish <= (m - 1) * quantum);
  let _, legacy = boot ~seed:3 () in
  let fcfs = run_bursts legacy specs in
  Alcotest.(check bool)
    (Printf.sprintf "FCFS spread %d = (M-1) whole bursts" (spread fcfs))
    true
    (spread fcfs >= (m - 1) * burst)

(* ---- weighted shares --------------------------------------------------- *)

(* Weight w gets a w-quantum chunk per round: with equal bursts the
   weight-3 process must finish well before the weight-1 process, and
   the grant ledger must show the full burst charged to each. *)
let test_weights () =
  let burst = 12 * ms in
  let _, k = boot ~sched:{ Sched.sd_quantum_ns = quantum } ~seed:4 () in
  let finish = run_bursts k [ ("heavy", 3, burst); ("light", 1, burst) ] in
  Alcotest.(check bool)
    (Printf.sprintf "heavy (%d) finishes before light (%d)" finish.(0) finish.(1))
    true
    (finish.(0) < finish.(1));
  let s = the_sched k in
  Alcotest.(check int) "all granted ns accounted" (2 * burst) (Sched.granted_ns s)

(* ---- late arrival ------------------------------------------------------ *)

(* A 1 ms burst arriving in the middle of two long contending bursts
   completes within a few quanta of its arrival instead of waiting the
   incumbents out. *)
let test_late_arrival () =
  let _, k = boot ~sched:{ Sched.sd_quantum_ns = quantum } ~seed:5 () in
  let late_done = ref 0 in
  for i = 0 to 1 do
    Kernel.spawn k ~name:(Printf.sprintf "incumbent%d" i) (fun env ->
        Engine.delay 1_000;
        Kernel.compute env ~ns:(10 * ms))
  done;
  Kernel.spawn k ~name:"late" ~at:(5 * ms) (fun env ->
      Kernel.compute env ~ns:(1 * ms);
      late_done := Engine.now (Kernel.engine k));
  Kernel.run k;
  Alcotest.(check bool)
    (Printf.sprintf "late burst done at %d, not after the incumbents" !late_done)
    true
    (!late_done <= (5 * ms) + (6 * quantum))

(* ---- exactness: per-pid grants sum to the CPU's busy time -------------- *)

(* Random fleets of computing processes (staggered starts, mixed weights
   and burst counts): the scheduler's grant total must equal the CPU
   resource's busy time to the nanosecond, and the per-pid cells must
   sum to the total — no unattributed slice either way. *)
let prop_grants_exact =
  QCheck2.Test.make ~name:"per-pid grants sum to CPU busy-ns" ~count:30
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Gray_util.Rng.create ~seed:(0x5C4D + seed) in
      let _, k = boot ~sched:{ Sched.sd_quantum_ns = quantum } ~seed () in
      let procs = 1 + Gray_util.Rng.int rng 6 in
      for p = 0 to procs - 1 do
        let weight = 1 + Gray_util.Rng.int rng 3 in
        let bursts = 1 + Gray_util.Rng.int rng 4 in
        Kernel.spawn k
          ~name:(Printf.sprintf "p%d" p)
          ~weight
          ~at:(Gray_util.Rng.int rng (3 * ms))
          (fun env ->
            for _ = 1 to bursts do
              Kernel.compute env ~ns:(1 + Gray_util.Rng.int rng (5 * ms));
              Engine.delay (Gray_util.Rng.int rng ms)
            done)
      done;
      Kernel.run k;
      let s = the_sched k in
      let total = Sched.granted_ns s in
      let busy = Kernel.cpu_busy_ns k in
      if total <> busy then
        QCheck2.Test.fail_reportf "granted %d <> cpu busy %d" total busy;
      let per_pid = ref 0 in
      for pid = 0 to procs + 8 do
        per_pid := !per_pid + Sched.granted_of s ~pid
      done;
      if !per_pid <> total then
        QCheck2.Test.fail_reportf "per-pid sum %d <> granted %d" !per_pid total;
      true)

(* ---- restart audit ----------------------------------------------------- *)

let test_restart_resets () =
  let _, k = boot ~sched:Sched.default_config ~seed:6 () in
  ignore (run_bursts k [ ("a", 1, 5 * ms); ("b", 1, 5 * ms) ]);
  let s = the_sched k in
  Alcotest.(check bool) "slices granted" true (Sched.slices s > 0);
  Kernel.restart k;
  Alcotest.(check int) "no slices after restart" 0 (Sched.slices s);
  Alcotest.(check int) "no grants after restart" 0 (Sched.granted_ns s);
  Alcotest.(check int) "no participants after restart" 0 (Sched.participants s);
  ignore (run_bursts k [ ("c", 1, 2 * ms); ("d", 1, 2 * ms) ]);
  Alcotest.(check bool) "rebooted queue grants again" true (Sched.slices s > 0);
  Alcotest.(check int) "rebooted grants exact" (4 * ms) (Sched.granted_ns s)

let suite =
  [
    Alcotest.test_case "starvation bound vs FCFS" `Quick test_starvation_bound;
    Alcotest.test_case "weighted shares" `Quick test_weights;
    Alcotest.test_case "late arrival bound" `Quick test_late_arrival;
    QCheck_alcotest.to_alcotest prop_grants_exact;
    Alcotest.test_case "restart resets the run queue" `Quick test_restart_resets;
  ]

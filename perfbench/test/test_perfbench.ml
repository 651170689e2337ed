(* Self-tests of the benchmark: its drivers issue what the shipped apps
   issue, the traced wrapper only observes, and the seed reaches the
   simulation. *)

open Simos
open Graybox_core
open Perfbench

(* The benchmark runs with no fault, crash or drift plane unless a
   workload passes one, and its runner refuses to start while a
   GRAYBOX_* variable is set.  CI runs the test suites under
   GRAYBOX_FAULTS=canonical; clearing the plane variables here tests the
   configuration the benchmark actually measures. *)
let () = List.iter (fun v -> Unix.putenv v "") [ "GRAYBOX_FAULTS"; "GRAYBOX_CRASH"; "GRAYBOX_DRIFT" ]

let mib = 1024 * 1024
let default_seed = 1

(* A seed never used while the benchmark was written. *)
let held_out_seed = 20011021

(* 32 MB usable against 64 MB of files, so rounds leave a partial cache
   for FCCD to find. *)
let small_platform = Platform.with_memory_mib Platform.linux_2_2 98

let boot ?crash () =
  Kernel.boot ~engine:(Engine.create ()) ~platform:small_platform ~data_disks:1 ?crash
    ~account:true ~flight:true ~seed:7 ()

let in_proc k body =
  let result = ref None in
  Kernel.spawn k (fun env -> result := Some (body env));
  Kernel.run k;
  Option.get !result

let fccd i =
  { (Fccd.default_config ~seed:(100 + i) ()) with Fccd.access_unit = 2 * mib; prediction_unit = mib }

let populate env =
  Gray_apps.Workload.make_files env ~dir:"/d0/texts" ~prefix:"t" ~count:16 ~size:(4 * mib)

(* ---- grep ---- *)

module Plain = Drivers.Make (Os_sim)
module Traced = Drivers.Make (Timed.Make (Os_sim))

let variant i = if i mod 2 = 1 then Some (fccd i) else None

let driver_rounds (round : Kernel.env -> fccd:Fccd.config option -> paths:string list -> 'r)
    project =
  let k = boot () in
  in_proc k (fun env ->
      let paths = populate env in
      List.init 6 (fun i -> project (round env ~fccd:(variant i) ~paths)))

let grep_matches_app () =
  let ours =
    driver_rounds Plain.grep_round (fun r -> (r.Plain.g_order, r.Plain.g_ns, r.Plain.g_failed))
  in
  let app =
    let k = boot () in
    in_proc k (fun env ->
        let paths = populate env in
        List.init 6 (fun i ->
            let order = ref [] in
            let matches p = order := p :: !order; 1 in
            let app_variant, config =
              match variant i with
              | Some c -> (Gray_apps.Grep.Gray, c)
              | None -> (Gray_apps.Grep.Unmodified, fccd i)
            in
            let _, ns = Gray_apps.Grep.run env config app_variant ~paths ~matches in
            (List.rev !order, ns, 0)))
  in
  Alcotest.(check (list (triple (list string) int int))) "orders and times" app ours;
  let gray_orders = List.filteri (fun i _ -> i mod 2 = 1) ours in
  Alcotest.(check bool)
    "FCCD reorders the files" true
    (List.exists (fun (o, _, _) -> o <> List.sort compare o) gray_orders)

let timed_only_observes () =
  let plain =
    driver_rounds Plain.grep_round (fun r -> (r.Plain.g_order, r.Plain.g_ns, r.Plain.g_failed))
  in
  Spans.reset_counts ();
  Spans.enabled := true;
  let traced =
    Fun.protect
      ~finally:(fun () -> Spans.enabled := false)
      (fun () ->
        driver_rounds Traced.grep_round (fun r ->
            (r.Traced.g_order, r.Traced.g_ns, r.Traced.g_failed)))
  in
  Alcotest.(check (list (triple (list string) int int))) "same rounds" plain traced;
  Alcotest.(check int)
    "every FCCD probe is a traced read" (3 * 16 * 4)
    (Spans.child_calls "fccd.order_files" "read");
  Alcotest.(check bool) "syscall spans recorded" true
    (Spans.call_count.(Spans.call_index "read") > 0)

(* An FCCD error fails the whole round, which is then scanned in argument
   order, and does not end the workload. *)
let failed_ordering_fails_round () =
  let k = boot () in
  let paths, r =
    in_proc k (fun env ->
        let paths = populate env @ [ "/d0/texts/missing" ] in
        (paths, Plain.grep_round env ~fccd:(Some (fccd 1)) ~paths))
  in
  Alcotest.(check (list string)) "argument order" paths r.Plain.g_order;
  Alcotest.(check int) "every file failed" (List.length paths) r.Plain.g_failed

(* ---- layout ---- *)

(* The Figure 6 loop over the flat [Fldc] and [Workload] APIs. *)
let flat_aging env k rng ~dir ~epochs ~refresh_at =
  let timed_read order =
    Kernel.flush_file_cache k;
    let t0 = Kernel.gettime env in
    List.iter (fun p -> Gray_apps.Workload.read_file env p) order;
    Kernel.gettime env - t0
  in
  List.init (epochs + 1) (fun epoch ->
      if epoch > 0 then begin
        if epoch = refresh_at then
          Gray_apps.Workload.ok_exn (Fldc.refresh_directory env ~dir ());
        Gray_apps.Workload.age_directory env rng ~dir ~deletes:5 ~creates:5 ~size:8192
      end;
      let paths = Gray_apps.Workload.paths_in env ~dir in
      let arr = Array.of_list paths in
      Gray_util.Rng.shuffle rng arr;
      let random_ns = timed_read (Array.to_list arr) in
      let order =
        List.map
          (fun s -> s.Fldc.so_path)
          (Gray_apps.Workload.ok_exn (Fldc.order_by_inumber env ~paths))
      in
      (random_ns, timed_read order, order))

let layout_matches_flat_fldc () =
  let run body =
    let k = boot ~crash:Crash.durable () in
    in_proc k (fun env ->
        ignore
          (Gray_apps.Workload.make_files env ~dir:"/d0/aged" ~prefix:"f" ~count:20 ~size:8192);
        body env k (Gray_util.Rng.create ~seed:5))
  in
  let flat = run (fun env k rng -> flat_aging env k rng ~dir:"/d0/aged" ~epochs:6 ~refresh_at:4) in
  let ours =
    run (fun env k rng ->
        let acc = ref [] in
        Plain.age_directory env rng
          ~flush:(fun () -> Kernel.flush_file_cache k)
          ~dir:"/d0/aged" ~epochs:6 ~refresh_at:4 ~file_bytes:8192
          ~on_epoch:(fun _ e ->
            let e = Option.get e in
            acc := (e.Plain.e_random_ns, e.Plain.e_ino_ns, e.Plain.e_ino_order) :: !acc);
        List.rev !acc)
  in
  Alcotest.(check (list (triple int int (list string)))) "epochs" flat ours

(* ---- workloads ---- *)

let digest name ~mode ~seed = ((Workloads.setup name ~mode ~seed).Workloads.measured ()).digest

let seed_reaches_inputs name () =
  let a = digest name ~mode:Workloads.Plain ~seed:default_seed in
  Alcotest.(check string) "repeatable" a (digest name ~mode:Workloads.Plain ~seed:default_seed);
  Alcotest.(check bool)
    "held-out seed differs" true
    (a <> digest name ~mode:Workloads.Plain ~seed:held_out_seed)

let traced_reproduces_untraced () =
  let plain = Workloads.setup "layout" ~mode:Workloads.Plain ~seed:default_seed in
  let r = plain.measured () in
  Spans.reset_counts ();
  Spans.enabled := true;
  let traced =
    Fun.protect
      ~finally:(fun () -> Spans.enabled := false)
      (fun () -> (Workloads.setup "layout" ~mode:Workloads.Traced ~seed:default_seed).measured ())
  in
  Alcotest.(check string) "digest" r.digest traced.digest;
  Alcotest.(check int) "no failures" 0 (r.failed + traced.failed);
  Alcotest.(check bool) "fldc spans" true (Spans.self_ns "fldc.order_by_inumber" > 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "drivers",
        [
          Alcotest.test_case "grep matches Gray_apps.Grep.run" `Quick grep_matches_app;
          Alcotest.test_case "Timed only observes" `Quick timed_only_observes;
          Alcotest.test_case "failed FCCD ordering fails the round" `Quick
            failed_ordering_fails_round;
          Alcotest.test_case "layout matches the flat Fldc" `Quick layout_matches_flat_fldc;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "layout seed reaches the inputs" `Quick (seed_reaches_inputs "layout");
          Alcotest.test_case "fleet seed reaches the inputs" `Quick (seed_reaches_inputs "fleet");
          Alcotest.test_case "traced layout reproduces the digest" `Quick
            traced_reproduces_untraced;
        ] );
    ]

(* The comparators: SLEDs (kernel-assisted baseline), interposition-based
   inference (the paper's future work), and vmstat-based MAC detection. *)

open Simos
open Graybox_core

let mib = 1024 * 1024

let tiny_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.0

let run_proc body =
  let engine = Engine.create () in
  let k = Ambient.boot ~engine ~platform:tiny_linux ~data_disks:2 ~seed:303 () in
  let result = ref None in
  Kernel.spawn k (fun env -> result := Some (body env));
  Kernel.run k;
  (k, Option.get !result)

let ok = Gray_apps.Workload.ok_exn

let small_config seed =
  let c = Fccd.default_config ~seed () in
  { c with Fccd.access_unit = 4 * mib; prediction_unit = 1 * mib }

(* ---- SLEDs ---- *)

let test_sleds_latency_reflects_cache () =
  let k, () =
    run_proc (fun env ->
        Gray_apps.Workload.write_file env "/d0/f" (16 * mib);
        Kernel.flush_file_cache (Kernel.kernel_of_env env);
        (* warm the first half *)
        let fd = ok (Kernel.open_file env "/d0/f") in
        ignore (ok (Kernel.read env fd ~off:0 ~len:(8 * mib)));
        Kernel.close env fd)
  in
  let estimates =
    match Sleds.estimate_file k ~path:"/d0/f" ~granularity:(4 * mib) with
    | Ok e -> e
    | Error _ -> Alcotest.fail "estimate"
  in
  Alcotest.(check int) "four sections" 4 (List.length estimates);
  let lat off = (List.find (fun e -> e.Sleds.sl_off = off) estimates).Sleds.sl_latency_ns in
  Alcotest.(check bool) "cached cheap" true (lat 0 < lat (8 * mib) / 5);
  Alcotest.(check bool) "cached cheap 2" true (lat (4 * mib) < lat (12 * mib) / 5)

let test_sleds_best_order () =
  let k, () =
    run_proc (fun env ->
        Gray_apps.Workload.write_file env "/d0/f" (16 * mib);
        Kernel.flush_file_cache (Kernel.kernel_of_env env);
        let fd = ok (Kernel.open_file env "/d0/f") in
        ignore (ok (Kernel.read env fd ~off:(8 * mib) ~len:(8 * mib)));
        Kernel.close env fd)
  in
  match Sleds.best_order k ~path:"/d0/f" ~granularity:(4 * mib) with
  | Error _ -> Alcotest.fail "order"
  | Ok (first :: second :: _) ->
    Alcotest.(check bool) "cached tail first" true
      (first.Sleds.sl_off >= 8 * mib && second.Sleds.sl_off >= 8 * mib)
  | Ok _ -> Alcotest.fail "too few sections"

let test_fccd_agrees_with_sleds () =
  (* the paper's claim quantified: the gray-box plan should match the
     kernel-assisted ordering *)
  let k, plan =
    run_proc (fun env ->
        let kk = Kernel.kernel_of_env env in
        Gray_apps.Workload.write_file env "/d0/f" (32 * mib);
        Kernel.flush_file_cache kk;
        let fd = ok (Kernel.open_file env "/d0/f") in
        ignore (ok (Kernel.read env fd ~off:0 ~len:(8 * mib)));
        ignore (ok (Kernel.read env fd ~off:(20 * mib) ~len:(8 * mib)));
        Kernel.close env fd;
        ok (Fccd.probe_file env (small_config 1) ~path:"/d0/f"))
  in
  match Sleds.best_order k ~path:"/d0/f" ~granularity:(4 * mib) with
  | Error _ -> Alcotest.fail "sleds"
  | Ok sleds ->
    let rho = Sleds.agreement sleds plan.Fccd.plan_extents in
    Alcotest.(check bool)
      (Printf.sprintf "rank correlation %.2f" rho)
      true (rho > 0.7)

(* ---- interposition ---- *)

let test_interpose_tracks_own_accesses () =
  let _, (predicted, truth) =
    run_proc (fun env ->
        let k = Kernel.kernel_of_env env in
        let agent =
          Interpose.create ~assumed_policy:Replacement.clock
            ~assumed_capacity_pages:(Platform.usable_pages tiny_linux) ()
        in
        Gray_apps.Workload.write_file env "/d0/f" (8 * mib);
        Kernel.flush_file_cache k;
        let fd = ok (Kernel.open_file env "/d0/f") in
        ignore (ok (Interpose.read agent env fd ~path:"/d0/f" ~off:0 ~len:(4 * mib)));
        Kernel.close env fd;
        let predicted = Interpose.predicted_fraction agent ~path:"/d0/f" ~pages:2048 in
        (predicted, Introspect.cached_fraction k ~path:"/d0/f"))
  in
  Alcotest.(check (float 0.01)) "agrees with truth" truth predicted;
  Alcotest.(check (float 0.01)) "half cached" 0.5 predicted

let test_interpose_blind_to_others () =
  (* the known limitation: accesses outside the agent are invisible *)
  let _, predicted =
    run_proc (fun env ->
        let k = Kernel.kernel_of_env env in
        let agent =
          Interpose.create ~assumed_policy:Replacement.clock
            ~assumed_capacity_pages:(Platform.usable_pages tiny_linux) ()
        in
        Gray_apps.Workload.write_file env "/d0/f" (4 * mib);
        Kernel.flush_file_cache k;
        (* a direct (un-interposed) read the agent cannot see *)
        Gray_apps.Workload.read_file env "/d0/f";
        Interpose.predicted_fraction agent ~path:"/d0/f" ~pages:1024)
  in
  Alcotest.(check (float 0.01)) "agent saw nothing" 0.0 predicted

let test_interpose_order_files () =
  let _, order =
    run_proc (fun env ->
        let agent =
          Interpose.create ~assumed_policy:Replacement.clock
            ~assumed_capacity_pages:1024 ()
        in
        List.iter
          (fun name -> Gray_apps.Workload.write_file env ("/d0/" ^ name) (2 * mib))
          [ "a"; "b"; "c" ];
        (* the agent observes reads of b only *)
        let fd = ok (Kernel.open_file env "/d0/b") in
        ignore (ok (Interpose.read agent env fd ~path:"/d0/b" ~off:0 ~len:(2 * mib)));
        Kernel.close env fd;
        Interpose.order_files agent
          ~paths:[ ("/d0/a", 2 * mib); ("/d0/b", 2 * mib); ("/d0/c", 2 * mib) ])
  in
  Alcotest.(check string) "b first" "/d0/b" (List.hd order)

let test_interpose_unlink_coherence () =
  let _, predicted =
    run_proc (fun env ->
        let agent =
          Interpose.create ~assumed_policy:Replacement.clock ~assumed_capacity_pages:1024
            ()
        in
        Gray_apps.Workload.write_file env "/d0/f" (1 * mib);
        let fd = ok (Kernel.open_file env "/d0/f") in
        ignore (ok (Interpose.read agent env fd ~path:"/d0/f" ~off:0 ~len:(1 * mib)));
        Kernel.close env fd;
        Interpose.note_unlink agent ~path:"/d0/f";
        Interpose.predicted_fraction agent ~path:"/d0/f" ~pages:256)
  in
  Alcotest.(check (float 0.001)) "shadow dropped" 0.0 predicted

(* ---- vmstat detection ---- *)

let test_vmstat_counters_move () =
  let _, (before, after) =
    run_proc (fun env ->
        let before = Kernel.vmstat env in
        let pages = 80 * mib / 4096 in
        let r = Kernel.valloc env ~pages in
        ignore (Kernel.touch_pages env r ~first:0 ~count:pages);
        ignore (Kernel.touch_pages env r ~first:0 ~count:pages);
        let after = Kernel.vmstat env in
        Kernel.vfree env r;
        (before, after))
  in
  Alcotest.(check int) "clean start" 0 before.Kernel.vm_page_outs;
  Alcotest.(check bool) "page-outs visible" true
    (after.Kernel.vm_page_outs > 0);
  Alcotest.(check bool) "page-ins visible" true (after.Kernel.vm_page_ins > 0)

let test_mac_vmstat_detector () =
  let _, granted =
    run_proc (fun env ->
        let config =
          {
            (Mac.default_config ()) with
            Mac.initial_increment = 2 * mib;
            max_increment = 8 * mib;
            detection = Mac.Vmstat;
          }
        in
        (* request more than the machine has: vmstat detection must stop
           the climb like timing does *)
        match Mac.gb_alloc env config ~min:(8 * mib) ~max:(96 * mib) ~multiple:100 with
        | None -> 0
        | Some a ->
          let b = Mac.bytes a in
          Mac.gb_free env a;
          b)
  in
  Alcotest.(check bool)
    (Printf.sprintf "granted %d MB within the machine" (granted / mib))
    true
    (granted > 8 * mib && granted < 64 * mib)

let suite =
  [
    Alcotest.test_case "sleds latency reflects cache" `Quick test_sleds_latency_reflects_cache;
    Alcotest.test_case "sleds best order" `Quick test_sleds_best_order;
    Alcotest.test_case "fccd agrees with sleds" `Quick test_fccd_agrees_with_sleds;
    Alcotest.test_case "interpose tracks own accesses" `Quick
      test_interpose_tracks_own_accesses;
    Alcotest.test_case "interpose blind to others" `Quick test_interpose_blind_to_others;
    Alcotest.test_case "interpose order files" `Quick test_interpose_order_files;
    Alcotest.test_case "interpose unlink coherence" `Quick test_interpose_unlink_coherence;
    Alcotest.test_case "vmstat counters move" `Quick test_vmstat_counters_move;
    Alcotest.test_case "mac vmstat detector" `Quick test_mac_vmstat_detector;
  ]

(* Drift plane: install-time validation, strict scenario parsing, the
   quiet-scenario byte-identity contract, each mutation kind's observable
   runtime effect, stats accounting and determinism under drift. *)

open Simos
open Graybox_core

let mib = 1024 * 1024
let sec = 1_000_000_000
let ms = 1_000_000

let tiny_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.0

(* 16 MiB usable = 4096 pages: small enough that a modest workload fills
   the file cache, so resizes and pressure regimes visibly bite. *)
let cramped_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 24; kernel_reserved_mib = 8 }
    ~sigma:0.0

let boot ?drift ?(platform = tiny_linux) ?(seed = 11) () =
  let engine = Engine.create () in
  let k = Kernel.boot ~engine ~platform ~data_disks:1 ~seed ?drift () in
  Kernel.start_drift_daemon k;
  (engine, k)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Kernel.error_to_string e)

let scenario ?(name = "test") ?(seed = 3) ?(retouch = 50 * ms) ~horizon events =
  {
    Drift.dr_name = name;
    dr_seed = seed;
    dr_retouch_ns = retouch;
    dr_horizon_ns = horizon;
    dr_events =
      List.map (fun (at, kind) -> { Drift.dv_at_ns = at; dv_kind = kind }) events;
  }

let plane k =
  match Kernel.drift_plane k with
  | Some d -> d
  | None -> Alcotest.fail "expected a drift plane"

let mentions needle msg =
  let nl = String.length needle and ml = String.length msg in
  let rec at i = i + nl <= ml && (String.sub msg i nl = needle || at (i + 1)) in
  at 0

(* ---- install-time validation ---- *)

let test_validation_rejects () =
  let rejects label sc expected_field =
    match Drift.create sc with
    | _ -> Alcotest.failf "%s: accepted a malformed scenario" label
    | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names %s (got %S)" label expected_field msg)
        true
        (mentions expected_field msg)
  in
  rejects "zero resize factor"
    (scenario ~horizon:(2 * sec) [ (sec, Drift.Cache_resize 0.0) ])
    "dr_events[0].Cache_resize";
  rejects "unknown policy"
    (scenario ~horizon:(2 * sec) [ (sec, Drift.Policy_swap "random") ])
    "dr_events[0].Policy_swap";
  rejects "timer factor 0"
    (scenario ~horizon:(2 * sec) [ (sec, Drift.Timer_scale 0) ])
    "dr_events[0].Timer_scale";
  rejects "pressure above 1"
    (scenario ~horizon:(2 * sec) [ (sec, Drift.Pressure_level 1.5) ])
    "dr_events[0].Pressure_level";
  rejects "non-increasing times"
    (scenario ~horizon:(4 * sec)
       [ (2 * sec, Drift.Timer_scale 2); (sec, Drift.Timer_scale 1) ])
    "dr_events[1].dv_at_ns";
  rejects "event past horizon"
    (scenario ~horizon:sec [ (2 * sec, Drift.Timer_scale 2) ])
    "dr_events[0].dv_at_ns";
  rejects "zero retouch period"
    (scenario ~retouch:0 ~horizon:(2 * sec) [ (sec, Drift.Timer_scale 2) ])
    "dr_retouch_ns";
  rejects "negative horizon" (scenario ~horizon:(-1) []) "dr_horizon_ns";
  (* the presets themselves must stay installable *)
  List.iter
    (fun sc -> ignore (Drift.create sc))
    [ Drift.quiet; Drift.canonical; Drift.heavy ]

let test_of_string_strict () =
  List.iter
    (fun s ->
      match Drift.of_string s with
      | None -> ()
      | Some sc -> Alcotest.failf "%S parsed to %s" s sc.Drift.dr_name)
    [ ""; "none"; " NONE " ];
  List.iter
    (fun (s, expected) ->
      match Drift.of_string s with
      | Some sc -> Alcotest.(check string) s expected sc.Drift.dr_name
      | None -> Alcotest.failf "%S parsed to None" s)
    [
      ("quiet", "quiet");
      ("canonical", "canonical");
      (" Canonical ", "canonical");
      ("HEAVY", "heavy");
    ];
  (match Drift.of_string "bogus" with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "error names the variable" true (mentions "GRAYBOX_DRIFT" msg)
  | _ -> Alcotest.fail "bogus value accepted")

(* ---- the off switch is free ---- *)

(* Same contract as the fault and crash planes: booting with the
   event-free [quiet] scenario — plane installed, daemon a no-op — must
   reproduce the no-plane run bit for bit. *)
let fingerprint ?drift () =
  let engine, k = boot ?drift () in
  let out = ref None in
  Kernel.spawn k (fun env ->
      let paths =
        Gray_apps.Workload.make_files env ~dir:"/d0/data" ~prefix:"f" ~count:4
          ~size:(2 * mib)
      in
      Kernel.flush_file_cache k;
      Gray_apps.Workload.read_file env (List.hd paths);
      let config =
        {
          (Fccd.default_config ~seed:5 ()) with
          Fccd.access_unit = 1 * mib;
          prediction_unit = 256 * 1024;
        }
      in
      let ranked = ok (Fccd.order_files env config ~paths) in
      out := Some (List.map (fun r -> (r.Fccd.fr_path, r.Fccd.fr_probe_ns)) ranked));
  Kernel.run k;
  (Engine.now engine, Kernel.counters k, !out)

let test_quiet_scenario_bit_identical () =
  Alcotest.(check bool)
    "fingerprints equal" true
    (fingerprint () = fingerprint ~drift:Drift.quiet ())

(* ---- runtime effects, one kind at a time ---- *)

let wait_until env ts =
  let now = Kernel.gettime env in
  if now < ts then Engine.delay (ts - now)

let test_cache_resize () =
  let sc =
    scenario ~horizon:(3 * sec)
      [ (sec, Drift.Cache_resize 0.5); (2 * sec, Drift.Cache_resize 2.0) ]
  in
  let _, k = boot ~drift:sc ~platform:cramped_linux () in
  Kernel.spawn k (fun env ->
      (* fill the 4096-page cache so the shrink has victims to push out *)
      ignore
        (Gray_apps.Workload.make_files env ~dir:"/d0/data" ~prefix:"f" ~count:8
           ~size:(2 * mib));
      let cap_before = Introspect.file_cache_capacity_pages k in
      let resident_before = Introspect.resident_file_pages k in
      Alcotest.(check bool) "cache filled" true (resident_before >= cap_before / 2);
      wait_until env (sec + (500 * ms));
      let cap_mid = Introspect.file_cache_capacity_pages k in
      Alcotest.(check int) "halved" (cap_before / 2) cap_mid;
      Alcotest.(check bool) "shrink evicted residents" true
        (Introspect.resident_file_pages k <= cap_mid);
      wait_until env (2 * sec + (500 * ms));
      Alcotest.(check int) "doubled back" cap_before
        (Introspect.file_cache_capacity_pages k));
  Kernel.run k;
  let st = Drift.stats (plane k) in
  Alcotest.(check int) "two events applied" 2 st.Drift.d_events;
  Alcotest.(check int) "both were resizes" 2 st.Drift.d_resizes;
  Alcotest.(check bool) "evictions counted" true (st.Drift.d_evictions > 0)

let test_policy_swap () =
  let sc = scenario ~horizon:(2 * sec) [ (sec, Drift.Policy_swap "fifo") ] in
  let _, k = boot ~drift:sc ~platform:cramped_linux () in
  let pool () = Memory.file_pool (Kernel.memory k) in
  Kernel.spawn k (fun env ->
      ignore
        (Gray_apps.Workload.make_files env ~dir:"/d0/data" ~prefix:"f" ~count:2
           ~size:(2 * mib));
      let resident_before = Pool.resident (pool ()) in
      Alcotest.(check string) "boot policy" "clock" (Pool.policy_name (pool ()));
      wait_until env (sec + (500 * ms));
      Alcotest.(check string) "swapped" "fifo" (Pool.policy_name (pool ()));
      (* the swap replaces the recency structure, not the contents *)
      Alcotest.(check int) "residents carried over" resident_before
        (Pool.resident (pool ())));
  Kernel.run k;
  Alcotest.(check int) "one swap" 1 (Drift.stats (plane k)).Drift.d_swaps

let test_timer_scale () =
  let sc =
    scenario ~horizon:(3 * sec)
      [ (sec, Drift.Timer_scale 50); (2 * sec, Drift.Timer_scale 1) ]
  in
  let _, k = boot ~drift:sc () in
  Kernel.spawn k (fun env ->
      wait_until env (500 * ms);
      let a = Kernel.gettime env in
      Engine.delay 100;
      Alcotest.(check bool) "fine clock advances" true (Kernel.gettime env > a);
      wait_until env (sec + (500 * ms));
      Alcotest.(check int) "drift plane factor" 50 (Drift.timer_factor (plane k));
      (* 100 ns platform clock coarsened x50: reads quantise to 5 us *)
      let b = Kernel.gettime env in
      Alcotest.(check int) "coarse quantisation" 0 (b mod 5_000);
      Engine.delay 100;
      Alcotest.(check int) "sub-jiffy delay invisible" b (Kernel.gettime env);
      wait_until env (2 * sec + (500 * ms));
      let c = Kernel.gettime env in
      Engine.delay 100;
      Alcotest.(check bool) "restored clock advances" true (Kernel.gettime env > c));
  Kernel.run k;
  Alcotest.(check int) "two timer changes" 2
    (Drift.stats (plane k)).Drift.d_timer_changes

let test_pressure_regime () =
  let sc =
    scenario ~horizon:(3 * sec)
      [ (sec, Drift.Pressure_level 0.25); (2 * sec, Drift.Pressure_level 0.0) ]
  in
  let _, k = boot ~drift:sc ~platform:cramped_linux () in
  let usable = Platform.usable_pages cramped_linux in
  Kernel.spawn k (fun env ->
      Alcotest.(check int) "no anon at boot" 0 (Memory.resident_anon (Kernel.memory k));
      wait_until env (sec + (500 * ms));
      Alcotest.(check int) "regime holds a quarter of usable" (usable / 4)
        (Memory.resident_anon (Kernel.memory k));
      wait_until env (2 * sec + (500 * ms));
      Alcotest.(check int) "regime released" 0 (Memory.resident_anon (Kernel.memory k)));
  Kernel.run k;
  Alcotest.(check int) "two pressure shifts" 2
    (Drift.stats (plane k)).Drift.d_pressure_shifts

let test_stop_drift () =
  let sc = scenario ~horizon:(2 * sec) [ (sec, Drift.Timer_scale 50) ] in
  let _, k = boot ~drift:sc () in
  Kernel.spawn k (fun _env -> Kernel.stop_drift k);
  Kernel.run k;
  Alcotest.(check bool) "plane stopped" true (Drift.stopped (plane k));
  Alcotest.(check int) "nothing applied" 0 (Drift.stats (plane k)).Drift.d_events;
  Alcotest.(check int) "clock untouched" 1 (Drift.timer_factor (plane k))

(* ---- determinism ---- *)

(* A drifting run is exactly as reproducible as a benign one: same seed,
   same scenario, same virtual end time and counters. *)
let test_deterministic_under_drift () =
  let run () =
    let sc =
      scenario ~horizon:(4 * sec)
        [
          (sec, Drift.Cache_resize 0.5);
          (2 * sec, Drift.Policy_swap "fifo");
          (3 * sec, Drift.Pressure_level 0.3);
        ]
    in
    let engine, k = boot ~drift:sc ~platform:cramped_linux ~seed:21 () in
    Kernel.spawn k (fun env ->
        let paths =
          Gray_apps.Workload.make_files env ~dir:"/d0/data" ~prefix:"f" ~count:6
            ~size:(2 * mib)
        in
        let rec pass n =
          if Kernel.gettime env < 3 * sec + (500 * ms) then begin
            List.iter (Gray_apps.Workload.read_file env) paths;
            Engine.delay (300 * ms);
            pass (n + 1)
          end
        in
        pass 0);
    Kernel.run k;
    (Engine.now engine, Kernel.counters k, Drift.stats (plane k))
  in
  Alcotest.(check bool) "two runs identical" true (run () = run ())

let suite =
  [
    Alcotest.test_case "scenario validation rejects" `Quick test_validation_rejects;
    Alcotest.test_case "of_string strict" `Quick test_of_string_strict;
    Alcotest.test_case "quiet scenario is bit-identical" `Quick
      test_quiet_scenario_bit_identical;
    Alcotest.test_case "cache resize applies" `Quick test_cache_resize;
    Alcotest.test_case "policy swap applies" `Quick test_policy_swap;
    Alcotest.test_case "timer scale applies" `Quick test_timer_scale;
    Alcotest.test_case "pressure regime applies" `Quick test_pressure_regime;
    Alcotest.test_case "stop before first event" `Quick test_stop_drift;
    Alcotest.test_case "deterministic under drift" `Quick
      test_deterministic_under_drift;
  ]

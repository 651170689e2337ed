(* The telemetry plane's contracts: mode parsing, the disabled fast path,
   counter-based sampling, the metrics registry, exporters, and the two
   hard determinism guarantees — identical simulation results with
   telemetry on vs off, and byte-identical exports at -j 1 vs -j 4. *)

open Gray_util

let mode = Alcotest.testable
    (fun ppf m -> Format.pp_print_string ppf (Telemetry.mode_to_string m))
    ( = )

let test_mode_of_string () =
  let ok = Alcotest.(check (result mode string)) in
  ok "off" (Ok Telemetry.Off) (Telemetry.mode_of_string "off");
  ok "none" (Ok Telemetry.Off) (Telemetry.mode_of_string "none");
  ok "empty" (Ok Telemetry.Off) (Telemetry.mode_of_string "");
  ok "full" (Ok Telemetry.Full) (Telemetry.mode_of_string "FULL");
  ok "rate" (Ok (Telemetry.Sample 7)) (Telemetry.mode_of_string " 7 ");
  Alcotest.(check bool) "zero is an error" true
    (Result.is_error (Telemetry.mode_of_string "0"));
  Alcotest.(check bool) "garbage is an error" true
    (Result.is_error (Telemetry.mode_of_string "sometimes"))

let test_of_env () =
  let set v = Unix.putenv "GRAYBOX_TELEMETRY" v in
  let reset () = set "" in
  Fun.protect ~finally:reset (fun () ->
      reset ();
      Alcotest.check mode "empty is off" Telemetry.Off (Telemetry.of_env ());
      set "full";
      Alcotest.check mode "full" Telemetry.Full (Telemetry.of_env ());
      set "5";
      Alcotest.check mode "sample" (Telemetry.Sample 5) (Telemetry.of_env ());
      set "0";
      (* below 1: warns on stderr and stays off, like GRAYBOX_TRIALS *)
      Alcotest.check mode "sub-1 rate warns and is off" Telemetry.Off (Telemetry.of_env ()))

let test_disabled_fast_path () =
  Alcotest.(check bool) "no ambient sink" true (Telemetry.disabled ());
  (* all ambient operations are no-ops that still run the payload *)
  let ran = ref false in
  let v = Telemetry.span "x" (fun () -> ran := true; 17) in
  Alcotest.(check int) "span runs f" 17 v;
  Alcotest.(check bool) "payload ran" true !ran;
  Telemetry.event "x";
  Telemetry.add "x";
  Telemetry.observe "x" 1.0;
  Alcotest.(check bool) "still no sink" true (Telemetry.disabled ())

let test_with_sink_restores () =
  let s = Telemetry.create ~name:"outer" () in
  Telemetry.with_sink s (fun () ->
      Alcotest.(check bool) "enabled inside" true (Telemetry.enabled ());
      (try
         Telemetry.with_sink (Telemetry.create ~name:"inner" ()) (fun () ->
             failwith "boom")
       with Failure _ -> ());
      (* the outer sink is back even after the inner one died *)
      match Telemetry.active () with
      | Some s' -> Alcotest.(check string) "outer restored" "outer" (Telemetry.sink_name s')
      | None -> Alcotest.fail "sink lost");
  Alcotest.(check bool) "disabled outside" true (Telemetry.disabled ())

let test_span_and_metrics () =
  let s = Telemetry.create ~name:"t" () in
  Telemetry.with_sink s (fun () ->
      for _ = 1 to 3 do
        Telemetry.span "a.b.op" (fun () -> ())
      done;
      Telemetry.event "a.b.tick";
      Telemetry.add ~n:4 "a.b.total";
      Telemetry.observe "a.b.conf" 0.5;
      Telemetry.observe "a.b.conf" 1.0);
  Alcotest.(check int) "spans recorded" 3 (Telemetry.span_count s);
  Alcotest.(check int) "events recorded" 1 (Telemetry.event_count s);
  (* every span feeds its auto-metrics *)
  Alcotest.(check int) "calls counter" 3 (Telemetry.counter_value s "a.b.op.calls");
  Alcotest.(check int) "point counter" 1 (Telemetry.counter_value s "a.b.tick.count");
  Alcotest.(check int) "plain counter" 4 (Telemetry.counter_value s "a.b.total");
  Alcotest.(check (list string)) "names seen" [ "a.b.op"; "a.b.tick" ]
    (Telemetry.span_names s)

let test_sampling () =
  let s = Telemetry.create ~mode:(Telemetry.Sample 3) ~name:"t" () in
  Telemetry.with_sink s (fun () ->
      for _ = 1 to 7 do
        Telemetry.span "hot" (fun () -> ())
      done;
      Telemetry.span "rare" (fun () -> ()));
  (* occurrences 1, 4, 7 of "hot" (counter 0, 3, 6) are kept, plus the
     first "rare": sampling is per name and the first of each always
     survives *)
  Alcotest.(check int) "sampled spans" 4 (Telemetry.span_count s);
  (* ...but metrics stay exact *)
  Alcotest.(check int) "exact calls" 7 (Telemetry.counter_value s "hot.calls")

let test_off_sink_counts_metrics () =
  let s = Telemetry.create ~mode:Telemetry.Off ~name:"t" () in
  Telemetry.with_sink s (fun () -> Telemetry.span "op" (fun () -> ()));
  Alcotest.(check int) "no trace entries" 0 (Telemetry.span_count s);
  Alcotest.(check int) "metrics still exact" 1 (Telemetry.counter_value s "op.calls")

let test_kind_clash () =
  let s = Telemetry.create ~name:"t" () in
  Telemetry.with_sink s (fun () ->
      Telemetry.add "m";
      Alcotest.(check bool) "observe on a counter raises" true
        (try
           Telemetry.observe "m" 1.0;
           false
         with Invalid_argument _ -> true))

let test_clock_install () =
  let s = Telemetry.create ~name:"t" () in
  Telemetry.with_sink s (fun () ->
      let t1 = Telemetry.now s in
      let t2 = Telemetry.now s in
      Alcotest.(check bool) "tick fallback is monotonic" true (t2 > t1);
      let restore = Telemetry.install_clock (fun () -> 1234) in
      Alcotest.(check int) "installed clock wins" 1234 (Telemetry.now s);
      restore ();
      Alcotest.(check bool) "tick fallback back" true (Telemetry.now s > t2))

let test_merge_metrics () =
  let mk name base =
    let s = Telemetry.create ~name () in
    Telemetry.with_sink s (fun () ->
        Telemetry.add ~n:base "c";
        Telemetry.observe "d" (float_of_int base);
        Telemetry.observe_hist "h" ~lo:0.0 ~hi:10.0 ~bins:5 (float_of_int base));
    s
  in
  let a = mk "a" 2 and b = mk "b" 3 in
  match Telemetry.merge_metrics_json [ a; b ] with
  | Json.Obj fields ->
    Alcotest.(check (list string)) "sorted metric names" [ "c"; "d"; "h" ]
      (List.map fst fields);
    (match List.assoc "c" fields with
    | Json.Int n -> Alcotest.(check int) "counters sum" 5 n
    | _ -> Alcotest.fail "c not a counter");
    (match List.assoc "d" fields with
    | Json.Obj df -> (
      match (List.assoc "count" df, List.assoc "total" df) with
      | Json.Int n, Json.Float t ->
        Alcotest.(check int) "dist count" 2 n;
        Alcotest.(check (float 1e-9)) "dist total" 5.0 t
      | _ -> Alcotest.fail "dist fields")
    | _ -> Alcotest.fail "d not a dist");
    (match List.assoc "h" fields with
    | Json.Obj hf -> (
      match List.assoc "bins" hf with
      | Json.List bins ->
        Alcotest.(check int) "bin count preserved" 5 (List.length bins)
      | _ -> Alcotest.fail "bins")
    | _ -> Alcotest.fail "h not a hist")
  | _ -> Alcotest.fail "metrics not an object"

let test_chrome_export_shape () =
  let s = Telemetry.create ~name:"task-0" () in
  Telemetry.with_sink s (fun () ->
      Telemetry.span "op" ~attrs:(fun () -> [ ("k", Telemetry.Int 7) ]) (fun () -> ());
      Telemetry.event "tick");
  let evs = Telemetry.chrome_events s ~pid:3 ~tid:4 in
  (* two metadata records naming the task, then the entries in recording
     order *)
  Alcotest.(check int) "event count" 4 (List.length evs);
  let ph e = match e with
    | Json.Obj f -> (match List.assoc "ph" f with Json.String p -> p | _ -> "?")
    | _ -> "?"
  in
  Alcotest.(check (list string)) "phases in order" [ "M"; "M"; "X"; "i" ]
    (List.map ph evs);
  List.iter
    (fun e ->
      match e with
      | Json.Obj f ->
        (match List.assoc "pid" f with
        | Json.Int p -> Alcotest.(check int) "pid" 3 p
        | _ -> Alcotest.fail "pid");
        (match List.assoc "tid" f with
        | Json.Int t -> Alcotest.(check int) "tid" 4 t
        | _ -> Alcotest.fail "tid")
      | _ -> Alcotest.fail "not an object")
    evs;
  match Telemetry.chrome_trace evs with
  | Json.Obj [ ("traceEvents", Json.List l) ] ->
    Alcotest.(check int) "wrapped" 4 (List.length l)
  | _ -> Alcotest.fail "chrome_trace shape"

(* ---- the bench-harness determinism contracts -------------------------- *)

open Gray_bench

let mib = Bench_common.mib

let small_plan () =
  Fig1.plan_sized ~file_bytes:(64 * mib) ~access_units:[ 1 * mib; 4 * mib ]
    ~prediction_units:[ 1 * mib; 2 * mib; 8 * mib ]
    ~trials:2 ()

let exec_with_jobs plan jobs =
  Bench_common.set_planes Ambient.planes;
  let pool = Domain_pool.create ~size:jobs in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () -> Bench_common.execute ~pool [ plan ]);
  plan

let with_telemetry m f =
  Bench_common.set_telemetry_mode m;
  Fun.protect ~finally:(fun () -> Bench_common.set_telemetry_mode Telemetry.Off) f

(* Traced runs must not disturb the simulation: the rendered output (and
   hence every figure) is byte-identical with telemetry full vs off. *)
let test_tracing_does_not_perturb () =
  let off =
    with_telemetry Telemetry.Off (fun () ->
        (exec_with_jobs (small_plan ()) 1).Bench_common.p_render ())
  in
  let on =
    with_telemetry Telemetry.Full (fun () ->
        (exec_with_jobs (small_plan ()) 1).Bench_common.p_render ())
  in
  Alcotest.(check string) "rendered output identical" off.Bench_common.rd_output
    on.Bench_common.rd_output;
  Alcotest.(check bool) "figures identical" true
    (off.Bench_common.rd_figures = on.Bench_common.rd_figures)

(* The trace and metrics exports are byte-identical at any -j: each task
   owns a hermetic sink, and the exporters walk tasks in submission
   order. *)
let test_exports_identical_across_jobs () =
  let export jobs =
    with_telemetry Telemetry.Full (fun () ->
        let plan = exec_with_jobs (small_plan ()) jobs in
        ( Json.to_string (Bench_common.chrome_trace_of [ plan ]),
          Json.to_string
            (Telemetry.merge_metrics_json (Bench_common.plan_sinks plan)) ))
  in
  let trace1, metrics1 = export 1 in
  let trace4, metrics4 = export 4 in
  Alcotest.(check bool) "trace is non-trivial" true (String.length trace1 > 1000);
  Alcotest.(check string) "chrome trace byte-identical at -j 1 vs -j 4" trace1 trace4;
  Alcotest.(check string) "metrics byte-identical at -j 1 vs -j 4" metrics1 metrics4

(* Sampled exports obey the same contract, and sampling keeps at least the
   first occurrence of every name. *)
let test_sampled_exports_identical_across_jobs () =
  let export jobs =
    with_telemetry (Telemetry.Sample 50) (fun () ->
        let plan = exec_with_jobs (small_plan ()) jobs in
        Json.to_string (Bench_common.chrome_trace_of [ plan ]))
  in
  let a = export 1 and b = export 4 in
  Alcotest.(check string) "sampled trace byte-identical" a b

let suite =
  [
    Alcotest.test_case "mode_of_string" `Quick test_mode_of_string;
    Alcotest.test_case "of_env" `Quick test_of_env;
    Alcotest.test_case "disabled fast path" `Quick test_disabled_fast_path;
    Alcotest.test_case "with_sink restores" `Quick test_with_sink_restores;
    Alcotest.test_case "spans + metrics registry" `Quick test_span_and_metrics;
    Alcotest.test_case "counter-based sampling" `Quick test_sampling;
    Alcotest.test_case "off sink still counts metrics" `Quick test_off_sink_counts_metrics;
    Alcotest.test_case "metric kind clash" `Quick test_kind_clash;
    Alcotest.test_case "clock install/restore" `Quick test_clock_install;
    Alcotest.test_case "metrics merge across sinks" `Quick test_merge_metrics;
    Alcotest.test_case "chrome export shape" `Quick test_chrome_export_shape;
    Alcotest.test_case "tracing does not perturb the simulation" `Slow
      test_tracing_does_not_perturb;
    Alcotest.test_case "exports identical at -j 1 and -j 4" `Slow
      test_exports_identical_across_jobs;
    Alcotest.test_case "sampled exports identical at -j 1 and -j 4" `Slow
      test_sampled_exports_identical_across_jobs;
  ]

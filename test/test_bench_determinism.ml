(* The parallel harness's determinism contract: a plan executed on one
   domain and the same plan executed on four must render byte-identical
   output and identical figures and checks. *)

open Gray_bench

let exec_with_jobs plan jobs =
  Bench_common.set_planes Ambient.planes;
  let pool = Gray_util.Domain_pool.create ~size:jobs in
  Fun.protect
    ~finally:(fun () -> Gray_util.Domain_pool.shutdown pool)
    (fun () -> Bench_common.execute ~pool [ plan ]);
  plan.Bench_common.p_render ()

let mib = Bench_common.mib

let small_fig1 () =
  Fig1.plan_sized ~file_bytes:(64 * mib) ~access_units:[ 1 * mib; 4 * mib ]
    ~prediction_units:[ 1 * mib; 2 * mib; 8 * mib ]
    ~trials:3 ()

let check_identical name make_plan =
  let a = exec_with_jobs (make_plan ()) 1 in
  let b = exec_with_jobs (make_plan ()) 4 in
  Alcotest.(check string) (name ^ ": rendered output byte-identical") a.Bench_common.rd_output
    b.Bench_common.rd_output;
  Alcotest.(check int)
    (name ^ ": same figure count")
    (List.length a.Bench_common.rd_figures)
    (List.length b.Bench_common.rd_figures);
  List.iter2
    (fun (fa : Bench_common.figure) (fb : Bench_common.figure) ->
      Alcotest.(check string) (name ^ ": figure name") fa.fg_name fb.fg_name;
      Alcotest.(check bool)
        (Printf.sprintf "%s: figure %s identical" name fa.fg_name)
        true
        (compare fa.fg_value fb.fg_value = 0))
    a.Bench_common.rd_figures b.Bench_common.rd_figures;
  Alcotest.(check bool)
    (name ^ ": checks identical")
    true
    (a.Bench_common.rd_checks = b.Bench_common.rd_checks)

let test_fig1_small () = check_identical "fig1" small_fig1

let test_fig5 () =
  Bench_common.set_trials 2;
  check_identical "fig5" Fig5.plan

let suite =
  [
    Alcotest.test_case "fig1 (small) identical at -j 1 and -j 4" `Slow test_fig1_small;
    Alcotest.test_case "fig5 identical at -j 1 and -j 4" `Slow test_fig5;
  ]

(* Compose (FCCD + FLDC) and the gbp utility logic. *)

open Simos
open Graybox_core

let mib = 1024 * 1024

let tiny_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.0

let run_proc body =
  let engine = Engine.create () in
  let k = Ambient.boot ~engine ~platform:tiny_linux ~data_disks:2 ~seed:99 () in
  let result = ref None in
  Kernel.spawn k (fun env -> result := Some (body env));
  Kernel.run k;
  (k, Option.get !result)

let ok = Gray_apps.Workload.ok_exn

let small_config seed =
  let c = Fccd.default_config ~seed () in
  { c with Fccd.access_unit = 4 * mib; prediction_unit = 1 * mib }

let test_compose_cached_first_then_inumber () =
  let _, d =
    run_proc (fun env ->
        let k = Kernel.kernel_of_env env in
        let paths =
          Gray_apps.Workload.make_files env ~dir:"/d0/set" ~prefix:"f" ~count:8
            ~size:(4 * mib)
        in
        Kernel.flush_file_cache k;
        (* warm two files, deliberately out of creation order *)
        Gray_apps.Workload.read_file env (List.nth paths 5);
        Gray_apps.Workload.read_file env (List.nth paths 2);
        ok (Compose.order_files env (small_config 1) paths))
  in
  Alcotest.(check (list string)) "cached group members"
    [ "/d0/set/f0002"; "/d0/set/f0005" ]
    (List.sort compare d.Compose.d_in_cache);
  (* final order: the two cached files (by i-number), then the rest by
     i-number *)
  Alcotest.(check (list string)) "full order"
    [
      "/d0/set/f0002"; "/d0/set/f0005"; "/d0/set/f0000"; "/d0/set/f0001";
      "/d0/set/f0003"; "/d0/set/f0004"; "/d0/set/f0006"; "/d0/set/f0007";
    ]
    d.Compose.d_order;
  Alcotest.(check bool) "separated" true (d.Compose.d_separation > 4.0)

let test_compose_all_on_disk_degrades_to_inumber () =
  let _, d =
    run_proc (fun env ->
        let k = Kernel.kernel_of_env env in
        let paths =
          Gray_apps.Workload.make_files env ~dir:"/d0/set" ~prefix:"f" ~count:6
            ~size:(4 * mib)
        in
        Kernel.flush_file_cache k;
        ok (Compose.order_files env (small_config 2) paths))
  in
  Alcotest.(check int) "nothing predicted cached" 0 (List.length d.Compose.d_in_cache);
  Alcotest.(check (list string)) "pure i-number order"
    [
      "/d0/set/f0000"; "/d0/set/f0001"; "/d0/set/f0002"; "/d0/set/f0003";
      "/d0/set/f0004"; "/d0/set/f0005";
    ]
    d.Compose.d_order

let test_compose_empty () =
  let _, d = run_proc (fun env -> ok (Compose.order_files env (small_config 3) [])) in
  Alcotest.(check int) "empty" 0 (List.length d.Compose.d_order)

let test_gbp_modes () =
  let _, (mem_order, file_order, compose_order) =
    run_proc (fun env ->
        let k = Kernel.kernel_of_env env in
        let paths =
          Gray_apps.Workload.make_files env ~dir:"/d0/set" ~prefix:"f" ~count:4
            ~size:(2 * mib)
        in
        Kernel.flush_file_cache k;
        Gray_apps.Workload.read_file env (List.nth paths 3);
        let config = small_config 4 in
        let mem = ok (Gbp.best_order env config Gbp.Mem ~paths) in
        let file = ok (Gbp.best_order env config Gbp.File ~paths) in
        let compose = ok (Gbp.best_order env config Gbp.Compose ~paths) in
        (mem, file, compose))
  in
  Alcotest.(check string) "mem puts cached first" "/d0/set/f0003" (List.hd mem_order);
  Alcotest.(check (list string)) "file mode is i-number order"
    [ "/d0/set/f0000"; "/d0/set/f0001"; "/d0/set/f0002"; "/d0/set/f0003" ]
    file_order;
  Alcotest.(check string) "compose puts cached first" "/d0/set/f0003"
    (List.hd compose_order)

let test_gbp_out_delivers_everything () =
  let _, (delivered, extents_seen) =
    run_proc (fun env ->
        Gray_apps.Workload.write_file env "/d0/stream" ((9 * mib) + 321);
        let total = ref 0 and count = ref 0 in
        let n =
          ok
            (Gbp.out env (small_config 5) ~path:"/d0/stream"
               ~consume:(fun ~off:_ ~len ->
                 total := !total + len;
                 incr count))
        in
        Alcotest.(check int) "return matches consumed" !total n;
        (n, !count))
  in
  Alcotest.(check int) "all bytes" ((9 * mib) + 321) delivered;
  Alcotest.(check bool) "chunked" true (extents_seen >= 3)

let test_gbp_mode_parsing () =
  Alcotest.(check bool) "mem" true (Gbp.mode_of_string "mem" = Some Gbp.Mem);
  Alcotest.(check bool) "-file" true (Gbp.mode_of_string "-file" = Some Gbp.File);
  Alcotest.(check bool) "compose" true (Gbp.mode_of_string "compose" = Some Gbp.Compose);
  Alcotest.(check bool) "junk" true (Gbp.mode_of_string "junk" = None);
  List.iter
    (fun m ->
      Alcotest.(check bool) "roundtrip" true
        (Gbp.mode_of_string (Gbp.mode_to_string m) = Some m))
    [ Gbp.Mem; Gbp.File; Gbp.Compose ]

let suite =
  [
    Alcotest.test_case "compose: cached first, then i-number" `Quick
      test_compose_cached_first_then_inumber;
    Alcotest.test_case "compose: all-on-disk degrades" `Quick
      test_compose_all_on_disk_degrades_to_inumber;
    Alcotest.test_case "compose: empty" `Quick test_compose_empty;
    Alcotest.test_case "gbp modes" `Quick test_gbp_modes;
    Alcotest.test_case "gbp -out delivers everything" `Quick
      test_gbp_out_delivers_everything;
    Alcotest.test_case "gbp mode parsing" `Quick test_gbp_mode_parsing;
  ]

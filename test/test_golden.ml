(* Golden seed-stability: pins the *decisions* each ICL makes — FCCD plan
   orderings (with exact probe times), MAC grant sizes, FLDC refresh/i-number
   orders — for 3 fixed seeds x 3 platform presets.  A hot-path refactor
   that silently shifts RNG-draw order, eviction order, or cost arithmetic
   fails these loudly instead of drifting the figures.

   The pinned strings were captured with GRAYBOX_GOLDEN_REGEN=1 (which
   appends the actual strings to /tmp/golden_actual.txt instead of
   checking) on the tree that produced the committed figures. *)

open Simos
open Graybox_core

let mib = 1024 * 1024

(* Scaled-down versions of the three presets (same layout, same policy,
   same default noise sigma) so each case runs in milliseconds. *)
let platforms =
  [
    ( "linux-2.2",
      { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 } );
    ( "netbsd-1.5",
      {
        Platform.netbsd_1_5 with
        Platform.memory_mib = 128;
        kernel_reserved_mib = 32;
        file_cache = `Fixed_mib 48;
      } );
    ( "solaris-7",
      {
        Platform.solaris_7 with
        Platform.memory_mib = 160;
        kernel_reserved_mib = 32;
        file_cache = `Fixed_mib 40;
      } );
  ]

let seeds = [ 11; 23; 47 ]
let ok = Gray_apps.Workload.ok_exn

let run_proc platform seed body =
  let engine = Engine.create () in
  let k = Kernel.boot ~engine ~platform ~data_disks:2 ~seed () in
  let result = ref None in
  Kernel.spawn k (fun env -> result := Some (body env));
  Kernel.run k;
  Option.get !result

let warm_prefix env path bytes =
  let fd = ok (Kernel.open_file env path) in
  ignore (ok (Kernel.read env fd ~off:0 ~len:bytes));
  Kernel.close env fd

(* 60 MB: bigger than the netbsd (48 MB) and solaris (40 MB) scaled file
   caches and it evicts hard against linux's 64 MB balanced pool — each
   platform's replacement behaviour shapes the plan it pins. *)
let fccd_part env seed =
  Gray_apps.Workload.write_file env "/d0/g" ((60 * mib) + 7);
  Kernel.flush_file_cache (Kernel.kernel_of_env env);
  warm_prefix env "/d0/g" (30 * mib);
  let c = Fccd.default_config ~seed () in
  let c = { c with Fccd.access_unit = 4 * mib; prediction_unit = 1 * mib } in
  let plan = ok (Fccd.probe_file env c ~path:"/d0/g") in
  let ext (e, ns) = Printf.sprintf "%d:%d:%d" e.Fccd.ext_off e.Fccd.ext_len ns in
  Printf.sprintf "fccd=[%s];probes=%d;conf=%.6f"
    (String.concat "," (List.map ext plan.Fccd.plan_extents))
    plan.Fccd.plan_probes plan.Fccd.plan_confidence

let mac_part env =
  let c =
    {
      (Mac.default_config ()) with
      Mac.initial_increment = 1 * mib;
      max_increment = 8 * mib;
    }
  in
  match Mac.gb_alloc env c ~min:(2 * mib) ~max:(24 * mib) ~multiple:(1 * mib) with
  | None ->
    let st = Mac.last_stats () in
    Printf.sprintf "mac=none;steps=%d;backoffs=%d" st.Mac.s_steps st.Mac.s_backoffs
  | Some a ->
    let b = Mac.bytes a in
    let st = Mac.last_stats () in
    Mac.gb_free env a;
    Printf.sprintf "mac=%d;steps=%d;backoffs=%d" b st.Mac.s_steps st.Mac.s_backoffs

let fldc_part env =
  ok (Kernel.mkdir env "/d0/dir");
  let paths =
    List.init 12 (fun i ->
        let p = Printf.sprintf "/d0/dir/f%02d" i in
        Gray_apps.Workload.write_file env p (8192 * (1 + (i * 7 mod 5)));
        p)
  in
  let inos ps =
    ok (Fldc.order_by_inumber env ~paths:ps)
    |> List.map (fun s -> string_of_int s.Fldc.so_ino)
    |> String.concat ","
  in
  let pre = inos (List.rev paths) in
  ok (Fldc.refresh_directory env ~dir:"/d0/dir" ());
  let post = inos paths in
  Printf.sprintf "fldc=[%s]->[%s]" pre post

let run_case platform seed =
  run_proc platform seed (fun env ->
      let fccd = fccd_part env seed in
      let mac = mac_part env in
      let fldc = fldc_part env in
      String.concat "|" [ fccd; mac; fldc ])

(* Pinned values: captured with GRAYBOX_GOLDEN_REGEN=1. *)
let golden : ((string * int) * string) list =
  [
    (("linux-2.2", 11), "fccd=[25165824:4194304:7800,20971520:4194304:7800,12582912:4194304:7800,8388608:4194304:8000,0:4194304:8000,16777216:4194304:8100,4194304:4194304:8300,62914560:7:454800,58720256:4194304:14710300,37748736:4194304:14903300,33554432:4194304:14936600,54525952:4194304:15005800,46137344:4194304:15022600,41943040:4194304:15234200,50331648:4194304:16063400,29360128:4194304:150700000];probes=61;conf=0.999483|mac=25165824;steps=6;backoffs=0|fldc=[1025,1026,1027,1028,1029,1030,1031,1032,1033,1034,1035,1036]->[2049,2050,2051,2052,2053,2054,2055,2056,2057,2058,2059,2060]");
    (("linux-2.2", 23), "fccd=[16777216:4194304:7500,8388608:4194304:7600,4194304:4194304:7800,12582912:4194304:8000,20971520:4194304:8100,25165824:4194304:8200,0:4194304:8200,62914560:7:4814900,29360128:4194304:6349000,54525952:4194304:14021100,50331648:4194304:14551200,41943040:4194304:14943500,58720256:4194304:14957600,37748736:4194304:15197800,33554432:4194304:15487400,46137344:4194304:16166600];probes=61;conf=0.999437|mac=25165824;steps=6;backoffs=0|fldc=[1025,1026,1027,1028,1029,1030,1031,1032,1033,1034,1035,1036]->[2049,2050,2051,2052,2053,2054,2055,2056,2057,2058,2059,2060]");
    (("linux-2.2", 47), "fccd=[12582912:4194304:7900,25165824:4194304:8000,20971520:4194304:8200,8388608:4194304:8200,4194304:4194304:8200,16777216:4194304:8300,0:4194304:8300,62914560:7:4078700,29360128:4194304:6391400,58720256:4194304:13671600,50331648:4194304:14618100,33554432:4194304:14906400,41943040:4194304:14919800,54525952:4194304:14957200,46137344:4194304:15241500,37748736:4194304:15496700];probes=61;conf=0.999402|mac=25165824;steps=6;backoffs=0|fldc=[1025,1026,1027,1028,1029,1030,1031,1032,1033,1034,1035,1036]->[2049,2050,2051,2052,2053,2054,2055,2056,2057,2058,2059,2060]");
    (("netbsd-1.5", 11), "fccd=[25165824:4194304:7800,20971520:4194304:7800,12582912:4194304:7800,8388608:4194304:8000,0:4194304:8000,16777216:4194304:8100,4194304:4194304:8300,62914560:7:454800,58720256:4194304:14710300,37748736:4194304:14903300,33554432:4194304:14936600,54525952:4194304:15005700,46137344:4194304:15022600,41943040:4194304:15234200,50331648:4194304:16063500,29360128:4194304:150700000];probes=61;conf=0.999483|mac=25165824;steps=6;backoffs=0|fldc=[1025,1026,1027,1028,1029,1030,1031,1032,1033,1034,1035,1036]->[2049,2050,2051,2052,2053,2054,2055,2056,2057,2058,2059,2060]");
    (("netbsd-1.5", 23), "fccd=[16777216:4194304:7500,8388608:4194304:7600,4194304:4194304:7800,12582912:4194304:8000,20971520:4194304:8100,0:4194304:8200,25165824:4194304:8300,62914560:7:4814900,29360128:4194304:6348900,54525952:4194304:14021000,50331648:4194304:14551200,41943040:4194304:14943400,58720256:4194304:14957600,37748736:4194304:15197900,33554432:4194304:15487400,46137344:4194304:16166700];probes=61;conf=0.999436|mac=25165824;steps=6;backoffs=0|fldc=[1025,1026,1027,1028,1029,1030,1031,1032,1033,1034,1035,1036]->[2049,2050,2051,2052,2053,2054,2055,2056,2057,2058,2059,2060]");
    (("netbsd-1.5", 47), "fccd=[12582912:4194304:8000,25165824:4194304:8100,20971520:4194304:8200,16777216:4194304:8200,8388608:4194304:8200,4194304:4194304:8200,0:4194304:8300,62914560:7:4078600,29360128:4194304:6391300,58720256:4194304:13671700,50331648:4194304:14618000,33554432:4194304:14906500,41943040:4194304:14919800,54525952:4194304:14957200,46137344:4194304:15241600,37748736:4194304:15496600];probes=61;conf=0.999401|mac=25165824;steps=6;backoffs=0|fldc=[1025,1026,1027,1028,1029,1030,1031,1032,1033,1034,1035,1036]->[2049,2050,2051,2052,2053,2054,2055,2056,2057,2058,2059,2060]");
    (("solaris-7", 11), "fccd=[25165824:4194304:7800,20971520:4194304:7800,12582912:4194304:7800,8388608:4194304:7900,16777216:4194304:8100,0:4194304:8100,4194304:4194304:8300,62914560:7:454800,58720256:4194304:14710200,37748736:4194304:14903300,33554432:4194304:14936600,54525952:4194304:15005800,46137344:4194304:15022700,41943040:4194304:15234200,50331648:4194304:16063400,29360128:4194304:150700000];probes=61;conf=0.999483|mac=25165824;steps=6;backoffs=0|fldc=[1025,1026,1027,1028,1029,1030,1031,1032,1033,1034,1035,1036]->[2049,2050,2051,2052,2053,2054,2055,2056,2057,2058,2059,2060]");
    (("solaris-7", 23), "fccd=[8388608:4194304:7500,16777216:4194304:7600,4194304:4194304:7900,20971520:4194304:8000,12582912:4194304:8000,0:4194304:8200,25165824:4194304:8300,62914560:7:4815000,29360128:4194304:6349000,54525952:4194304:14021000,50331648:4194304:14551200,41943040:4194304:14943400,58720256:4194304:14957600,37748736:4194304:15197900,33554432:4194304:15487300,46137344:4194304:16166700];probes=61;conf=0.999436|mac=25165824;steps=6;backoffs=0|fldc=[1025,1026,1027,1028,1029,1030,1031,1032,1033,1034,1035,1036]->[2049,2050,2051,2052,2053,2054,2055,2056,2057,2058,2059,2060]");
    (("solaris-7", 47), "fccd=[12582912:4194304:7900,25165824:4194304:8000,20971520:4194304:8200,8388608:4194304:8200,4194304:4194304:8200,16777216:4194304:8300,0:4194304:8300,62914560:7:4078600,29360128:4194304:6391400,58720256:4194304:13671700,50331648:4194304:14618100,33554432:4194304:14906400,41943040:4194304:14919700,54525952:4194304:14957100,46137344:4194304:15241600,37748736:4194304:15496700];probes=61;conf=0.999402|mac=25165824;steps=6;backoffs=0|fldc=[1025,1026,1027,1028,1029,1030,1031,1032,1033,1034,1035,1036]->[2049,2050,2051,2052,2053,2054,2055,2056,2057,2058,2059,2060]");
  ]

let regen = Sys.getenv_opt "GRAYBOX_GOLDEN_REGEN" <> None

let check_case pname platform seed () =
  let actual = run_case platform seed in
  if regen then begin
    let oc =
      open_out_gen [ Open_append; Open_creat ] 0o644 "/tmp/golden_actual.txt"
    in
    Printf.fprintf oc "((%S, %d), %S);\n" pname seed actual;
    close_out oc
  end
  else
    match List.assoc_opt (pname, seed) golden with
    | None -> Alcotest.fail "no pinned value for this case"
    | Some expected ->
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d" pname seed)
        expected actual

let suite =
  List.concat_map
    (fun (pname, platform) ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "%s/seed-%d" pname seed)
            `Quick
            (check_case pname platform seed))
        seeds)
    platforms

(* Differential test of the kernel's page loops against a per-page
   reference.

   [Kernel.read], [write] and [touch_pages] settle each run of cache hits
   at once and take only missed pages one by one.  [Ref_page_loops]
   walks every page through [Memory.access] instead.  Two identically
   booted kernels replay the same qcheck trace of reads, writes and
   touches — one through the kernel, one through the reference — and
   must agree on everything observable: every touch sample and syscall
   result, the clock after each call, [Kernel.counters], pool and disk
   counters, the ledger export, the flight recorder and the telemetry
   (metrics and per-page points).  Traces mix hit runs with misses,
   partial first and last pages, dirty file and anonymous victims and
   swap-ins; the configurations cover both memory layouts, faults on
   (latency spikes and bursts, injected errors, a coarser timer) and a
   drift timer factor above 1. *)

open Simos
module Tele = Gray_util.Telemetry
module Flight = Gray_util.Flight

let page = 4096
let nfiles = 3
let file_pages = 96
let region_pages = 320

type op =
  | Read of { file : int; off : int; len : int }
  | Write of { file : int; off : int; len : int }
  | Touch of { first : int; count : int }

let pp_op = function
  | Read { file; off; len } -> Printf.sprintf "read(%d,%d,%d)" file off len
  | Write { file; off; len } -> Printf.sprintf "write(%d,%d,%d)" file off len
  | Touch { first; count } -> Printf.sprintf "touch(%d,%d)" first count

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun file off len -> Read { file; off; len })
            (int_bound (nfiles - 1))
            (int_bound (file_pages * page))
            (int_range 1 (40 * page)) );
        ( 1,
          map3
            (fun file off len -> Write { file; off; len })
            (int_bound (nfiles - 1))
            (int_bound ((file_pages + 8) * page))
            (int_range 1 (24 * page)) );
        ( 3,
          map2
            (fun first count -> Touch { first; count = min count (region_pages - first) })
            (int_bound (region_pages - 1))
            (int_range 1 200) );
      ])

(* ---- configurations ---- *)

(* 1 MiB usable: Linux 2.2's balanced unified cache, 256 pages *)
let tiny_linux = { Platform.linux_2_2 with Platform.memory_mib = 17; kernel_reserved_mib = 16 }

(* 2 MiB usable, a fixed 1 MiB file cache: the split layout *)
let tiny_split =
  {
    Platform.netbsd_1_5 with
    Platform.memory_mib = 18;
    kernel_reserved_mib = 16;
    file_cache = `Fixed_mib 1;
  }

let spiky =
  {
    Fault.quiet with
    Fault.sc_name = "page-loops";
    sc_seed = 77;
    sc_error_prob = 0.05;
    sc_error_targets = [ Fault.Read; Fault.Write ];
    sc_burst = Some { Fault.bu_period_ns = 3_000_000; bu_duration_ns = 700_000; bu_extra_ns = 2_500 };
    sc_spike_prob = 0.03;
    sc_spike_ns = 40_000;
    sc_timer_factor = 2;
  }

type config = {
  name : string;
  platform : Platform.t;
  faults : Fault.scenario option;
  drift_factor : int option;
}

let configs =
  [|
    { name = "linux"; platform = tiny_linux; faults = Ambient.faults; drift_factor = None };
    {
      name = "linux noisy, faults, drift x3";
      platform = Platform.with_noise tiny_linux ~sigma:0.5;
      faults = Some spiky;
      drift_factor = Some 3;
    };
    { name = "split, faults"; platform = tiny_split; faults = Some spiky; drift_factor = None };
    {
      name = "split noiseless, drift x2";
      platform = Platform.with_noise tiny_split ~sigma:0.0;
      faults = Some Fault.quiet;
      drift_factor = Some 2;
    };
  |]

(* ---- one run ---- *)

(* A file is named by its descriptor for the kernel and by its inode for
   the reference (the descriptor lookup has no effects). *)
type impl = {
  read : Kernel.env -> fd:int -> ino:int -> off:int -> len:int -> (int, Kernel.error) result;
  write : Kernel.env -> fd:int -> ino:int -> off:int -> len:int -> (int, Kernel.error) result;
  touch : Kernel.env -> Kernel.region -> first:int -> count:int -> int array;
}

let kernel_impl =
  {
    read = (fun env ~fd ~ino:_ ~off ~len -> Kernel.read env fd ~off ~len);
    write = (fun env ~fd ~ino:_ ~off ~len -> Kernel.write env fd ~off ~len);
    touch = Kernel.touch_pages;
  }

let reference_impl =
  {
    read = (fun env ~fd:_ ~ino ~off ~len -> Ref_page_loops.read env ~vol:0 ~ino ~off ~len);
    write = (fun env ~fd:_ ~ino ~off ~len -> Ref_page_loops.write env ~vol:0 ~ino ~off ~len);
    touch = Ref_page_loops.touch_pages;
  }

let result_string = function
  | Ok n -> string_of_int n
  | Error e -> "error:" ^ Kernel.error_to_string e

let disk_string d =
  Printf.sprintf "req=%d blocks=%d seq=%d busy=%d" (Disk.requests d) (Disk.blocks_transferred d)
    (Disk.sequential_hits d) (Disk.busy_ns d)

let pool_string p =
  Printf.sprintf "%s h=%d m=%d e=%d r=%d c=%d" (Pool.name p) (Pool.hits p) (Pool.misses p)
    (Pool.evictions p) (Pool.resident p) (Pool.capacity p)

let final_state k sink =
  let c = Kernel.counters k and m = Kernel.memory k in
  let acc = Option.get (Kernel.account k) in
  String.concat "\n"
    [
      Printf.sprintf "now=%d" (Engine.now (Kernel.engine k));
      Printf.sprintf "counters r=%d w=%d br=%d bw=%d in=%d out=%d zero=%d fetch=%d wb=%d"
        c.Kernel.c_reads c.c_writes c.c_bytes_read c.c_bytes_written c.c_page_ins c.c_page_outs
        c.c_zero_fills c.c_file_fetches c.c_file_writebacks;
      pool_string (Memory.file_pool m);
      pool_string (Memory.anon_pool m);
      Printf.sprintf "resident file=%d anon=%d" (Memory.resident_file m) (Memory.resident_anon m);
      "disk " ^ disk_string (Kernel.volume_disk k 0);
      "swap " ^ disk_string (Kernel.swap_disk k);
      Printf.sprintf "swapped=%d" (Page.Tbl.length (Kernel.swap_table k));
      Gray_util.Json.to_string (Account.export_json (Account.export acc));
      Flight.dump (Kernel.flight k);
      Gray_util.Json.to_string (Tele.metrics_json sink);
      Gray_util.Json.to_string (Tele.chrome_trace (Tele.chrome_events sink ~pid:1 ~tid:1));
    ]

let run config impl ~seed ops =
  let engine = Engine.create () in
  let drift = Option.map (fun _ -> Drift.quiet) config.drift_factor in
  let k =
    Kernel.boot ~engine ~platform:config.platform ~data_disks:1 ~volume_blocks:16384
      ?faults:config.faults ?drift ~seed ()
  in
  (match (Kernel.drift_plane k, config.drift_factor) with
  | Some d, Some n -> Drift.set_timer_factor d n
  | _ -> ());
  let log = Buffer.create 4096 in
  let sink = Tele.create ~name:"page-loops" () in
  Kernel.spawn k (fun env ->
      let files =
        Array.init nfiles (fun i ->
            let path = Printf.sprintf "/f%d" i in
            (* an environment-installed fault plane may fail the create *)
            let rec create () =
              match Kernel.create_file env ("/d0" ^ path) with
              | Error Kernel.Retryable -> create ()
              | r -> Result.get_ok r
            in
            let fd = create () in
            let ino = Result.get_ok (Fs.lookup (Kernel.volume_fs k 0) path) in
            let r = impl.write env ~fd ~ino ~off:0 ~len:(file_pages * page) in
            Printf.bprintf log "setup %s\n" (result_string r);
            (fd, ino))
      in
      let region = Kernel.valloc env ~pages:region_pages in
      List.iter
        (fun op ->
          (match op with
          | Read { file; off; len } ->
            let fd, ino = files.(file) in
            Buffer.add_string log (result_string (impl.read env ~fd ~ino ~off ~len))
          | Write { file; off; len } ->
            let fd, ino = files.(file) in
            Buffer.add_string log (result_string (impl.write env ~fd ~ino ~off ~len))
          | Touch { first; count } ->
            Array.iter (Printf.bprintf log "%d,") (impl.touch env region ~first ~count));
          Printf.bprintf log " @%d\n" (Engine.now (Kernel.engine k)))
        ops);
  Tele.with_sink sink (fun () -> Kernel.run k);
  Buffer.add_string log (final_state k sink);
  (Buffer.contents log, Kernel.counters k)

let gen_case =
  QCheck2.Gen.(
    triple (int_bound (Array.length configs - 1)) (int_bound 10_000)
      (list_size (int_range 1 24) gen_op))

let print_case (c, seed, ops) =
  Printf.sprintf "%s seed=%d [%s]" configs.(c).name seed (String.concat "; " (List.map pp_op ops))

let first_difference a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | x :: xs, y :: ys -> if String.equal x y then go (i + 1) (xs, ys) else Some (i, x, y)
    | [], [] -> None
    | x :: _, [] -> Some (i, x, "<end>")
    | [], y :: _ -> Some (i, "<end>", y)
  in
  go 1 (la, lb)

let prop_page_loops =
  QCheck2.Test.make ~name:"kernel page loops = per-page reference" ~count:120 ~print:print_case
    gen_case (fun (c, seed, ops) ->
      let config = configs.(c) in
      let got, _ = run config kernel_impl ~seed ops in
      let want, _ = run config reference_impl ~seed ops in
      match first_difference got want with
      | None -> true
      | Some (line, x, y) ->
        QCheck2.Test.fail_reportf "line %d differs:\n kernel:    %s\n reference: %s" line x y)

(* Every configuration, one long fixed trace: hit runs long enough to
   matter, then pressure that swaps the region out and back in and
   writes dirty file pages back. *)
let test_directed () =
  let ops =
    [
      Read { file = 0; off = 100; len = 50 * page };
      Read { file = 0; off = 0; len = 96 * page };
      Touch { first = 0; count = 200 };
      Touch { first = 0; count = 200 };
      Write { file = 1; off = 3 * page + 17; len = 30 * page };
      Read { file = 2; off = 5; len = 96 * page - 10 };
      Touch { first = 120; count = 200 };
      Touch { first = 0; count = 320 };
      Read { file = 1; off = 0; len = 96 * page };
      Touch { first = 0; count = 320 };
    ]
  in
  Array.iter
    (fun config ->
      let got, c = run config kernel_impl ~seed:5 ops in
      let want, _ = run config reference_impl ~seed:5 ops in
      Alcotest.(check string) config.name want got;
      Alcotest.(check bool)
        (config.name ^ ": swap-ins, swap-outs and dirty file victims")
        true
        (c.Kernel.c_page_ins > 0 && c.c_page_outs > 0 && c.c_file_writebacks > 0))
    configs

let suite =
  [
    Alcotest.test_case "directed trace, every configuration" `Quick test_directed;
    QCheck_alcotest.to_alcotest prop_page_loops;
  ]

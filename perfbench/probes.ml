(* Layer probes: each times one public primitive in isolation, on state
   shaped like the workload's, and reports host ns and minor words per
   operation.  A probe whose primitive calls into a lower layer nets
   that layer out, so that count x cost summed over the layers adds up
   to the measured phase rather than counting a layer twice. *)

open Simos

type cost = { ns : float; words : float }

let repeats = 5

(* Median over [repeats] runs of [f], which performs some operations and
   returns how many. *)
let measure f =
  let samples =
    List.init repeats (fun _ ->
        let w0 = Gc.minor_words () in
        let t0 = Spans.now_ns () in
        let ops = f () in
        let t1 = Spans.now_ns () in
        let w1 = Gc.minor_words () in
        let ops = float_of_int (max 1 ops) in
        (float_of_int (t1 - t0) /. ops, (w1 -. w0) /. ops))
  in
  let median xs =
    let a = Array.of_list (List.sort compare xs) in
    a.(Array.length a / 2)
  in
  { ns = median (List.map fst samples); words = median (List.map snd samples) }

let sub a b = { ns = a.ns -. b.ns; words = a.words -. b.words }

(* ---- engine ---- *)

(* [Engine.delay] among [fibers] live fibers. *)
let engine ~fibers =
  let fibers = max 1 fibers in
  let per_fiber = max 1 (200_000 / fibers) in
  measure (fun () ->
      let e = Engine.create () in
      for i = 0 to fibers - 1 do
        Engine.spawn e (fun () ->
            for j = 1 to per_fiber do
              Engine.delay (1_000 + ((i + j) mod 7))
            done)
      done;
      Engine.run e;
      Engine.events_processed e)

(* ---- cache stack ---- *)

let file_key ino idx = Page.File { ino; idx }

let noop2 _ _ = ()
let no_evict _ ~dirty:_ = ()
let no_end _ ~evicted:_ = ()

let access m ~ino ~first ~n =
  Memory.access_run m ~n ~key:(fun i -> file_key ino (first + i)) ~dirty:false ~on_hit:noop2
    ~on_miss:noop2 ~on_evict:no_evict ~on_page_end:no_end

let ops = 200_000

(* [Memory.access_run] hits over runs of [run] resident pages. *)
let cache_hit ~platform ~run =
  let run = max 1 run in
  let usable = Platform.usable_pages platform in
  let resident = min (usable / 2) 65_536 in
  let m = Memory.create ~usable_pages:usable (Platform.memory_layout platform) in
  access m ~ino:1 ~first:0 ~n:resident;
  measure (fun () ->
      let done_ = ref 0 in
      while !done_ < ops do
        access m ~ino:1 ~first:(!done_ mod (resident - run + 1)) ~n:run;
        done_ := !done_ + run
      done;
      !done_)

(* [Memory.access_run] misses over runs of [run] fresh pages into a full
   memory, so that each miss evicts. *)
let cache_miss ~platform ~run =
  let run = max 1 run in
  let usable = Platform.usable_pages platform in
  let m = Memory.create ~usable_pages:usable (Platform.memory_layout platform) in
  access m ~ino:1 ~first:0 ~n:usable;
  let next = ref 0 in
  measure (fun () ->
      let done_ = ref 0 in
      while !done_ < ops do
        access m ~ino:2 ~first:!next ~n:run;
        next := !next + run;
        done_ := !done_ + run
      done;
      !done_)

(* ---- kernel ---- *)

(* Run [body] as the only process of a fresh kernel. *)
let in_kernel ~platform body =
  let k =
    Kernel.boot ~engine:(Engine.create ()) ~platform ~data_disks:1 ~account:true ~flight:true
      ~seed:1 ()
  in
  let result = ref None in
  Kernel.spawn k (fun env -> result := Some (body env));
  Kernel.run k;
  Option.get !result

let ok = Gray_apps.Workload.ok_exn

(* A 1-byte read of a resident page, whole syscall path included. *)
let resident_read ~platform =
  in_kernel ~platform (fun env ->
      let fd = ok (Kernel.create_file env "/d0/probe") in
      ignore (ok (Kernel.write env fd ~off:0 ~len:4096));
      ignore (ok (Kernel.read env fd ~off:0 ~len:1));
      let n = 100_000 in
      measure (fun () ->
          for _ = 1 to n do
            ignore (Kernel.read env fd ~off:0 ~len:1)
          done;
          n))

(* Marginal cost of one more resident anonymous page in a
   [Kernel.touch_pages] call: the slope between runs of [run] and [2 run]
   pages, which nets out the syscall and the engine event. *)
let touch ~platform ~run =
  let run = max 16 run in
  in_kernel ~platform (fun env ->
      let r = Kernel.valloc env ~pages:(2 * run) in
      ignore (Kernel.touch_pages env r ~first:0 ~count:(2 * run));
      let per_call count =
        let calls = max 1 (400_000 / count) in
        measure (fun () ->
            for _ = 1 to calls do
              ignore (Kernel.touch_pages env r ~first:0 ~count)
            done;
            calls)
      in
      let short = per_call run and long = per_call (2 * run) in
      Kernel.vfree env r;
      let per_page x y = (x -. y) /. float_of_int run in
      { ns = per_page long.ns short.ns; words = per_page long.words short.words })

(* ---- disk ---- *)

(* [Disk.access] of [blocks] blocks, alternating runs of sequential
   requests with seeks, as a scan over files does. *)
let disk ~platform ~blocks =
  let blocks = max 1 blocks in
  let d = Disk.create platform.Platform.disk in
  let cap = Disk.capacity_blocks d - blocks in
  let now = ref 0 and pos = ref 0 and i = ref 0 in
  let n = 100_000 in
  measure (fun () ->
      for _ = 1 to n do
        incr i;
        pos := if !i mod 4 = 0 then (!pos * 7919 + 104_729) mod cap else (!pos + blocks) mod cap;
        now := !now + Disk.access d ~now:!now ~start_block:!pos ~nblocks:blocks
      done;
      n)

(* ---- file system ---- *)

type fs_costs = { lookup : cost; create_unlink : cost; block_of_page : cost }

let fs ~platform =
  let total_blocks = Disk.capacity_blocks (Disk.create platform.Platform.disk) in
  let fs = Fs.create (Fs.default_config ~total_blocks) in
  let okf = function Ok v -> v | Error e -> failwith (Fs.error_to_string e) in
  ignore (okf (Fs.mkdir fs "/dir"));
  for i = 0 to 99 do
    let ino = okf (Fs.create_file fs (Printf.sprintf "/dir/f%04d" i)) in
    okf (Fs.resize fs ~ino ~size:8192)
  done;
  let big = okf (Fs.create_file fs "/dir/big") in
  okf (Fs.resize fs ~ino:big ~size:(10 * 1024 * 1024));
  let pages = Fs.pages_of_file fs ~ino:big in
  let n = 100_000 in
  let lookup =
    measure (fun () ->
        for i = 1 to n do
          ignore (Fs.lookup fs (if i land 1 = 0 then "/dir/f0042" else "/dir/f0077"))
        done;
        n)
  in
  let cycles = 20_000 in
  let create_unlink =
    measure (fun () ->
        for _ = 1 to cycles do
          let ino = okf (Fs.create_file fs "/dir/tmp") in
          okf (Fs.resize fs ~ino ~size:8192);
          okf (Fs.unlink fs "/dir/tmp")
        done;
        cycles)
  in
  let block_of_page =
    measure (fun () ->
        for i = 1 to n do
          ignore (Fs.block_of_page fs ~ino:big ~idx:(i mod pages))
        done;
        n)
  in
  { lookup; create_unlink; block_of_page }

(* ---- scheduler ---- *)

(* Two processes contending through [Kernel.compute] on a scheduler
   kernel: host cost per granted slice. *)
let sched ~platform =
  let config = Sched.default_config in
  measure (fun () ->
      let k =
        Kernel.boot ~engine:(Engine.create ()) ~platform ~data_disks:1 ~sched:config
          ~account:true ~flight:true ~seed:1 ()
      in
      for _ = 1 to 2 do
        Kernel.spawn k (fun env -> Kernel.compute env ~ns:(50_000 * config.Sched.sd_quantum_ns))
      done;
      Kernel.run k;
      match Kernel.sched k with Some s -> Sched.slices s | None -> 0)

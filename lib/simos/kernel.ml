module Tele = Gray_util.Telemetry
module Flight = Gray_util.Flight

type error =
  | Fs_error of Fs.error
  | Bad_fd
  | Bad_path
  | Retryable
  | Timeout
  | Unsupported of string
  | Sys_error of string

let error_to_string = function
  | Fs_error e -> Fs.error_to_string e
  | Bad_fd -> "bad file descriptor"
  | Bad_path -> "bad path (expected /d<volume>/...)"
  | Retryable -> "interrupted by transient fault (EINTR/EAGAIN-style; retry)"
  | Timeout -> "syscall deadline exceeded"
  | Unsupported reason -> "unsupported on this backend: " ^ reason
  | Sys_error errno -> "host system error: " ^ errno

type fd = int
type open_file = { of_vol : int; of_ino : int }

type region = {
  r_owner : int;
  r_start_vpn : int;
  r_pages : int;
  mutable r_live : bool;
}

type proc = {
  p_pid : int;
  p_fds : (int, open_file) Hashtbl.t;
  mutable p_next_fd : int;
  mutable p_next_vpn : int;
  mutable p_next_token : int;
  mutable p_regions : region list;
}

type volume = { mutable v_fs : Fs.t; v_disk : Disk.t }

type counters = {
  c_reads : int;
  c_writes : int;
  c_bytes_read : int;
  c_bytes_written : int;
  c_page_ins : int;
  c_page_outs : int;
  c_zero_fills : int;
  c_file_fetches : int;
  c_file_writebacks : int;
}

type t = {
  mutable k_engine : Engine.t;  (* replaced wholesale by [restart] *)
  k_platform : Platform.t;
  k_volumes : volume array;
  k_swap : Disk.t;
  k_mem : Memory.t;
  k_cpu : Resource.t;
  k_noise : Gray_util.Rng.t;
  k_swapped : Page.Tbl.t;  (* anonymous pages out on swap (values unused) *)
  k_procs : (int, proc) Hashtbl.t;
  k_sched : Sched.t option;
  mutable k_next_pid : int;
  k_faults : Fault.t option;
  k_crash : Crash.t option;
  k_drift : Drift.t option;
  k_account : Account.t;  (* the only count: [counters] sums it *)
  k_flight : Flight.t;
  mutable k_carry : counters;  (* added to the ledger's totals; see [counters] *)
}

type env = { e_k : t; e_proc : proc; e_acct : Account.stats }

(* Volume [v]'s inodes are made globally unique by packing the volume index
   into the high bits; bit 43 marks the pseudo-file that stands for the
   volume's inode-table blocks. *)
let vol_shift = 44
let meta_bit = 1 lsl 43
let global_ino _t ~volume ~ino = (volume lsl vol_shift) lor ino
let meta_ino volume = (volume lsl vol_shift) lor meta_bit
let vol_of_gino gino = gino lsr vol_shift
let local_ino_of_gino gino = gino land (meta_bit - 1)
let gino_is_meta gino = gino land meta_bit <> 0

let boot ~engine ~platform ?(data_disks = 4) ?volume_blocks ?faults ?crash ?drift
    ?account ?flight ?sched ?(procs = 16) ~seed () =
  if data_disks < 1 then invalid_arg "Kernel.boot: need at least one data disk";
  if account = Some false || flight = Some false then
    invalid_arg "Kernel.boot: the ledger and the flight recorder are always on";
  let make_volume _ =
    let disk = Disk.create platform.Platform.disk in
    let blocks = Option.value volume_blocks ~default:(Disk.capacity_blocks disk) in
    if blocks > Disk.capacity_blocks disk then
      invalid_arg "Kernel.boot: volume larger than disk";
    { v_fs = Fs.create (Fs.default_config ~total_blocks:blocks); v_disk = disk }
  in
  {
    k_engine = engine;
    k_platform = platform;
    k_volumes = Array.init data_disks make_volume;
    k_swap = Disk.create platform.Platform.disk;
    k_mem = Memory.create ~usable_pages:(Platform.usable_pages platform)
        (Platform.memory_layout platform);
    k_cpu = Resource.create ~slots:platform.Platform.cpus;
    k_noise = Gray_util.Rng.create ~seed;
    (* starts small and grows on demand: most boots (and every post-crash
       reboot in an exploration sweep) never swap, and zeroing a 4096-slot
       table per boot dominated the explorer's boot cost *)
    k_swapped = Page.Tbl.create 16;
    (* fleets announce their size so the process table never rehashes
       mid-run; solo boots keep the small default *)
    k_procs = Hashtbl.create (max 16 procs);
    k_sched = Option.map Sched.create sched;
    k_next_pid = 1;
    k_faults = Option.map Fault.create faults;
    k_crash = Option.map Crash.create crash;
    k_drift = Option.map Drift.create drift;
    (* neither draws RNG nor advances the clock *)
    k_account = Account.create ();
    k_flight = Flight.create ();
    k_carry =
      {
        c_reads = 0;
        c_writes = 0;
        c_bytes_read = 0;
        c_bytes_written = 0;
        c_page_ins = 0;
        c_page_outs = 0;
        c_zero_fills = 0;
        c_file_fetches = 0;
        c_file_writebacks = 0;
      };
  }

(* Adopt a volume image on a freshly booted kernel (the snapshot-mode
   crash explorer: a fresh boot plus a rolled-back image is the restarted
   machine, minus the replay).  Must run before any process does: resident
   file pages and open descriptors are keyed by the old volume's inodes
   and would go stale — on a fresh boot both sets are empty. *)
let install_volume_image t i fs = t.k_volumes.(i).v_fs <- fs

let engine t = t.k_engine
let platform t = t.k_platform
let data_disks t = Array.length t.k_volumes
let volume_root i = Printf.sprintf "/d%d" i
let memory t = t.k_mem
let volume_fs t i = t.k_volumes.(i).v_fs
let volume_disk t i = t.k_volumes.(i).v_disk
let swap_disk t = t.k_swap
let pid env = env.e_proc.p_pid
let kernel_of_env env = env.e_k
let account t = Some t.k_account
let flight t = t.k_flight
let sched t = t.k_sched
let cpu_busy_ns t = Resource.busy_ns t.k_cpu

let fresh_token env =
  let proc = env.e_proc in
  let token = proc.p_next_token in
  proc.p_next_token <- token + 1;
  token

let resolve_path t path =
  let fail = Error Bad_path in
  if String.length path < 2 || path.[0] <> '/' || path.[1] <> 'd' then fail
  else begin
    let rest_start = match String.index_from_opt path 1 '/' with Some i -> i | None -> String.length path in
    let vol_str = String.sub path 2 (rest_start - 2) in
    match int_of_string_opt vol_str with
    | None -> fail
    | Some v when v < 0 || v >= Array.length t.k_volumes -> fail
    | Some v ->
      let rest =
        if rest_start >= String.length path then "/"
        else String.sub path rest_start (String.length path - rest_start)
      in
      Ok (v, rest)
  end

(* ---- processes ---- *)

(* Forget pages [lo, hi) of [pid]'s address space: resident copies leave
   the cache, swapped-out ones the swap table.  A kernel that never
   swapped skips building a probe key per page. *)
let drop_anon_range t ~pid ~lo ~hi =
  ignore (Memory.invalidate_anon_range t.k_mem ~pid ~lo ~hi);
  if Page.Tbl.length t.k_swapped > 0 then
    for vpn = lo to hi - 1 do
      Page.Tbl.remove t.k_swapped (Page.Anon { pid; vpn })
    done

let spawn t ?(name = "proc") ?(weight = 1) ?at body =
  let p_pid = t.k_next_pid in
  t.k_next_pid <- t.k_next_pid + 1;
  let proc =
    {
      p_pid;
      p_fds = Hashtbl.create 8;
      p_next_fd = 3;
      p_next_vpn = 0;
      p_next_token = 1;
      p_regions = [];
    }
  in
  (* Dead regions already dropped their pages (cache and swap) at vfree
     time, and every anonymous page of this process lives in some region,
     so walking the live regions covers the whole address space — no
     pid-wide scan of the swap table needed. *)
  let cleanup () =
    List.iter
      (fun r ->
        if r.r_live then begin
          r.r_live <- false;
          drop_anon_range t ~pid:p_pid ~lo:r.r_start_vpn ~hi:(r.r_start_vpn + r.r_pages)
        end)
      proc.p_regions;
    Hashtbl.remove t.k_procs p_pid;
    (* the run queue and the ledger both learn of the exit here, inside
       the same protected scope as registration: a crashed or cancelled
       fiber leaves neither a scheduler entry nor an unreapable row *)
    (match t.k_sched with
    | None -> ()
    | Some s -> Sched.unregister s ~pid:p_pid);
    Account.note_exit t.k_account ~pid:p_pid
  in
  (* Registration happens when the fiber actually starts, inside the same
     protected scope as [cleanup]: a fiber cancelled before its first
     instruction (crash-path queue drain) then leaves no trace either —
     no proc entry and no ledger row.  The row is cached in the env, so
     per-syscall bumps never look it up. *)
  Engine.spawn t.k_engine ?at ~name (fun () ->
      Hashtbl.replace t.k_procs p_pid proc;
      let e_acct = Account.note_spawn t.k_account ~pid:p_pid ~name in
      let env = { e_k = t; e_proc = proc; e_acct } in
      (match t.k_sched with
      | None -> ()
      | Some s -> Sched.register s ~pid:p_pid ~weight);
      Fun.protect ~finally:cleanup (fun () -> body env))

let run t = Engine.run t.k_engine

(* ---- crash plane ---- *)

let crash_plane t = t.k_crash
let durability_on t = t.k_crash <> None

(* One syscall boundary.  Ticked at syscall {e entry}, so "crash at
   boundary N" means syscalls 1..N-1 completed and syscall N never
   started.  [Crash.Crashed] unwinds through the fiber's [Fun.protect]
   finalisers (descriptor tables, regions, the proc entry) and surfaces
   from [run] as [Engine.Fiber_crash]. *)
let crash_tick env =
  match env.e_k.k_crash with
  | None -> ()
  | Some c -> if Crash.tick c then raise Crash.Crashed

(* Every syscall passes through here at entry: flight-record the boundary
   (before the crash tick, so the boundary that kills the machine is the
   last event in the black box), bump the caller's per-kind ledger cell,
   then tick the crash plane.  None of the three allocates, draws RNG,
   or moves the clock. *)
let sys_entry env code =
  let t = env.e_k in
  let boundary = match t.k_crash with Some c -> Crash.syscalls c + 1 | None -> 0 in
  Flight.record t.k_flight ~ts:(Engine.now t.k_engine) ~code ~pid:env.e_proc.p_pid
    ~a:boundary ~b:0;
  Account.note_syscall env.e_acct code;
  crash_tick env

(* ---- counters ---- *)

(* The ledger is the only count: the machine-wide counters are its
   totals (live rows and reaped aggregates) plus a carry, which holds
   what [restart] took out of the ledger minus what [reset_counters]
   zeroed. *)
let counters t =
  let st = Account.total t.k_account and c = t.k_carry in
  {
    c_reads = c.c_reads + st.Account.reads;
    c_writes = c.c_writes + st.Account.writes;
    c_bytes_read = c.c_bytes_read + st.Account.bytes_read;
    c_bytes_written = c.c_bytes_written + st.Account.bytes_written;
    c_page_ins = c.c_page_ins + st.Account.page_ins;
    c_page_outs = c.c_page_outs + st.Account.page_outs;
    c_zero_fills = c.c_zero_fills + st.Account.zero_fills;
    c_file_fetches = c.c_file_fetches + st.Account.fetches;
    c_file_writebacks = c.c_file_writebacks + st.Account.writebacks;
  }

(* The carry absorbs the current totals, so [counters] reads zero. *)
let reset_counters t =
  let c = counters t and k = t.k_carry in
  t.k_carry <-
    {
      c_reads = k.c_reads - c.c_reads;
      c_writes = k.c_writes - c.c_writes;
      c_bytes_read = k.c_bytes_read - c.c_bytes_read;
      c_bytes_written = k.c_bytes_written - c.c_bytes_written;
      c_page_ins = k.c_page_ins - c.c_page_ins;
      c_page_outs = k.c_page_outs - c.c_page_outs;
      c_zero_fills = k.c_zero_fills - c.c_zero_fills;
      c_file_fetches = k.c_file_fetches - c.c_file_fetches;
      c_file_writebacks = k.c_file_writebacks - c.c_file_writebacks;
    }

(* Whole-machine restart after a crash: volatile state (page cache,
   anonymous memory, swap residency, processes) is discarded, each
   volume's file system rolls back to its durable image, and the device
   timelines reset with the fresh engine's clock.  Counters and RNG
   streams survive — they describe the experiment, not the machine.

   The per-process accounting ledger does NOT survive: the rebooted
   machine has no processes, so pid-indexed attribution (and the blame
   matrix) restarts empty — after its totals move into the carry, which
   is how the counters survive.  The drift plane's timer-coarsening
   regime is likewise machine state — its daemon died with the crash and
   cannot keep the regime in force, so the reboot returns the clock to
   the platform resolution (the schedule itself, experiment state,
   survives and is not replayed).  The flight recorder deliberately survives: it
   is the black box, and the pre-crash tail is exactly what a post-crash
   dump is for. *)
let restart t =
  Memory.reset t.k_mem;
  Page.Tbl.reset t.k_swapped;
  Hashtbl.reset t.k_procs;
  Array.iter
    (fun v ->
      Fs.crash v.v_fs;
      Disk.reboot v.v_disk)
    t.k_volumes;
  Disk.reboot t.k_swap;
  Resource.reboot t.k_cpu;
  t.k_engine <- Engine.create ();
  t.k_carry <- counters t;
  Account.reset t.k_account;
  Option.iter Sched.reset t.k_sched;
  Option.iter Drift.note_restart t.k_drift;
  match t.k_crash with
  | None -> ()
  | Some c ->
    Crash.disarm c;
    Crash.note_restart c

(* ---- time and cost plumbing ---- *)

let quantise resolution ns = if resolution <= 1 then ns else ns / resolution * resolution

(* Gray-box timer granularity: the platform clock, coarsened by the drift
   plane's current regime (a Timer_scale event in force), then by the
   fault plane when one asks for it.  Both compose multiplicatively. *)
let base_resolution t =
  let base = t.k_platform.Platform.timer_resolution_ns in
  match t.k_drift with
  | None -> base
  | Some d -> base * Drift.timer_factor d

let timer_resolution t =
  let base = base_resolution t in
  match t.k_faults with
  | None -> base
  | Some f -> Fault.timer_resolution f ~base

let gettime env =
  let t = env.e_k in
  match t.k_faults with
  | None -> quantise (base_resolution t) (Engine.now t.k_engine)
  | Some f ->
    quantise
      (Fault.timer_resolution f ~base:(base_resolution t))
      (Engine.now t.k_engine + Fault.timer_jitter f)

let noised t ns =
  let sigma = t.k_platform.Platform.noise_sigma in
  if sigma = 0.0 || ns = 0 then ns
  else
    max 0 (int_of_float (float_of_int ns *. Gray_util.Dist.lognormal_factor t.k_noise ~sigma))

(* A syscall accumulates cost on a cursor so that consecutive disk requests
   within one call queue behind each other correctly. *)
let start_call env = Engine.now env.e_k.k_engine + env.e_k.k_platform.Platform.syscall_overhead_ns

let finish_call env ~now =
  let total = now - Engine.now env.e_k.k_engine in
  let extra =
    match env.e_k.k_faults with
    | None -> 0
    | Some f -> Fault.extra_latency f ~now:(Engine.now env.e_k.k_engine)
  in
  Engine.delay (noised env.e_k total + extra)

(* Transient-failure injection: the call is charged its overhead (the
   kernel did run) but performs no work and reports [Retryable]. *)
let target_name = function
  | Fault.Open -> "open"
  | Fault.Read -> "read"
  | Fault.Write -> "write"
  | Fault.Stat -> "stat"
  | Fault.Create -> "create"
  | Fault.Unlink -> "unlink"
  | Fault.Rename -> "rename"
  | Fault.Mkdir -> "mkdir"

let target_index = function
  | Fault.Open -> 0
  | Fault.Read -> 1
  | Fault.Write -> 2
  | Fault.Stat -> 3
  | Fault.Create -> 4
  | Fault.Unlink -> 5
  | Fault.Rename -> 6
  | Fault.Mkdir -> 7

let injected env target =
  match env.e_k.k_faults with
  | None -> false
  | Some f ->
    let hit = Fault.inject_error f target in
    if hit then begin
      Tele.event "simos.fault.inject"
        ~attrs:(fun () -> [ ("target", Tele.String (target_name target)) ]);
      env.e_acct.Account.faults <- env.e_acct.Account.faults + 1;
      Flight.record env.e_k.k_flight
        ~ts:(Engine.now env.e_k.k_engine)
        ~code:Flight.Fault ~pid:env.e_proc.p_pid ~a:(target_index target) ~b:0
    end;
    hit

let fail_transient env =
  Engine.delay (noised env.e_k env.e_k.k_platform.Platform.syscall_overhead_ns);
  Error Retryable

let copy_cost t bytes =
  int_of_float (float_of_int bytes *. t.k_platform.Platform.memcopy_byte_ns)

(* Write back / swap out one victim of a cache fill; returns the updated
   cursor.  Deleted files have no backing block left and are dropped.

   This is the single choke point every evicted page passes through
   (batched fills, per-page fills, drift-plane cache shrinks), so
   eviction blame lives here: the {e initiator} is the process in whose
   syscall the eviction happens — [env]'s pid, never the page owner.  A
   sync-driven or read-driven writeback of somebody else's dirty page is
   the caller's cost and the caller's eviction. *)
let writeback_victim env ~now key ~dirty =
  let t = env.e_k and st = env.e_acct in
  let victim_pid = match key with Page.Anon { pid; _ } -> pid | Page.File _ -> 0 in
  Account.note_eviction t.k_account ~evictor:st ~victim_pid;
  Flight.record t.k_flight ~ts:now ~code:Flight.Evict ~pid:env.e_proc.p_pid
    ~a:victim_pid
    ~b:(if dirty then 1 else 0);
  match key with
  | Page.File { ino = gino; idx } ->
    if dirty then begin
      let vol = vol_of_gino gino in
      let v = t.k_volumes.(vol) in
      let block =
        if gino_is_meta gino then Some idx
        else Fs.block_of_page v.v_fs ~ino:(local_ino_of_gino gino) ~idx
      in
      match block with
      | None -> now
      | Some b ->
        let d = Disk.access v.v_disk ~now ~start_block:b ~nblocks:1 in
        st.Account.writebacks <- st.Account.writebacks + 1;
        st.Account.block_ns <- st.Account.block_ns + d;
        now + d
    end
    else now
  | Page.Anon { pid; vpn } ->
    (* Anonymous pages are dirty by construction (touches write). *)
    let slot = ((pid * 1_000_003) + vpn) mod Disk.capacity_blocks t.k_swap in
    let d = Disk.access t.k_swap ~now ~start_block:slot ~nblocks:1 in
    st.Account.page_outs <- st.Account.page_outs + 1;
    st.Account.block_ns <- st.Account.block_ns + d;
    Page.Tbl.replace t.k_swapped key 0;
    now + d

(* One page's worth of eviction telemetry (a metric bump and a point, as
   the per-page path has always emitted); [tele] is the caller's
   [Tele.active ()]. *)
let note_evictions env tele ~n =
  if n > 0 then
    match tele with
    | None -> ()
    | Some s ->
      Tele.add_in s ~n "simos.kernel.evictions";
      Tele.point s "simos.kernel.evict" ~spid:(pid env)
        ~attrs:(fun () -> [ ("pages", Tele.Int n) ])

let acct_hit env = env.e_acct.Account.hits <- env.e_acct.Account.hits + 1
let acct_miss env = env.e_acct.Account.misses <- env.e_acct.Account.misses + 1

let handle_evictions env ~now evicted =
  let cur = ref now in
  List.iter
    (fun ({ key; dirty } : Pool.evicted) ->
      cur := writeback_victim env ~now:!cur key ~dirty)
    evicted;
  note_evictions env (Tele.active ()) ~n:(List.length evicted);
  !cur

(* Fetch one file-metadata or data page into the cache.  The hit/miss
   bumps mirror the pool counters the [Memory.access] touches, keeping
   per-pid sums equal to the global pool totals. *)
let fill_page env ~now key =
  match Memory.access env.e_k.k_mem key ~dirty:false with
  | `Hit ->
    acct_hit env;
    now
  | `Filled evicted ->
    acct_miss env;
    handle_evictions env ~now evicted

(* Charge the read of an inode-table block (open/stat/unlink/utimes). *)
let inode_read env ~now ~vol ~ino =
  let t = env.e_k in
  let v = t.k_volumes.(vol) in
  let block = Fs.inode_block v.v_fs ~ino in
  let key = Page.File { ino = meta_ino vol; idx = block } in
  if Memory.contains t.k_mem key then begin
    ignore (Memory.access t.k_mem key ~dirty:false);
    acct_hit env;
    now
  end
  else begin
    let d = Disk.access v.v_disk ~now ~start_block:block ~nblocks:1 in
    env.e_acct.Account.block_ns <- env.e_acct.Account.block_ns + d;
    fill_page env ~now:(now + d) key
  end

(* ---- path syscalls ---- *)

let with_volume env path f =
  match resolve_path env.e_k path with
  | Error e -> Error e
  | Ok (vol, rest) -> f vol rest

let lift_fs = function Ok v -> Ok v | Error e -> Error (Fs_error e)

let simple_path_call env ~name path f =
  with_volume env path (fun vol rest ->
      let t0 = Engine.now env.e_k.k_engine in
      let now = start_call env in
      let result, now = f vol rest now in
      finish_call env ~now;
      (match Tele.active () with
      | None -> ()
      | Some s ->
        Tele.span_end s name ~ts:t0 ~spid:(pid env)
          ~attrs:(fun () -> [ ("path", Tele.String path) ]));
      result)

let alloc_fd env ~vol ~ino =
  let proc = env.e_proc in
  let fd = proc.p_next_fd in
  proc.p_next_fd <- fd + 1;
  Hashtbl.replace proc.p_fds fd { of_vol = vol; of_ino = ino };
  fd

let open_file env path =
  sys_entry env Flight.Open;
  if injected env Fault.Open then fail_transient env
  else
  simple_path_call env ~name:"simos.kernel.open" path (fun vol rest now ->
      let fs = env.e_k.k_volumes.(vol).v_fs in
      match Fs.lookup fs rest with
      | Error e -> (Error (Fs_error e), now)
      | Ok ino ->
        let now = inode_read env ~now ~vol ~ino in
        (Ok (alloc_fd env ~vol ~ino), now))

let create_file env path =
  sys_entry env Flight.Create;
  if injected env Fault.Create then fail_transient env
  else
  simple_path_call env ~name:"simos.kernel.create" path (fun vol rest now ->
      let fs = env.e_k.k_volumes.(vol).v_fs in
      match Fs.create_file fs rest with
      | Error e -> (Error (Fs_error e), now)
      | Ok ino -> (Ok (alloc_fd env ~vol ~ino), now))

let close env fd =
  sys_entry env Flight.Close;
  Hashtbl.remove env.e_proc.p_fds fd

let find_fd env fd =
  match Hashtbl.find_opt env.e_proc.p_fds fd with
  | None -> Error Bad_fd
  | Some f -> Ok f

let file_size env fd =
  match find_fd env fd with
  | Error _ -> 0
  | Ok { of_vol; of_ino } -> Fs.size_ino env.e_k.k_volumes.(of_vol).v_fs ~ino:of_ino

let page_size env = env.e_k.k_platform.Platform.page_size

(* Shared page-walking read/write core.  Batches consecutive missing disk
   blocks into single transfers so sequential scans stream.

   The walk scans for hits with one policy lookup per page and settles
   each run of them at once, when a miss or the end of the range ends
   it: the run flushes the pending fetch (a hit ends a batch), adds its
   length to the ledger and charges its copies.  A missed page queues
   its block, is filled (victims write back between fetches) and
   charges its copy — in the order the per-page path did, so every disk
   request and clock advance is the same. *)
let io_pages env ~vol ~ino ~off ~len ~write =
  let t = env.e_k in
  let v = t.k_volumes.(vol) in
  let psz = page_size env in
  let gino = global_ino t ~volume:vol ~ino in
  let t0 = Engine.now t.k_engine in
  let now = ref (start_call env) in
  let first_page = off / psz and last_page = (off + len - 1) / psz in
  let pending_start = ref (-1) and pending_count = ref 0 in
  let st = env.e_acct in
  let flush_pending () =
    if !pending_count > 0 then begin
      let d =
        Disk.access v.v_disk ~now:!now ~start_block:!pending_start
          ~nblocks:!pending_count
      in
      now := !now + d;
      st.Account.fetches <- st.Account.fetches + !pending_count;
      st.Account.block_ns <- st.Account.block_ns + d;
      pending_start := -1;
      pending_count := 0
    end
  in
  let tele = Tele.active () in
  let pool = Memory.file_pool t.k_mem in
  let victims =
    Memory.victims t.k_mem (fun k ~dirty -> now := writeback_victim env ~now:!now k ~dirty)
  in
  (* Copy costs: every page but the (partial) first and last moves a
     whole page. *)
  let copy_page p =
    let page_lo = p * psz in
    copy_cost t (min (off + len) (page_lo + psz) - max off page_lo)
  in
  let whole = copy_cost t psz in
  let settle_hits a b =
    if a <= b then begin
      flush_pending ();
      st.Account.hits <- st.Account.hits + (b - a + 1);
      let c = ref ((b - a + 1) * whole) in
      if a = first_page then c := !c - whole + copy_page a;
      if b = last_page && b <> first_page then c := !c - whole + copy_page b;
      now := !now + !c
    end
  in
  (* looked up at the first miss of a read; no block list changes
     during the walk *)
  let blocks = ref None in
  let run_start = ref first_page in
  for p = first_page to last_page do
    let key = Page.File { ino = gino; idx = p } in
    if not (Pool.try_hit pool key ~dirty:write) then begin
      settle_hits !run_start (p - 1);
      run_start := p + 1;
      acct_miss env;
      (* Reads must fetch the page; writes of whole pages just allocate a
         cache page (read-modify-write of partial pages is not modelled). *)
      (if not write then
         let x =
           match !blocks with
           | Some x -> x
           | None ->
             let x = Fs.extent v.v_fs ~ino in
             blocks := Some x;
             x
         in
         let b = Fs.extent_block x p in
         (* a hole costs its copy only: it zero-fills *)
         if b >= 0 then
           if !pending_count > 0 && b = !pending_start + !pending_count then
             incr pending_count
           else begin
             flush_pending ();
             pending_start := b;
             pending_count := 1
           end);
      note_evictions env tele ~n:(Memory.fill_missed t.k_mem victims key ~dirty:write);
      now := !now + copy_page p
    end
  done;
  settle_hits !run_start last_page;
  flush_pending ();
  finish_call env ~now:!now;
  match tele with
  | None -> ()
  | Some s ->
    Tele.span_end s
      (if write then "simos.kernel.write" else "simos.kernel.read")
      ~ts:t0 ~spid:(pid env)
      ~attrs:(fun () -> [ ("off", Tele.Int off); ("len", Tele.Int len) ])

let read env fd ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Kernel.read: negative offset or length";
  sys_entry env Flight.Read;
  if injected env Fault.Read then fail_transient env
  else
  match find_fd env fd with
  | Error e -> Error e
  | Ok { of_vol; of_ino } ->
    let t = env.e_k in
    let fs = t.k_volumes.(of_vol).v_fs in
    let size = Fs.size_ino fs ~ino:of_ino in
    let len = max 0 (min len (size - off)) in
    if len = 0 then begin
      Engine.delay (noised t t.k_platform.Platform.syscall_overhead_ns);
      Ok 0
    end
    else begin
      io_pages env ~vol:of_vol ~ino:of_ino ~off ~len ~write:false;
      Fs.mark_atime fs ~ino:of_ino ~now:(Engine.now t.k_engine);
      let st = env.e_acct in
      st.Account.reads <- st.Account.reads + 1;
      st.Account.bytes_read <- st.Account.bytes_read + len;
      Ok len
    end

let write env fd ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Kernel.write: negative offset or length";
  sys_entry env Flight.Write;
  if injected env Fault.Write then fail_transient env
  else
  match find_fd env fd with
  | Error e -> Error e
  | Ok { of_vol; of_ino } ->
    let t = env.e_k in
    let fs = t.k_volumes.(of_vol).v_fs in
    let size = Fs.size_ino fs ~ino:of_ino in
    let grow =
      if off + len > size then lift_fs (Fs.resize fs ~ino:of_ino ~size:(off + len))
      else Ok ()
    in
    (match grow with
    | Error e -> Error e
    | Ok () ->
      if len > 0 then io_pages env ~vol:of_vol ~ino:of_ino ~off ~len ~write:true
      else Engine.delay (noised t t.k_platform.Platform.syscall_overhead_ns);
      Fs.mark_mtime fs ~ino:of_ino ~now:(Engine.now t.k_engine);
      let st = env.e_acct in
      st.Account.writes <- st.Account.writes + 1;
      st.Account.bytes_written <- st.Account.bytes_written + len;
      Ok len)

let mkdir env path =
  sys_entry env Flight.Mkdir;
  if injected env Fault.Mkdir then fail_transient env
  else
  simple_path_call env ~name:"simos.kernel.mkdir" path (fun vol rest now ->
      (lift_fs (Result.map ignore (Fs.mkdir env.e_k.k_volumes.(vol).v_fs rest)), now))

let unlink env path =
  sys_entry env Flight.Unlink;
  if injected env Fault.Unlink then fail_transient env
  else
  simple_path_call env ~name:"simos.kernel.unlink" path (fun vol rest now ->
      let t = env.e_k in
      let fs = t.k_volumes.(vol).v_fs in
      match Fs.lookup fs rest with
      | Error e -> (Error (Fs_error e), now)
      | Ok ino -> (
        let now = inode_read env ~now ~vol ~ino in
        match Fs.unlink fs rest with
        | Error e -> (Error (Fs_error e), now)
        | Ok () ->
          let gino = global_ino t ~volume:vol ~ino in
          ignore
            (Memory.invalidate_if t.k_mem (fun key ->
                 match key with
                 | Page.File { ino = g; _ } -> g = gino
                 | Page.Anon _ -> false));
          (Ok (), now)))

let rename env ~src ~dst =
  sys_entry env Flight.Rename;
  if injected env Fault.Rename then fail_transient env
  else
  match resolve_path env.e_k src, resolve_path env.e_k dst with
  | Error e, _ | _, Error e -> Error e
  | Ok (v1, r1), Ok (v2, r2) ->
    if v1 <> v2 then Error Bad_path
    else
      simple_path_call env ~name:"simos.kernel.rename" src (fun _ _ now ->
          (lift_fs (Fs.rename env.e_k.k_volumes.(v1).v_fs ~src:r1 ~dst:r2), now))

let readdir env path =
  sys_entry env Flight.Readdir;
  simple_path_call env ~name:"simos.kernel.readdir" path (fun vol rest now ->
      let fs = env.e_k.k_volumes.(vol).v_fs in
      match Fs.readdir fs rest with
      | Error e -> (Error (Fs_error e), now)
      | Ok names -> (Ok names, now))

let stat env path =
  sys_entry env Flight.Stat;
  if injected env Fault.Stat then fail_transient env
  else
  simple_path_call env ~name:"simos.kernel.stat" path (fun vol rest now ->
      let fs = env.e_k.k_volumes.(vol).v_fs in
      match Fs.stat_path fs rest with
      | Error e -> (Error (Fs_error e), now)
      | Ok st ->
        let now = inode_read env ~now ~vol ~ino:st.Fs.st_ino in
        (Ok st, now))

let utimes env path ~atime ~mtime =
  sys_entry env Flight.Utimes;
  simple_path_call env ~name:"simos.kernel.utimes" path (fun vol rest now ->
      let fs = env.e_k.k_volumes.(vol).v_fs in
      match Fs.lookup fs rest with
      | Error e -> (Error (Fs_error e), now)
      | Ok ino ->
        let now = inode_read env ~now ~vol ~ino in
        (lift_fs (Fs.set_times fs ~ino ~atime ~mtime), now))

(* ---- durability syscalls ---- *)

(* With no crash plane installed there is no durable/volatile distinction
   to maintain: fsync and sync are free no-ops (no delay, no RNG draw, no
   cache traffic), keeping benign runs byte-identical to a build without
   this plane.  With a plane, they walk the page cache and write dirty
   pages back in place, batching physically contiguous blocks exactly as
   the read path batches fetches. *)

let fsync env fd =
  sys_entry env Flight.Fsync;
  match find_fd env fd with
  | Error e -> Error e
  | Ok { of_vol; of_ino } ->
    let t = env.e_k in
    if t.k_crash = None then Ok ()
    else begin
      let v = t.k_volumes.(of_vol) in
      let gino = global_ino t ~volume:of_vol ~ino:of_ino in
      let pool = Memory.file_pool t.k_mem in
      let t0 = Engine.now t.k_engine in
      let now = ref (start_call env) in
      let pending_start = ref (-1) and pending_count = ref 0 in
      (* Writeback attribution goes to the {e syncing} process — fsync
         runs inline in the caller's syscall, so [env] is the initiator,
         not whichever process dirtied the pages. *)
      let flush_pending () =
        if !pending_count > 0 then begin
          let d =
            Disk.access v.v_disk ~now:!now ~start_block:!pending_start
              ~nblocks:!pending_count
          in
          now := !now + d;
          let st = env.e_acct in
          st.Account.writebacks <- st.Account.writebacks + !pending_count;
          st.Account.block_ns <- st.Account.block_ns + d;
          pending_start := -1;
          pending_count := 0
        end
      in
      for idx = 0 to Fs.pages_of_file v.v_fs ~ino:of_ino - 1 do
        let key = Page.File { ino = gino; idx } in
        if Pool.is_dirty pool key then begin
          (match Fs.block_of_page v.v_fs ~ino:of_ino ~idx with
          | None -> ()
          | Some b ->
            if !pending_count > 0 && b = !pending_start + !pending_count then
              incr pending_count
            else begin
              flush_pending ();
              pending_start := b;
              pending_count := 1
            end);
          Pool.clean pool key
        end
      done;
      flush_pending ();
      (* the inode itself (size, times, blob) goes out last *)
      let d =
        Disk.access v.v_disk ~now:!now
          ~start_block:(Fs.inode_block v.v_fs ~ino:of_ino)
          ~nblocks:1
      in
      now := !now + d;
      env.e_acct.Account.block_ns <- env.e_acct.Account.block_ns + d;
      (match Fs.fsync_ino v.v_fs ~ino:of_ino with Ok () -> () | Error _ -> ());
      finish_call env ~now:!now;
      (match Tele.active () with
      | None -> ()
      | Some s ->
        Tele.span_end s "simos.kernel.fsync" ~ts:t0 ~spid:(pid env)
          ~attrs:(fun () -> [ ("ino", Tele.Int of_ino) ]));
      Ok ()
    end

let sync env =
  sys_entry env Flight.Sync;
  let t = env.e_k in
  match t.k_crash with
  | None -> ()
  | Some _ ->
    let pool = Memory.file_pool t.k_mem in
    let t0 = Engine.now t.k_engine in
    let now = ref (start_call env) in
    (* Collect dirty file pages with a backing block, then write them out
       sorted (volume, block): an elevator pass, contiguous runs batched. *)
    let dirty = ref [] in
    Pool.iter pool (fun key ->
        match key with
        | Page.File { ino = gino; idx } when Pool.is_dirty pool key ->
          let vol = vol_of_gino gino in
          let block =
            if gino_is_meta gino then Some idx
            else Fs.block_of_page t.k_volumes.(vol).v_fs ~ino:(local_ino_of_gino gino) ~idx
          in
          (match block with None -> () | Some b -> dirty := (vol, b, key) :: !dirty)
        | Page.File _ | Page.Anon _ -> ());
    let pending_vol = ref (-1) and pending_start = ref (-1) and pending_count = ref 0 in
    (* Elevator writebacks are the syncing caller's cost, like fsync's:
       the page owner is not consulted and not blamed. *)
    let flush_pending () =
      if !pending_count > 0 then begin
        let v = t.k_volumes.(!pending_vol) in
        let d =
          Disk.access v.v_disk ~now:!now ~start_block:!pending_start
            ~nblocks:!pending_count
        in
        now := !now + d;
        let st = env.e_acct in
        st.Account.writebacks <- st.Account.writebacks + !pending_count;
        st.Account.block_ns <- st.Account.block_ns + d;
        pending_count := 0
      end
    in
    List.iter
      (fun (vol, b, key) ->
        if !pending_count > 0 && vol = !pending_vol
           && b = !pending_start + !pending_count
        then incr pending_count
        else begin
          flush_pending ();
          pending_vol := vol;
          pending_start := b;
          pending_count := 1
        end;
        Pool.clean pool key)
      (List.sort compare !dirty);
    flush_pending ();
    Array.iter (fun v -> Fs.sync_all v.v_fs) t.k_volumes;
    finish_call env ~now:!now;
    (match Tele.active () with
    | None -> ()
    | Some s -> Tele.span_end s "simos.kernel.sync" ~ts:t0 ~spid:(pid env))

(* Side-band whole-file content (the FLDC journal records): replaces the
   file's blob without touching its block layout.  Volatile until fsynced,
   like any other write. *)
let write_blob env fd s =
  sys_entry env Flight.Write_blob;
  match find_fd env fd with
  | Error e -> Error e
  | Ok { of_vol; of_ino } ->
    let t = env.e_k in
    let fs = t.k_volumes.(of_vol).v_fs in
    (match Fs.set_blob fs ~ino:of_ino s with
    | Error e -> Error (Fs_error e)
    | Ok () ->
      Fs.mark_mtime fs ~ino:of_ino ~now:(Engine.now t.k_engine);
      Engine.delay
        (noised t
           (t.k_platform.Platform.syscall_overhead_ns + copy_cost t (String.length s)));
      Ok ())

let read_blob env fd =
  sys_entry env Flight.Read_blob;
  match find_fd env fd with
  | Error e -> Error e
  | Ok { of_vol; of_ino } ->
    let t = env.e_k in
    let fs = t.k_volumes.(of_vol).v_fs in
    let s = Fs.blob fs ~ino:of_ino in
    Fs.mark_atime fs ~ino:of_ino ~now:(Engine.now t.k_engine);
    Engine.delay
      (noised t
         (t.k_platform.Platform.syscall_overhead_ns + copy_cost t (String.length s)));
    Ok s

(* ---- memory syscalls ---- *)

let valloc env ~pages =
  if pages <= 0 then invalid_arg "Kernel.valloc: pages must be positive";
  sys_entry env Flight.Valloc;
  let proc = env.e_proc in
  let region =
    { r_owner = proc.p_pid; r_start_vpn = proc.p_next_vpn; r_pages = pages; r_live = true }
  in
  proc.p_next_vpn <- proc.p_next_vpn + pages + 1;
  proc.p_regions <- region :: proc.p_regions;
  Engine.delay (noised env.e_k env.e_k.k_platform.Platform.syscall_overhead_ns);
  region

let vfree env region =
  if region.r_owner <> env.e_proc.p_pid then invalid_arg "Kernel.vfree: not the owner";
  sys_entry env Flight.Vfree;
  if region.r_live then begin
    region.r_live <- false;
    let t = env.e_k in
    drop_anon_range t ~pid:region.r_owner ~lo:region.r_start_vpn
      ~hi:(region.r_start_vpn + region.r_pages);
    Engine.delay (noised t t.k_platform.Platform.syscall_overhead_ns)
  end

let region_pages region = region.r_pages

let vrelease env region ~first ~count =
  if region.r_owner <> env.e_proc.p_pid then invalid_arg "Kernel.vrelease: not the owner";
  if not region.r_live then invalid_arg "Kernel.vrelease: region freed";
  if first < 0 || count < 0 || first + count > region.r_pages then
    invalid_arg "Kernel.vrelease: out of range";
  sys_entry env Flight.Vrelease;
  let t = env.e_k in
  let lo = region.r_start_vpn + first in
  drop_anon_range t ~pid:region.r_owner ~lo ~hi:(lo + count);
  Engine.delay (noised t t.k_platform.Platform.syscall_overhead_ns)

(* Each page's observed time is its raw cost (touch, or swap-in /
   zero-fill plus victim writebacks, plus any interference) noised and
   read through the timer.  The walk scans for hits with one policy
   lookup per page and settles each run of them at once, when a miss or
   the end of the range ends it: a hit's raw cost is [mem_touch_ns], so
   its sample comes from a tick sampler prepared once per call.  Only
   the missed pages take the per-page path.  The noise generator sees
   the same draws in the same order. *)
let touch_pages env region ~first ~count =
  if not region.r_live then invalid_arg "Kernel.touch_pages: region freed";
  if region.r_owner <> env.e_proc.p_pid then
    invalid_arg "Kernel.touch_pages: not the owner";
  if first < 0 || count < 0 || first + count > region.r_pages then
    invalid_arg "Kernel.touch_pages: out of range";
  sys_entry env Flight.Touch;
  let t = env.e_k in
  let plat = t.k_platform in
  let resolution = timer_resolution t in
  let sigma = plat.Platform.noise_sigma in
  let touch = plat.Platform.mem_touch_ns in
  let hit_tick = Gray_util.Rng.tick ~sigma ~res:resolution touch in
  let tele = Tele.active () in
  let t0 = Engine.now t.k_engine in
  let now = ref t0 in
  let results = Array.make count 0 in
  let base_vpn = region.r_start_vpn + first in
  let owner = region.r_owner in
  let st = env.e_acct in
  let pool = Memory.anon_pool t.k_mem in
  let victims =
    Memory.victims t.k_mem (fun k ~dirty -> now := writeback_victim env ~now:!now k ~dirty)
  in
  (* Background interference steals time mid-touch; the stolen time is
     real (advances the clock) and visible in the observed sample —
     exactly what fools a naive timing-based paging detector. *)
  let sample ~before =
    (match t.k_faults with
    | None -> ()
    | Some f -> now := !now + Fault.extra_latency f ~now:!now);
    let raw = !now - before in
    if raw = touch then Gray_util.Rng.sample_tick t.k_noise hit_tick
    else Gray_util.Rng.lognormal_tick t.k_noise ~sigma ~res:resolution raw
  in
  let settle_hits a b =
    if a <= b then begin
      st.Account.hits <- st.Account.hits + (b - a + 1);
      match t.k_faults with
      | None ->
        for j = a to b do
          results.(j) <- Gray_util.Rng.sample_tick t.k_noise hit_tick
        done;
        now := !now + ((b - a + 1) * touch)
      | Some _ ->
        for j = a to b do
          let before = !now in
          now := !now + touch;
          results.(j) <- sample ~before
        done
    end
  in
  let run_start = ref 0 in
  for j = 0 to count - 1 do
    let key = Page.Anon { pid = owner; vpn = base_vpn + j } in
    if not (Pool.try_hit pool key ~dirty:true) then begin
      settle_hits !run_start (j - 1);
      run_start := j + 1;
      acct_miss env;
      let before = !now in
      (if Page.Tbl.mem t.k_swapped key then begin
         let slot =
           ((owner * 1_000_003) + (base_vpn + j)) mod Disk.capacity_blocks t.k_swap
         in
         let d = Disk.access t.k_swap ~now:!now ~start_block:slot ~nblocks:1 in
         now := !now + d;
         Page.Tbl.remove t.k_swapped key;
         st.Account.page_ins <- st.Account.page_ins + 1;
         st.Account.block_ns <- st.Account.block_ns + d;
         match tele with
         | None -> ()
         | Some s -> Tele.point s "simos.kernel.page_in" ~spid:(pid env)
       end
       else begin
         now := !now + plat.Platform.page_alloc_zero_ns;
         st.Account.zero_fills <- st.Account.zero_fills + 1;
         match tele with
         | None -> ()
         | Some s -> Tele.point s "simos.kernel.zero_fill" ~spid:(pid env)
       end);
      note_evictions env tele ~n:(Memory.fill_missed t.k_mem victims key ~dirty:true);
      results.(j) <- sample ~before
    end
  done;
  settle_hits !run_start (count - 1);
  Engine.delay (!now - t0);
  (match tele with
  | None -> ()
  | Some s ->
    Tele.span_end s "simos.kernel.touch_pages" ~ts:t0 ~spid:(pid env)
      ~attrs:(fun () -> [ ("pages", Tele.Int count) ]));
  results

type vmstat = { vm_page_ins : int; vm_page_outs : int }

let vmstat env =
  sys_entry env Flight.Vmstat;
  let t = env.e_k in
  Engine.delay (noised t t.k_platform.Platform.syscall_overhead_ns);
  let c = counters t in
  { vm_page_ins = c.c_page_ins; vm_page_outs = c.c_page_outs }

(* ---- CPU ---- *)

let compute env ~ns =
  if ns < 0 then invalid_arg "Kernel.compute: negative duration";
  sys_entry env Flight.Compute;
  let t = env.e_k in
  let duration = noised t ns in
  (* CPU attribution is service time (the noised burst), not queueing. *)
  env.e_acct.Account.cpu_ns <- env.e_acct.Account.cpu_ns + duration;
  match t.k_sched with
  | Some s when Sched.participants s > 1 && duration > 0 ->
    (* Contended: reserve the burst one weighted quantum at a time,
       re-entering the slot timeline between slices.  Every contending
       fiber does the same, so FCFS at quantum granularity is weighted
       round-robin.  The burst was noised once, above — slicing adds no
       RNG draws, so the timing channel is the same either way. *)
    let p = env.e_proc.p_pid in
    let chunk = Sched.chunk_ns s ~pid:p in
    let remaining = ref duration in
    while !remaining > 0 do
      let len = min chunk !remaining in
      Engine.delay
        (Resource.acquire t.k_cpu ~now:(Engine.now t.k_engine) ~duration:len);
      Sched.note_slice s ~pid:p ~ns:len;
      remaining := !remaining - len
    done
  | Some s ->
    (* Sole registered process: the exact legacy path (one reservation,
       one delay), so an uncontended scheduler kernel is byte-identical
       to a scheduler-less one.  Grants are still recorded. *)
    Sched.note_slice s ~pid:env.e_proc.p_pid ~ns:duration;
    Engine.delay (Resource.acquire t.k_cpu ~now:(Engine.now t.k_engine) ~duration)
  | None ->
    Engine.delay (Resource.acquire t.k_cpu ~now:(Engine.now t.k_engine) ~duration)

let compute_bytes env ~bytes ~ns_per_byte =
  compute env ~ns:(int_of_float (float_of_int bytes *. ns_per_byte))

(* ---- fault plane ---- *)

let fault_plane t = t.k_faults
let stop_faults t = Option.iter Fault.stop t.k_faults

(* The scenario's background interference, run as ordinary simulated
   processes.  Both fibers are horizon-bounded (and honour [stop_faults])
   so [Engine.run] still terminates. *)
let start_fault_daemons t =
  match t.k_faults with
  | None -> ()
  | Some f ->
    let sc = Fault.scenario f in
    (match sc.Fault.sc_disturb with
    | Some d when d.Fault.di_evict_frac > 0.0 ->
      spawn t ~name:"fault.disturber" (fun env ->
          let rng = Fault.rng f in
          let rec loop () =
            if (not (Fault.stopped f)) && Engine.now t.k_engine < d.Fault.di_horizon_ns
            then begin
              let evicted =
                Memory.invalidate_if t.k_mem (fun key ->
                    match key with
                    | Page.File _ ->
                      Gray_util.Rng.float rng 1.0 < d.Fault.di_evict_frac
                    | Page.Anon _ -> false)
              in
              Fault.note_evictions f evicted;
              if evicted > 0 then begin
                Tele.event "simos.fault.disturb"
                  ~attrs:(fun () -> [ ("evicted", Tele.Int evicted) ]);
                Flight.record t.k_flight ~ts:(Engine.now t.k_engine)
                  ~code:Flight.Disturb ~pid:(pid env) ~a:evicted ~b:0
              end;
              Engine.delay d.Fault.di_period_ns;
              loop ()
            end
          in
          loop ())
    | Some _ | None -> ());
    (match sc.Fault.sc_pressure with
    | Some p when p.Fault.pr_pages > 0 ->
      spawn t ~name:"fault.pressure" (fun env ->
          let region = valloc env ~pages:p.Fault.pr_pages in
          let rec loop () =
            if (not (Fault.stopped f)) && Engine.now t.k_engine < p.Fault.pr_horizon_ns
            then begin
              ignore (touch_pages env region ~first:0 ~count:p.Fault.pr_pages);
              Fault.note_pressure_wave f;
              Tele.event "simos.fault.pressure_wave";
              Flight.record t.k_flight ~ts:(Engine.now t.k_engine)
                ~code:Flight.Pressure ~pid:(pid env) ~a:p.Fault.pr_pages ~b:0;
              Engine.delay p.Fault.pr_hold_ns;
              vrelease env region ~first:0 ~count:p.Fault.pr_pages;
              Engine.delay p.Fault.pr_gap_ns;
              loop ()
            end
          in
          loop ();
          vfree env region)
    | Some _ | None -> ())

(* ---- drift plane ---- *)

let drift_plane t = t.k_drift
let stop_drift t = Option.iter Drift.stop t.k_drift

(* Replay the drift schedule as one ordinary simulated process.  The fiber
   is only spawned when the scenario has events, so installing [quiet] is
   indistinguishable from installing nothing.  The daemon owns a single
   region sized for the largest pressure regime of the schedule (untouched
   pages cost nothing) and re-touches whatever it currently holds every
   [dr_retouch_ns], keeping the regime resident against competitors —
   the same shape as the fault plane's pressure fiber, but level-driven
   rather than periodic. *)
let start_drift_daemon t =
  match t.k_drift with
  | None -> ()
  | Some d ->
    let sc = Drift.scenario d in
    if sc.Drift.dr_events <> [] then
      spawn t ~name:"drift.daemon" (fun env ->
          let usable = Platform.usable_pages t.k_platform in
          let cap =
            int_of_float (float_of_int usable *. Drift.max_pressure_frac sc)
          in
          let region = if cap > 0 then Some (valloc env ~pages:cap) else None in
          let held = ref 0 in
          (* Advance to [ts]; while a pressure regime is held, move in
             re-touch steps so the held pages stay hot. *)
          let rec wait_until ts =
            let now = Engine.now t.k_engine in
            if now < ts && not (Drift.stopped d) then begin
              (match region with
              | Some r when !held > 0 ->
                Engine.delay (min sc.Drift.dr_retouch_ns (ts - now));
                ignore (touch_pages env r ~first:0 ~count:!held)
              | Some _ | None -> Engine.delay (ts - now));
              wait_until ts
            end
          in
          let apply ev =
            match ev.Drift.dv_kind with
            | Drift.Cache_resize f ->
              let target =
                max 1
                  (int_of_float (float_of_int (Memory.file_capacity t.k_mem) *. f))
              in
              let t0 = Engine.now t.k_engine in
              let now = ref t0 in
              let evicted = ref 0 in
              Memory.resize_file_into t.k_mem ~capacity_pages:target
                ~on_evict:(fun k ~dirty ->
                  incr evicted;
                  now := writeback_victim env ~now:!now k ~dirty);
              note_evictions env (Tele.active ()) ~n:!evicted;
              Drift.note_evictions d !evicted;
              (* shrink victims' writebacks are real time, like any fill *)
              Engine.delay (!now - t0)
            | Drift.Policy_swap name ->
              Memory.swap_file_policy t.k_mem (Replacement.of_name name)
            | Drift.Timer_scale n -> Drift.set_timer_factor d n
            | Drift.Pressure_level f ->
              let target =
                min cap (int_of_float (float_of_int usable *. f))
              in
              (match region with
              | None -> ()
              | Some r ->
                if target > !held then
                  ignore (touch_pages env r ~first:!held ~count:(target - !held))
                else if target < !held then
                  vrelease env r ~first:target ~count:(!held - target));
              held := target
          in
          let epoch_start = ref (Engine.now t.k_engine) in
          List.iter
            (fun ev ->
              if not (Drift.stopped d) then begin
                wait_until ev.Drift.dv_at_ns;
                if not (Drift.stopped d) then begin
                  apply ev;
                  Drift.note_applied d ev.Drift.dv_kind;
                  (match Tele.active () with
                  | None -> ()
                  | Some s ->
                    (* one span per environment epoch: from the previous
                       mutation (or boot) up to this one *)
                    Tele.span_end s "simos.drift.epoch" ~ts:!epoch_start
                      ~attrs:(fun () ->
                        [ ("next", Tele.String (Drift.kind_to_string ev.Drift.dv_kind)) ]));
                  epoch_start := Engine.now t.k_engine;
                  Tele.event "simos.drift.apply" ~attrs:(fun () ->
                      [ ("kind", Tele.String (Drift.kind_to_string ev.Drift.dv_kind)) ]);
                  let kind, arg =
                    match ev.Drift.dv_kind with
                    | Drift.Cache_resize f -> (0, int_of_float (f *. 100.0))
                    | Drift.Policy_swap _ -> (1, 0)
                    | Drift.Timer_scale n -> (2, n)
                    | Drift.Pressure_level f -> (3, int_of_float (f *. 100.0))
                  in
                  Flight.record t.k_flight ~ts:(Engine.now t.k_engine)
                    ~code:Flight.Drift ~pid:(pid env) ~a:kind ~b:arg
                end
              end)
            sc.Drift.dr_events;
          (* hold the final regime (if any) out to the horizon *)
          if !held > 0 then wait_until sc.Drift.dr_horizon_ns;
          Option.iter (fun r -> vfree env r) region)

(* ---- experiment control ---- *)

let flush_file_cache t = Memory.drop_file_cache t.k_mem

let drop_all_memory t =
  Memory.reset t.k_mem;
  Page.Tbl.reset t.k_swapped

let noise t = t.k_noise
let swap_table t = t.k_swapped
let region_first_vpn region = region.r_start_vpn

let live_procs t = Hashtbl.length t.k_procs

let swapped_pages t ~pid =
  let n = ref 0 in
  Page.Tbl.iter
    (fun key _ ->
      match key with
      | Page.Anon { pid = p; _ } when p = pid -> incr n
      | Page.Anon _ | Page.File _ -> ())
    t.k_swapped;
  !n

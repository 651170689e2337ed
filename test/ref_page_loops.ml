(* Per-page reference for the kernel's page-walking syscalls: [read],
   [write] and [touch_pages] with one [Memory.access] per page and each
   hit or miss charged on its own, as the kernel did before it settled
   hit runs at once.  Test-only: it exists to be compared against
   [Simos.Kernel] by [test_page_loops].

   Everything around the page walk (syscall entry, fault injection, the
   call's overhead and noise, the ledger cells) is restated here from
   the kernel's documented behaviour, against the white-box accessors,
   so the reference shares no code with the loops it checks. *)

open Simos
module Rng = Gray_util.Rng
module Tele = Gray_util.Telemetry
module Flight = Gray_util.Flight

let kernel = Kernel.kernel_of_env
let platform env = Kernel.platform (kernel env)
let now env = Engine.now (Kernel.engine (kernel env))

let row env =
  Option.get (Account.find (Option.get (Kernel.account (kernel env))) ~pid:(Kernel.pid env))

let sys_entry env code =
  let k = kernel env in
  let boundary = match Kernel.crash_plane k with Some c -> Crash.syscalls c + 1 | None -> 0 in
  Flight.record (Kernel.flight k) ~ts:(now env) ~code ~pid:(Kernel.pid env) ~a:boundary ~b:0;
  Account.note_syscall (row env) code;
  match Kernel.crash_plane k with
  | Some c when Crash.tick c -> raise Crash.Crashed
  | Some _ | None -> ()

let injected env target ~name ~index =
  match Kernel.fault_plane (kernel env) with
  | None -> false
  | Some f ->
    let hit = Fault.inject_error f target in
    if hit then begin
      Tele.event "simos.fault.inject" ~attrs:(fun () -> [ ("target", Tele.String name) ]);
      let st = row env in
      st.Account.faults <- st.Account.faults + 1;
      Flight.record (Kernel.flight (kernel env)) ~ts:(now env) ~code:Flight.Fault
        ~pid:(Kernel.pid env) ~a:index ~b:0
    end;
    hit

let noised env ns =
  let sigma = (platform env).Platform.noise_sigma in
  if sigma = 0.0 || ns = 0 then ns
  else
    max 0
      (int_of_float
         (float_of_int ns *. Gray_util.Dist.lognormal_factor (Kernel.noise (kernel env)) ~sigma))

let quantise res ns = if res <= 1 then ns else ns / res * res

let timer_resolution env =
  let k = kernel env in
  let base =
    (platform env).Platform.timer_resolution_ns
    * match Kernel.drift_plane k with None -> 1 | Some d -> Drift.timer_factor d
  in
  match Kernel.fault_plane k with None -> base | Some f -> Fault.timer_resolution f ~base

let overhead env = Engine.delay (noised env (platform env).Platform.syscall_overhead_ns)

let finish_call env ~cursor =
  let total = cursor - now env in
  let extra =
    match Kernel.fault_plane (kernel env) with
    | None -> 0
    | Some f -> Fault.extra_latency f ~now:(now env)
  in
  Engine.delay (noised env total + extra)

let copy_cost env bytes =
  int_of_float (float_of_int bytes *. (platform env).Platform.memcopy_byte_ns)

(* The kernel packs the volume into bit 44 of a file page's inode and
   marks volume metadata with bit 43. *)
let meta_bit = 1 lsl 43

let writeback_victim env ~cursor key ~dirty =
  let k = kernel env and st = row env in
  let victim_pid = match key with Page.Anon { pid; _ } -> pid | Page.File _ -> 0 in
  Account.note_eviction (Option.get (Kernel.account k)) ~evictor:st ~victim_pid;
  Flight.record (Kernel.flight k) ~ts:cursor ~code:Flight.Evict ~pid:(Kernel.pid env)
    ~a:victim_pid
    ~b:(if dirty then 1 else 0);
  match key with
  | Page.File { ino = gino; idx } ->
    if dirty then begin
      let vol = gino lsr 44 in
      let block =
        if gino land meta_bit <> 0 then Some idx
        else Fs.block_of_page (Kernel.volume_fs k vol) ~ino:(gino land (meta_bit - 1)) ~idx
      in
      match block with
      | None -> cursor
      | Some b ->
        let d = Disk.access (Kernel.volume_disk k vol) ~now:cursor ~start_block:b ~nblocks:1 in
        st.Account.writebacks <- st.Account.writebacks + 1;
        st.Account.block_ns <- st.Account.block_ns + d;
        cursor + d
    end
    else cursor
  | Page.Anon { pid; vpn } ->
    let swap = Kernel.swap_disk k in
    let slot = ((pid * 1_000_003) + vpn) mod Disk.capacity_blocks swap in
    let d = Disk.access swap ~now:cursor ~start_block:slot ~nblocks:1 in
    st.Account.page_outs <- st.Account.page_outs + 1;
    st.Account.block_ns <- st.Account.block_ns + d;
    Page.Tbl.replace (Kernel.swap_table k) key 0;
    cursor + d

let note_evictions env ~n =
  if n > 0 then
    match Tele.active () with
    | None -> ()
    | Some s ->
      Tele.add_in s ~n "simos.kernel.evictions";
      Tele.point s "simos.kernel.evict" ~spid:(Kernel.pid env)
        ~attrs:(fun () -> [ ("pages", Tele.Int n) ])

let writeback_all env ~cursor evicted =
  let cursor =
    List.fold_left
      (fun cursor (e : Pool.evicted) -> writeback_victim env ~cursor e.key ~dirty:e.dirty)
      cursor evicted
  in
  note_evictions env ~n:(List.length evicted);
  cursor

let io_pages env ~vol ~ino ~off ~len ~write =
  let k = kernel env in
  let disk = Kernel.volume_disk k vol and fs = Kernel.volume_fs k vol in
  let psz = (platform env).Platform.page_size in
  let gino = Kernel.global_ino k ~volume:vol ~ino in
  let t0 = now env in
  let cursor = ref (t0 + (platform env).Platform.syscall_overhead_ns) in
  let st = row env in
  let pending_start = ref (-1) and pending_count = ref 0 in
  let flush () =
    if !pending_count > 0 then begin
      let d = Disk.access disk ~now:!cursor ~start_block:!pending_start ~nblocks:!pending_count in
      cursor := !cursor + d;
      st.Account.fetches <- st.Account.fetches + !pending_count;
      st.Account.block_ns <- st.Account.block_ns + d;
      pending_count := 0
    end
  in
  for p = off / psz to (off + len - 1) / psz do
    (match Memory.access (Kernel.memory k) (Page.File { ino = gino; idx = p }) ~dirty:write with
    | `Hit ->
      st.Account.hits <- st.Account.hits + 1;
      flush ()
    | `Filled evicted ->
      st.Account.misses <- st.Account.misses + 1;
      (if not write then
         match Fs.block_of_page fs ~ino ~idx:p with
         | None -> ()
         | Some b ->
           if !pending_count > 0 && b = !pending_start + !pending_count then incr pending_count
           else begin
             flush ();
             pending_start := b;
             pending_count := 1
           end);
      cursor := writeback_all env ~cursor:!cursor evicted);
    let page_lo = p * psz in
    cursor := !cursor + copy_cost env (min (off + len) (page_lo + psz) - max off page_lo)
  done;
  flush ();
  finish_call env ~cursor:!cursor;
  match Tele.active () with
  | None -> ()
  | Some s ->
    Tele.span_end s
      (if write then "simos.kernel.write" else "simos.kernel.read")
      ~ts:t0 ~spid:(Kernel.pid env)
      ~attrs:(fun () -> [ ("off", Tele.Int off); ("len", Tele.Int len) ])

let read env ~vol ~ino ~off ~len =
  sys_entry env Flight.Read;
  if injected env Fault.Read ~name:"read" ~index:1 then begin
    overhead env;
    Error Kernel.Retryable
  end
  else begin
    let fs = Kernel.volume_fs (kernel env) vol in
    let len = max 0 (min len (Fs.size_ino fs ~ino - off)) in
    if len = 0 then begin
      overhead env;
      Ok 0
    end
    else begin
      io_pages env ~vol ~ino ~off ~len ~write:false;
      Fs.mark_atime fs ~ino ~now:(now env);
      let st = row env in
      st.Account.reads <- st.Account.reads + 1;
      st.Account.bytes_read <- st.Account.bytes_read + len;
      Ok len
    end
  end

let write env ~vol ~ino ~off ~len =
  sys_entry env Flight.Write;
  if injected env Fault.Write ~name:"write" ~index:2 then begin
    overhead env;
    Error Kernel.Retryable
  end
  else begin
    let fs = Kernel.volume_fs (kernel env) vol in
    let grown =
      if off + len > Fs.size_ino fs ~ino then Fs.resize fs ~ino ~size:(off + len) else Ok ()
    in
    match grown with
    | Error e -> Error (Kernel.Fs_error e)
    | Ok () ->
      if len > 0 then io_pages env ~vol ~ino ~off ~len ~write:true else overhead env;
      Fs.mark_mtime fs ~ino ~now:(now env);
      let st = row env in
      st.Account.writes <- st.Account.writes + 1;
      st.Account.bytes_written <- st.Account.bytes_written + len;
      Ok len
  end

let touch_pages env region ~first ~count =
  sys_entry env Flight.Touch;
  let k = kernel env in
  let plat = platform env in
  let resolution = timer_resolution env in
  let t0 = now env in
  let cursor = ref t0 in
  let results = Array.make count 0 in
  let base = Kernel.region_first_vpn region + first in
  let st = row env in
  let pid = Kernel.pid env in
  for i = 0 to count - 1 do
    let key = Page.Anon { pid; vpn = base + i } in
    let before = !cursor in
    (match Memory.access (Kernel.memory k) key ~dirty:true with
    | `Hit ->
      st.Account.hits <- st.Account.hits + 1;
      cursor := !cursor + plat.Platform.mem_touch_ns
    | `Filled evicted ->
      st.Account.misses <- st.Account.misses + 1;
      let swapped = Kernel.swap_table k in
      if Page.Tbl.mem swapped key then begin
        let swap = Kernel.swap_disk k in
        let slot = ((pid * 1_000_003) + base + i) mod Disk.capacity_blocks swap in
        let d = Disk.access swap ~now:!cursor ~start_block:slot ~nblocks:1 in
        cursor := !cursor + d;
        Page.Tbl.remove swapped key;
        st.Account.page_ins <- st.Account.page_ins + 1;
        st.Account.block_ns <- st.Account.block_ns + d;
        match Tele.active () with
        | None -> ()
        | Some s -> Tele.point s "simos.kernel.page_in" ~spid:pid
      end
      else begin
        cursor := !cursor + plat.Platform.page_alloc_zero_ns;
        st.Account.zero_fills <- st.Account.zero_fills + 1;
        match Tele.active () with
        | None -> ()
        | Some s -> Tele.point s "simos.kernel.zero_fill" ~spid:pid
      end;
      cursor := writeback_all env ~cursor:!cursor evicted);
    (match Kernel.fault_plane k with
    | None -> ()
    | Some f -> cursor := !cursor + Fault.extra_latency f ~now:!cursor);
    results.(i) <- max resolution (quantise resolution (noised env (!cursor - before)))
  done;
  Engine.delay (!cursor - t0);
  (match Tele.active () with
  | None -> ()
  | Some s ->
    Tele.span_end s "simos.kernel.touch_pages" ~ts:t0 ~spid:pid
      ~attrs:(fun () -> [ ("pages", Tele.Int count) ]));
  results

(* [Timed (Os)] is [Os] with every call wrapped in a host-clock span and a
   count ({!Spans.record_call}).  It adds no syscall, RNG draw or clock
   advance to the simulation: the traced run must reproduce the untraced
   run's digest exactly. *)

open Graybox_core

module Make (Os : Os_intf.S) :
  Os_intf.S with type env = Os.env and type fd = Os.fd and type region = Os.region =
struct
  include Os

  let id = Spans.call_index
  let i_gettime = id "gettime"
  let i_cap = id "timing_confidence_cap"
  let i_sleep = id "sleep_ns"
  let i_open = id "open_file"
  let i_create = id "create_file"
  let i_close = id "close"
  let i_read = id "read"
  let i_write = id "write"
  let i_file_size = id "file_size"
  let i_mkdir = id "mkdir"
  let i_unlink = id "unlink"
  let i_rename = id "rename"
  let i_readdir = id "readdir"
  let i_stat = id "stat"
  let i_utimes = id "utimes"
  let i_fsync = id "fsync"
  let i_sync = id "sync"
  let i_write_blob = id "write_blob"
  let i_read_blob = id "read_blob"
  let i_durability = id "durability_on"
  let i_valloc = id "valloc"
  let i_vfree = id "vfree"
  let i_vrelease = id "vrelease"
  let i_touch = id "touch_pages"
  let i_vmstat = id "vmstat"
  let i_compute = id "compute"
  let i_compute_bytes = id "compute_bytes"
  let i_pid = id "pid"
  let i_flight = id "flight"

  let timed i f =
    let t0 = Spans.now_ns () in
    let r = f () in
    Spans.record_call i t0 (Spans.now_ns ());
    r

  let gettime env = timed i_gettime (fun () -> Os.gettime env)
  let timing_confidence_cap env = timed i_cap (fun () -> Os.timing_confidence_cap env)
  let sleep_ns ns = timed i_sleep (fun () -> Os.sleep_ns ns)
  let open_file env path = timed i_open (fun () -> Os.open_file env path)
  let create_file env path = timed i_create (fun () -> Os.create_file env path)
  let close env fd = timed i_close (fun () -> Os.close env fd)

  let read env fd ~off ~len = timed i_read (fun () -> Os.read env fd ~off ~len)
  let write env fd ~off ~len = timed i_write (fun () -> Os.write env fd ~off ~len)

  let file_size env fd = timed i_file_size (fun () -> Os.file_size env fd)
  let mkdir env path = timed i_mkdir (fun () -> Os.mkdir env path)
  let unlink env path = timed i_unlink (fun () -> Os.unlink env path)
  let rename env ~src ~dst = timed i_rename (fun () -> Os.rename env ~src ~dst)
  let readdir env path = timed i_readdir (fun () -> Os.readdir env path)
  let stat env path = timed i_stat (fun () -> Os.stat env path)

  let utimes env path ~atime ~mtime =
    timed i_utimes (fun () -> Os.utimes env path ~atime ~mtime)

  let fsync env fd = timed i_fsync (fun () -> Os.fsync env fd)
  let sync env = timed i_sync (fun () -> Os.sync env)
  let write_blob env fd s = timed i_write_blob (fun () -> Os.write_blob env fd s)
  let read_blob env fd = timed i_read_blob (fun () -> Os.read_blob env fd)
  let durability_on env = timed i_durability (fun () -> Os.durability_on env)
  let valloc env ~pages = timed i_valloc (fun () -> Os.valloc env ~pages)
  let vfree env r = timed i_vfree (fun () -> Os.vfree env r)

  let vrelease env r ~first ~count =
    timed i_vrelease (fun () -> Os.vrelease env r ~first ~count)

  let touch_pages env r ~first ~count =
    timed i_touch (fun () -> Os.touch_pages env r ~first ~count)

  let vmstat env = timed i_vmstat (fun () -> Os.vmstat env)
  let compute env ~ns = timed i_compute (fun () -> Os.compute env ~ns)

  let compute_bytes env ~bytes ~ns_per_byte =
    timed i_compute_bytes (fun () -> Os.compute_bytes env ~bytes ~ns_per_byte)

  let pid env = timed i_pid (fun () -> Os.pid env)
  let flight env = timed i_flight (fun () -> Os.flight env)
end

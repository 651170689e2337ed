(** The OS a gray-box ICL runs against, as a module signature.

    The paper's premise is that ICLs treat the operating system as an
    unmodifiable black box reached through a narrow syscall surface.
    This signature {e is} that surface: the ~17 syscalls the ICL stack
    uses ([Fccd], [Mac], [Fldc], [Resilient], [Adaptive], the workload
    drivers), with typed, total error results — no backend may ever let
    a raised [Unix.Unix_error] (or any other exception) escape a call.

    Two implementations exist:

    - {!Os_sim}: a thin adapter over [Simos.Kernel].  It must be
      byte-identical to calling the kernel directly — it adds no
      syscalls, no RNG draws and no clock advances, which CI verifies by
      diffing bench output against the pre-functorization baseline.
    - {!Os_host}: the real OS through [Unix], every call wrapped
      defensively (EINTR/EAGAIN retry, partial-transfer completion
      loops, deadline timeouts, errno→typed-error mapping) so that both
      backends traverse the same ICL error paths.

    Error values come from [Simos.Kernel.error] — the taxonomy is shared
    literally with the fault plane's injected errors.  The simulated
    backend never produces [Timeout], [Unsupported] or [Sys_error];
    those are the host backend's degradations. *)

open Simos

module type S = sig
  val name : string
  (** Backend tag ("sim" / "host") for telemetry and diagnostics. *)

  type env
  (** Per-process handle; everything below threads through it. *)

  type fd
  type region

  (** {1 Time} *)

  val gettime : env -> int
  (** The gray-box clock, in nanoseconds from an arbitrary origin.
      Cheap, monotonic, quantised to the backend's timer resolution. *)

  val timing_confidence_cap : env -> float
  (** Upper bound, in [0, 1], on how much a timing-channel verdict from
      this backend deserves to be believed.  The simulated kernel's
      clock is exact for its own cost model, so the cap is 1; a host
      with a coarse timer caps confidence below 1 instead of crashing
      or lying ({!Fccd} multiplies its plan confidence by this). *)

  val sleep_ns : int -> unit
  (** Back off for roughly this long ({!Resilient}'s jittered sleeps).
      Takes no [env]: the sim delays the calling fiber through the
      ambient engine, the host sleeps the calling thread. *)

  (** {1 File syscalls}

      Same contracts as the matching [Simos.Kernel] calls: positional
      [read]/[write] return the byte count transferred (the host
      backend loops until the count is complete or EOF), [file_size]
      is total (0 on a bad descriptor), and the blob side-band carries
      the FLDC journal records. *)

  val open_file : env -> string -> (fd, Kernel.error) result
  val create_file : env -> string -> (fd, Kernel.error) result
  val close : env -> fd -> unit
  val read : env -> fd -> off:int -> len:int -> (int, Kernel.error) result
  val write : env -> fd -> off:int -> len:int -> (int, Kernel.error) result
  val file_size : env -> fd -> int
  val mkdir : env -> string -> (unit, Kernel.error) result
  val unlink : env -> string -> (unit, Kernel.error) result
  val rename : env -> src:string -> dst:string -> (unit, Kernel.error) result
  val readdir : env -> string -> (string list, Kernel.error) result
  val stat : env -> string -> (Fs.stat_info, Kernel.error) result
  val utimes : env -> string -> atime:int -> mtime:int -> (unit, Kernel.error) result
  val fsync : env -> fd -> (unit, Kernel.error) result
  val sync : env -> unit
  val write_blob : env -> fd -> string -> (unit, Kernel.error) result
  val read_blob : env -> fd -> (string, Kernel.error) result

  val durability_on : env -> bool
  (** Whether crashes are survivable here, i.e. whether FLDC should pay
      for journal records + fsync.  Sim: a crash plane is installed.
      Host: always true — the real machine can always lose power. *)

  (** {1 Memory syscalls} *)

  val valloc : env -> pages:int -> (region, Kernel.error) result
  (** Reserve address space.  The simulated kernel cannot fail this
      (address space is free); the host returns a typed error when the
      allocation itself is refused, rather than raising [Out_of_memory]. *)

  val vfree : env -> region -> unit
  val vrelease : env -> region -> first:int -> count:int -> unit
  val touch_pages : env -> region -> first:int -> count:int -> int array
  val vmstat : env -> (Kernel.vmstat, Kernel.error) result
  (** Paging counters; [Unsupported] where the host offers no
      equivalent (MAC then degrades to the timing detector). *)

  (** {1 CPU} *)

  val compute : env -> ns:int -> unit
  val compute_bytes : env -> bytes:int -> ns_per_byte:float -> unit

  (** {1 Process} *)

  val pid : env -> int

  val flight : env -> Gray_util.Flight.t
  (** The backend's flight recorder — ICL watchdogs record their phase
      transitions here on either backend. *)
end

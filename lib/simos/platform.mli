(** Platform presets: the cost model and memory organisation of the three
    operating systems the paper evaluates (Section 4, "All experiments are
    run upon a machine with two Intel Pentium-III processors, 896 MB of
    physical memory, and five IBM 9LZX disks").

    The presets share the hardware numbers and differ in how the file cache
    is organised, which is exactly the axis Figure 4 explores. *)

type t = {
  name : string;
  memory_mib : int;  (** physical memory (896) *)
  kernel_reserved_mib : int;  (** leaves ~830 MB usable, Section 4.3.3 *)
  cpus : int;
  page_size : int;
  file_cache : [ `Unified | `Fixed_mib of int ];
  file_policy : Replacement.factory;
  anon_policy : Replacement.factory;
  disk : Disk.geometry;
  syscall_overhead_ns : int;
  memcopy_byte_ns : float;  (** kernel-to-user copy, per byte *)
  mem_touch_ns : int;  (** write to a resident page *)
  page_alloc_zero_ns : int;  (** demand-zero fill of a fresh page *)
  timer_resolution_ns : int;  (** gray-box timer granularity (rdtsc-class) *)
  noise_sigma : float;  (** log-normal service-time noise (0 = none) *)
}

val linux_2_2 : t
(** Unified clock-managed page/file cache. *)

val netbsd_1_5 : t
(** Fixed 64 MB LRU file cache ("a throwback to early UNIX
    implementations", Section 4.1.3), separate anonymous pool. *)

val solaris_7 : t
(** Large sticky file cache: once resident, pages are hard to dislodge. *)

val all : t list

val usable_pages : t -> int
(** Pages available to user file + anonymous memory. *)

val usable_bytes : t -> int
val memory_layout : t -> Memory.layout
val with_noise : t -> sigma:float -> t
val with_memory_mib : t -> int -> t
val with_file_policy : t -> Replacement.factory -> t
val with_timer_resolution : t -> ns:int -> t

val by_name : string -> t
(** Raises [Invalid_argument] on unknown names. *)

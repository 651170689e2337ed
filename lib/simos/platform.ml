type t = {
  name : string;
  memory_mib : int;
  kernel_reserved_mib : int;
  cpus : int;
  page_size : int;
  file_cache : [ `Unified | `Fixed_mib of int ];
  file_policy : Replacement.factory;
  anon_policy : Replacement.factory;
  disk : Disk.geometry;
  syscall_overhead_ns : int;
  memcopy_byte_ns : float;
  mem_touch_ns : int;
  page_alloc_zero_ns : int;
  timer_resolution_ns : int;
  noise_sigma : float;
}

(* Shared 2001-era hardware numbers: dual PIII, ~150 MB/s kernel-to-user
   copy, microsecond-class syscalls, rdtsc timing. *)
let base name =
  {
    name;
    memory_mib = 896;
    kernel_reserved_mib = 66;
    cpus = 2;
    page_size = 4096;
    file_cache = `Unified;
    file_policy = Replacement.clock;
    anon_policy = Replacement.clock;
    disk = Disk.ibm_9lzx;
    syscall_overhead_ns = 2_000;
    memcopy_byte_ns = 6.7;
    (* ~150 MB/s kernel-to-user copy *)
    mem_touch_ns = 150;
    page_alloc_zero_ns = 9_000;
    timer_resolution_ns = 100;
    noise_sigma = 0.05;
  }

let linux_2_2 = { (base "linux-2.2") with file_cache = `Unified }

let netbsd_1_5 =
  {
    (base "netbsd-1.5") with
    file_cache = `Fixed_mib 64;
    file_policy = Replacement.lru;
  }

let solaris_7 =
  {
    (base "solaris-7") with
    file_cache = `Fixed_mib 700;
    file_policy = Replacement.mru_sticky;
  }

let all = [ linux_2_2; netbsd_1_5; solaris_7 ]

let usable_pages t = (t.memory_mib - t.kernel_reserved_mib) * 1024 * 1024 / t.page_size
let usable_bytes t = usable_pages t * t.page_size

let memory_layout t =
  match t.file_cache with
  | `Unified ->
    (* Linux 2.2 balance: the cache yields to process memory, not the
       other way around; reserve ~4% of memory as the cache floor *)
    Memory.Unified_balanced
      {
        policy = t.file_policy;
        file_floor_pages = max 1 (usable_pages t * 4 / 100);
      }
  | `Fixed_mib mib ->
    Memory.Split
      {
        file_pages = mib * 1024 * 1024 / t.page_size;
        file_policy = t.file_policy;
        anon_policy = t.anon_policy;
      }

let with_noise t ~sigma = { t with noise_sigma = sigma }
let with_memory_mib t mib = { t with memory_mib = mib }
let with_file_policy t policy = { t with file_policy = policy }
let with_timer_resolution t ~ns = { t with timer_resolution_ns = max 1 ns }

let by_name n =
  match List.find_opt (fun p -> p.name = n) all with
  | Some p -> p
  | None -> invalid_arg ("Platform.by_name: unknown platform " ^ n)

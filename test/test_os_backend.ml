(* The OS functor seam: Simos-via-functor must be indistinguishable from
   calling the simulated kernel directly, and the typed error taxonomy
   must be total and consistent across backends. *)

open Simos
open Graybox_core

let tiny_linux =
  Platform.with_noise
    { Platform.linux_2_2 with Platform.memory_mib = 96; kernel_reserved_mib = 32 }
    ~sigma:0.0

(* ---- differential harness: flat API vs explicit Make (Os_sim) -------- *)

(* The surface both interpreters drive.  [Flat] is the historical direct
   API (itself [include Make (Os_sim)] today — this harness pins that
   equivalence so a future hand-written fast path cannot silently
   diverge); [Functorized] re-applies the functor explicitly. *)
module type API = sig
  val make_files :
    Kernel.env ->
    dir:string ->
    prefix:string ->
    count:int ->
    size:int ->
    string list

  val read_file : Kernel.env -> string -> unit

  val age_directory :
    Kernel.env ->
    Gray_util.Rng.t ->
    dir:string ->
    deletes:int ->
    creates:int ->
    size:int ->
    unit

  val paths_in : Kernel.env -> dir:string -> string list

  val order_files :
    Kernel.env ->
    Fccd.config ->
    paths:string list ->
    (Fccd.file_rank list, Kernel.error) result
end

module Flat : API = struct
  include Gray_apps.Workload

  let order_files = Fccd.order_files
end

module Functorized : API = struct
  include Gray_apps.Workload.Make (Os_sim)
  module F = Fccd.Make (Os_sim)

  let order_files = F.order_files
end

type op = Create of int * int | Read_nth of int | Age of int | Order

let op_to_string = function
  | Create (c, s) -> Printf.sprintf "create(%d,%d)" c s
  | Read_nth i -> Printf.sprintf "read(%d)" i
  | Age n -> Printf.sprintf "age(%d)" n
  | Order -> "order"

(* Run the op list through one API on a freshly-booted kernel; the
   observation is everything an application could see: final virtual
   time, the kernel's syscall/paging counters, and each ranking the
   FCCD produced along the way. *)
let interp (module A : API) ~seed ops =
  let engine = Engine.create () in
  let k = Ambient.boot ~engine ~platform:tiny_linux ~data_disks:1 ~seed () in
  let observed = ref [] in
  let final_time = ref 0 in
  Kernel.spawn k (fun env ->
      ignore (A.make_files env ~dir:"/d0/w" ~prefix:"f" ~count:5 ~size:8192);
      let rng = Gray_util.Rng.create ~seed:(seed + 1) in
      let gen = ref 0 in
      List.iter
        (fun op ->
          let paths = A.paths_in env ~dir:"/d0/w" in
          let n = List.length paths in
          match op with
          | Create (count, size) ->
            incr gen;
            ignore
              (A.make_files env ~dir:"/d0/w"
                 ~prefix:(Printf.sprintf "g%d_" !gen)
                 ~count ~size)
          | Read_nth i -> if n > 0 then A.read_file env (List.nth paths (i mod n))
          | Age d ->
            let deletes = min d (max 0 (n - 1)) in
            A.age_directory env rng ~dir:"/d0/w" ~deletes ~creates:d ~size:8192
          | Order -> (
            let config = Fccd.default_config ~seed:11 () in
            match A.order_files env config ~paths with
            | Ok ranked ->
              observed :=
                String.concat ","
                  (List.map (fun r -> r.Fccd.fr_path) ranked)
                :: !observed
            | Error e -> observed := Kernel.error_to_string e :: !observed))
        ops;
      final_time := Kernel.gettime env);
  Kernel.run k;
  (!final_time, Kernel.counters k, List.rev !observed)

let gen_op =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun c s -> Create (c, s * 4096)) (int_range 1 4) (int_range 1 4);
        map (fun i -> Read_nth i) (int_range 0 19);
        map (fun d -> Age d) (int_range 1 4);
        return Order;
      ])

let prop_sim_via_functor_identical =
  QCheck2.Test.make ~name:"os: Make(Os_sim) == direct sim, any workload"
    ~count:60
    ~print:(fun (seed, ops) ->
      Printf.sprintf "seed=%d ops=[%s]" seed
        (String.concat "; " (List.map op_to_string ops)))
    QCheck2.Gen.(pair (int_range 1 1000) (list_size (int_range 0 12) gen_op))
    (fun (seed, ops) ->
      interp (module Flat) ~seed ops = interp (module Functorized) ~seed ops)

(* The adapter really is the kernel: its bindings are aliases, not
   wrappers, so even the closures are physically equal. *)
let test_adapter_is_alias () =
  Alcotest.(check bool) "read is Kernel.read" true (Os_sim.read == Kernel.read);
  Alcotest.(check bool) "write is Kernel.write" true
    (Os_sim.write == Kernel.write);
  Alcotest.(check bool) "stat is Kernel.stat" true (Os_sim.stat == Kernel.stat)

(* ---- error taxonomy --------------------------------------------------- *)

let all_errors =
  [
    Kernel.Fs_error Fs.Enoent;
    Kernel.Fs_error Fs.Eexist;
    Kernel.Fs_error Fs.Enotdir;
    Kernel.Fs_error Fs.Eisdir;
    Kernel.Fs_error Fs.Enotempty;
    Kernel.Fs_error Fs.Enospc;
    Kernel.Bad_fd;
    Kernel.Bad_path;
    Kernel.Retryable;
    Kernel.Timeout;
    Kernel.Unsupported "vmstat";
    Kernel.Sys_error "EACCES";
  ]

let test_error_to_string_total_and_distinct () =
  let strings = List.map Kernel.error_to_string all_errors in
  List.iter
    (fun s -> Alcotest.(check bool) "non-empty" true (String.length s > 0))
    strings;
  Alcotest.(check int) "all distinct"
    (List.length strings)
    (List.length (List.sort_uniq compare strings))

let test_errno_round_trip () =
  let expect = Alcotest.testable Fmt.(of_to_string Kernel.error_to_string) ( = ) in
  let cases =
    [
      (Unix.ENOENT, Kernel.Fs_error Fs.Enoent);
      (Unix.EEXIST, Kernel.Fs_error Fs.Eexist);
      (Unix.ENOTDIR, Kernel.Fs_error Fs.Enotdir);
      (Unix.EISDIR, Kernel.Fs_error Fs.Eisdir);
      (Unix.ENOTEMPTY, Kernel.Fs_error Fs.Enotempty);
      (Unix.ENOSPC, Kernel.Fs_error Fs.Enospc);
      (Unix.EBADF, Kernel.Bad_fd);
      (Unix.EINTR, Kernel.Retryable);
      (Unix.EAGAIN, Kernel.Retryable);
      (Unix.EWOULDBLOCK, Kernel.Retryable);
      (Unix.EACCES, Kernel.Sys_error "EACCES");
      (Unix.EMFILE, Kernel.Sys_error "EMFILE");
      (Unix.EUNKNOWNERR 999, Kernel.Sys_error "errno:999");
    ]
  in
  List.iter
    (fun (errno, want) ->
      Alcotest.check expect
        (Kernel.error_to_string want)
        want (Os_host.errno_error errno))
    cases

(* Transience is decided by the taxonomy alone, identically for both
   backends: exactly the errors a retry loop can cure are [`Transient]. *)
let test_classify_consistent () =
  List.iter
    (fun e ->
      let want =
        match e with
        | Kernel.Retryable | Kernel.Timeout -> `Transient
        | _ -> `Permanent
      in
      Alcotest.(check bool)
        (Kernel.error_to_string e)
        true
        (Resilient.classify e = want))
    all_errors;
  (* the host's transient errnos classify transient after mapping *)
  List.iter
    (fun errno ->
      Alcotest.(check bool) "EINTR-family transient" true
        (Resilient.classify (Os_host.errno_error errno) = `Transient))
    [ Unix.EINTR; Unix.EAGAIN; Unix.EWOULDBLOCK ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_sim_via_functor_identical;
    Alcotest.test_case "Os_sim bindings are aliases" `Quick
      test_adapter_is_alias;
    Alcotest.test_case "error_to_string total + distinct" `Quick
      test_error_to_string_total_and_distinct;
    Alcotest.test_case "errno -> taxonomy round trip" `Quick
      test_errno_round_trip;
    Alcotest.test_case "classify consistent across backends" `Quick
      test_classify_consistent;
  ]

(* The test runner's edge.  GRAYBOX_FAULTS is read once, through the
   reader gbp and bench use, and reaches only the boots that go through
   [boot] or take [faults]/[planes]: those are what CI's canonical-fault
   pass exercises.  Every other boot installs only the planes it passes. *)

open Simos

let faults = (Graybox_core.Planes.of_env ()).faults
let planes = { Graybox_core.Planes.none with faults }

(* [Kernel.boot], with the environment's fault scenario where [faults]
   is absent. *)
let boot ~engine ~platform ?data_disks ?faults:pinned ?crash ~seed () =
  let faults = match pinned with None -> faults | Some _ -> pinned in
  Kernel.boot ~engine ~platform ?data_disks ?faults ?crash ~seed ()

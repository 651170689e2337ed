open Gray_util

type decision = {
  d_order : string list;
  d_in_cache : string list;
  d_on_disk : string list;
  d_separation : float;
}

let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v

module Make (Os : Os_intf.S) = struct
  module F = Fccd.Make (Os)
  module L = Fldc.Make (Os)

  let order_files env config ?(min_separation = 4.0) paths =
    match paths with
    | [] ->
      Ok { d_order = []; d_in_cache = []; d_on_disk = []; d_separation = 1.0 }
    | _ ->
      let* ranked = F.order_files env config ~paths in
      let times =
        Array.of_list (List.map (fun r -> float_of_int r.Fccd.fr_probe_ns) ranked)
      in
      let split =
        (* log-domain clustering: probe times span decades and a single
           outlier must not hijack the cache/disk split *)
        Cluster.two_means_log (Array.map (fun t -> Float.max 1.0 t) times)
      in
      let separation = Cluster.separation split in
      let cached, on_disk =
        if split.Cluster.high_count = 0 || separation < min_separation then
          ([], List.map (fun r -> r.Fccd.fr_path) ranked)
        else
          List.partition_map
            (fun r ->
              if float_of_int r.Fccd.fr_probe_ns <= split.Cluster.threshold then
                Left r.Fccd.fr_path
              else Right r.Fccd.fr_path)
            ranked
      in
      (* both groups i-number sorted: predictions may be wrong
         (Section 4.2.4: "each group is still sorted by i-number") *)
      let* cached_sorted = L.order_by_inumber env ~paths:cached in
      let* disk_sorted = L.order_by_inumber env ~paths:on_disk in
      let names so = List.map (fun s -> s.Fldc.so_path) so in
      Ok
        {
          d_order = names cached_sorted @ names disk_sorted;
          d_in_cache = cached;
          d_on_disk = on_disk;
          d_separation = separation;
        }
end

include Make (Os_sim)

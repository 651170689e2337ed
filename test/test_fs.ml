(* FFS-style layout model: namespace semantics and allocation behaviour. *)

open Simos

let small_fs () =
  (* 4 groups of 8192 blocks *)
  Fs.create (Fs.default_config ~total_blocks:(4 * 8192))

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected fs error: %s" (Fs.error_to_string e)

let err expected = function
  | Ok _ -> Alcotest.fail "expected error"
  | Error e -> Alcotest.(check string) "error" (Fs.error_to_string expected) (Fs.error_to_string e)

let kib4 = 4096

(* ---- namespace ---- *)

let test_create_lookup () =
  let fs = small_fs () in
  let ino = ok (Fs.create_file fs "/a") in
  Alcotest.(check int) "lookup finds it" ino (ok (Fs.lookup fs "/a"));
  err Fs.Enoent (Fs.lookup fs "/b")

let test_create_duplicate () =
  let fs = small_fs () in
  ignore (ok (Fs.create_file fs "/a"));
  err Fs.Eexist (Fs.create_file fs "/a")

let test_mkdir_nested () =
  let fs = small_fs () in
  ignore (ok (Fs.mkdir fs "/d"));
  ignore (ok (Fs.mkdir fs "/d/e"));
  let ino = ok (Fs.create_file fs "/d/e/f") in
  Alcotest.(check int) "nested lookup" ino (ok (Fs.lookup fs "/d/e/f"))

let test_lookup_through_file_fails () =
  let fs = small_fs () in
  ignore (ok (Fs.create_file fs "/a"));
  err Fs.Enotdir (Fs.lookup fs "/a/b")

let test_unlink () =
  let fs = small_fs () in
  ignore (ok (Fs.create_file fs "/a"));
  ok (Fs.unlink fs "/a");
  err Fs.Enoent (Fs.lookup fs "/a");
  err Fs.Enoent (Fs.unlink fs "/a")

let test_unlink_nonempty_dir () =
  let fs = small_fs () in
  ignore (ok (Fs.mkdir fs "/d"));
  ignore (ok (Fs.create_file fs "/d/a"));
  err Fs.Enotempty (Fs.unlink fs "/d");
  ok (Fs.unlink fs "/d/a");
  ok (Fs.unlink fs "/d")

let test_rename () =
  let fs = small_fs () in
  let ino = ok (Fs.create_file fs "/a") in
  ok (Fs.rename fs ~src:"/a" ~dst:"/b");
  err Fs.Enoent (Fs.lookup fs "/a");
  Alcotest.(check int) "same inode" ino (ok (Fs.lookup fs "/b"))

let test_rename_replaces_file () =
  let fs = small_fs () in
  let a = ok (Fs.create_file fs "/a") in
  ignore (ok (Fs.create_file fs "/b"));
  ok (Fs.rename fs ~src:"/a" ~dst:"/b");
  Alcotest.(check int) "b is old a" a (ok (Fs.lookup fs "/b"))

let test_rename_dir_over_nonempty_fails () =
  let fs = small_fs () in
  ignore (ok (Fs.mkdir fs "/d1"));
  ignore (ok (Fs.mkdir fs "/d2"));
  ignore (ok (Fs.create_file fs "/d2/x"));
  err Fs.Enotempty (Fs.rename fs ~src:"/d1" ~dst:"/d2")

let test_readdir () =
  let fs = small_fs () in
  ignore (ok (Fs.mkdir fs "/d"));
  ignore (ok (Fs.create_file fs "/d/a"));
  ignore (ok (Fs.create_file fs "/d/b"));
  let names = List.sort compare (ok (Fs.readdir fs "/d")) in
  Alcotest.(check (list string)) "entries" [ "a"; "b" ] names;
  err Fs.Enotdir (Fs.readdir fs "/d/a")

let test_times () =
  let fs = small_fs () in
  let ino = ok (Fs.create_file fs "/a") in
  ok (Fs.set_times fs ~ino ~atime:10 ~mtime:20);
  let st = ok (Fs.stat_ino fs ino) in
  Alcotest.(check int) "atime" 10 st.Fs.st_atime;
  Alcotest.(check int) "mtime" 20 st.Fs.st_mtime;
  Fs.mark_atime fs ~ino ~now:33;
  Alcotest.(check int) "atime marked" 33 (ok (Fs.stat_ino fs ino)).Fs.st_atime

(* ---- layout ---- *)

let test_resize_allocates_contiguously () =
  let fs = small_fs () in
  let ino = ok (Fs.create_file fs "/a") in
  ok (Fs.resize fs ~ino ~size:(10 * kib4));
  let layout = Fs.layout_of_file fs ~ino in
  Alcotest.(check int) "10 blocks" 10 (Array.length layout);
  Alcotest.(check (float 1e-9)) "contiguous" 0.0 (Fs.fragmentation_of_file fs ~ino);
  let st = ok (Fs.stat_ino fs ino) in
  Alcotest.(check int) "size" (10 * kib4) st.Fs.st_size;
  Alcotest.(check int) "blocks" 10 st.Fs.st_blocks

let test_resize_shrink_frees () =
  let fs = small_fs () in
  let free0 = Fs.free_blocks fs in
  let ino = ok (Fs.create_file fs "/a") in
  ok (Fs.resize fs ~ino ~size:(10 * kib4));
  Alcotest.(check int) "allocated" (free0 - 10) (Fs.free_blocks fs);
  ok (Fs.resize fs ~ino ~size:(3 * kib4));
  Alcotest.(check int) "freed" (free0 - 3) (Fs.free_blocks fs);
  Alcotest.(check int) "pages" 3 (Fs.pages_of_file fs ~ino)

let test_resize_dir_fails () =
  let fs = small_fs () in
  let ino = ok (Fs.mkdir fs "/d") in
  err Fs.Eisdir (Fs.resize fs ~ino ~size:kib4)

let test_unlink_returns_space () =
  let fs = small_fs () in
  let free0 = Fs.free_blocks fs and inodes0 = Fs.free_inodes fs in
  let ino = ok (Fs.create_file fs "/a") in
  ok (Fs.resize fs ~ino ~size:(100 * kib4));
  ok (Fs.unlink fs "/a");
  Alcotest.(check int) "blocks back" free0 (Fs.free_blocks fs);
  Alcotest.(check int) "inode back" inodes0 (Fs.free_inodes fs)

let test_creation_order_matches_inumber () =
  (* fresh directory: i-number order is creation order (Section 4.2.1) *)
  let fs = small_fs () in
  ignore (ok (Fs.mkdir fs "/d"));
  let inos =
    List.init 20 (fun i -> ok (Fs.create_file fs (Printf.sprintf "/d/f%02d" i)))
  in
  let sorted = List.sort compare inos in
  Alcotest.(check (list int)) "monotone inos" sorted inos

let test_inumber_order_matches_layout_when_fresh () =
  let fs = small_fs () in
  ignore (ok (Fs.mkdir fs "/d"));
  let files =
    List.init 20 (fun i ->
        let path = Printf.sprintf "/d/f%02d" i in
        let ino = ok (Fs.create_file fs path) in
        ok (Fs.resize fs ~ino ~size:(2 * kib4));
        ino)
  in
  let first_blocks = List.map (fun ino -> (Fs.layout_of_file fs ~ino).(0)) files in
  let sorted = List.sort compare first_blocks in
  Alcotest.(check (list int)) "layout follows creation" sorted first_blocks

let test_aging_breaks_correlation () =
  (* delete-and-recreate cycles reuse low inode slots and scattered blocks:
     i-number order must stop matching layout order *)
  let fs = small_fs () in
  ignore (ok (Fs.mkdir fs "/d"));
  let rng = Gray_util.Rng.create ~seed:5 in
  let n = 50 in
  for i = 0 to n - 1 do
    let ino = ok (Fs.create_file fs (Printf.sprintf "/d/f%02d" i)) in
    ok (Fs.resize fs ~ino ~size:(8 * kib4))
  done;
  (* age: 30 epochs of delete-5/create-5 *)
  let next_name = ref n in
  for _ = 1 to 30 do
    let names = ok (Fs.readdir fs "/d") in
    let arr = Array.of_list names in
    Gray_util.Rng.shuffle rng arr;
    for j = 0 to 4 do
      ok (Fs.unlink fs ("/d/" ^ arr.(j)))
    done;
    for _ = 1 to 5 do
      let ino = ok (Fs.create_file fs (Printf.sprintf "/d/g%04d" !next_name)) in
      incr next_name;
      ok (Fs.resize fs ~ino ~size:(8 * kib4))
    done
  done;
  let names = ok (Fs.readdir fs "/d") in
  let inos = List.map (fun nm -> ok (Fs.lookup fs ("/d/" ^ nm))) names in
  let by_ino = List.sort compare inos in
  let first_block ino = float_of_int (Fs.layout_of_file fs ~ino).(0) in
  let xs = Array.of_list (List.mapi (fun i _ -> float_of_int i) by_ino) in
  let ys = Array.of_list (List.map first_block by_ino) in
  let r = Gray_util.Correlate.pearson xs ys in
  Alcotest.(check bool)
    (Printf.sprintf "correlation degraded (r=%.3f)" r)
    true (r < 0.9)

let test_dir_placement_spreads_groups () =
  let fs = small_fs () in
  let d1 = ok (Fs.mkdir fs "/d1") in
  let d2 = ok (Fs.mkdir fs "/d2") in
  let g1 = Fs.group_of_ino d1 ~inodes_per_group:1024 in
  let g2 = Fs.group_of_ino d2 ~inodes_per_group:1024 in
  Alcotest.(check bool) "different groups" true (g1 <> g2)

let test_files_follow_directory_group () =
  let fs = small_fs () in
  ignore (ok (Fs.mkdir fs "/d1"));
  ignore (ok (Fs.mkdir fs "/d2"));
  let a = ok (Fs.create_file fs "/d1/a") in
  let b = ok (Fs.create_file fs "/d2/b") in
  let dir1 = ok (Fs.lookup fs "/d1") and dir2 = ok (Fs.lookup fs "/d2") in
  let ipg = 1024 in
  Alcotest.(check int) "a in d1's group"
    (Fs.group_of_ino dir1 ~inodes_per_group:ipg)
    (Fs.group_of_ino a ~inodes_per_group:ipg);
  Alcotest.(check int) "b in d2's group"
    (Fs.group_of_ino dir2 ~inodes_per_group:ipg)
    (Fs.group_of_ino b ~inodes_per_group:ipg)

let test_enospc () =
  let fs = Fs.create { Fs.total_blocks = 8192; blocks_per_group = 8192; inodes_per_group = 64 } in
  let ino = ok (Fs.create_file fs "/big") in
  let free = Fs.free_blocks fs in
  err Fs.Enospc (Fs.resize fs ~ino ~size:((free + 1) * kib4));
  ok (Fs.resize fs ~ino ~size:(free * kib4));
  Alcotest.(check int) "exactly full" 0 (Fs.free_blocks fs)

let test_inode_block_location () =
  let fs = small_fs () in
  let ino = ok (Fs.create_file fs "/a") in
  let block = Fs.inode_block fs ~ino in
  (* inode-table blocks of group 0 live at the start of the volume *)
  Alcotest.(check bool) "in group 0 inode table" true (block >= 0 && block < 32);
  ok (Fs.resize fs ~ino ~size:kib4);
  let data = (Fs.layout_of_file fs ~ino).(0) in
  Alcotest.(check bool) "data after inode table" true (data >= 32)

(* A volume whose size is not a multiple of the group size ends in a tail
   past the last whole group.  Those blocks belong to no group and are
   never free: a file that fills the last group up to its final block
   grows into the next group with free space, not into the tail. *)
let test_tail_past_last_group () =
  let fs = Fs.create { Fs.total_blocks = 20000; blocks_per_group = 8192; inodes_per_group = 1024 } in
  ignore (ok (Fs.mkdir fs "/d"));
  let ino = ok (Fs.create_file fs "/d/f") in
  Alcotest.(check int) "file in group 1" 1 (Fs.group_of_ino ino ~inodes_per_group:1024);
  ok (Fs.resize fs ~ino ~size:(8160 * kib4));
  let layout = Fs.layout_of_file fs ~ino in
  Alcotest.(check int) "group 1 filled to its last block" 16383 layout.(8159);
  ok (Fs.resize fs ~ino ~size:(8161 * kib4));
  Alcotest.(check int) "spills to group 0's first data block" 32
    (Fs.layout_of_file fs ~ino).(8160);
  Alcotest.(check int) "group 0 has one block fewer" 8159 (Fs.free_blocks fs);
  Alcotest.(check (list string)) "consistent" [] (Fs.check_full fs)

(* Two volumes that differ only in which group once held a block.  A
   group's ownership map is made at its first block allocation, and a map
   never made must equal one that owns nothing again, or the crash
   explorer's memoisation would miss equal states. *)
let test_equal_unmade_owner_map () =
  let volume ~grow_in =
    let fs = small_fs () in
    ignore (ok (Fs.mkdir fs "/x"));
    ignore (ok (Fs.mkdir fs "/y"));
    let fx = ok (Fs.create_file fs "/x/f") in
    let fy = ok (Fs.create_file fs "/y/f") in
    ok (Fs.resize fs ~ino:(if grow_in = "/x" then fx else fy) ~size:kib4);
    ok (Fs.unlink fs "/x/f");
    ok (Fs.unlink fs "/y/f");
    Fs.crash fs (* rotors back to 0 *);
    fs
  in
  let a = volume ~grow_in:"/x" and b = volume ~grow_in:"/y" in
  Alcotest.(check bool) "x and y in different groups" true
    (ok (Fs.lookup a "/x") / 1024 <> ok (Fs.lookup a "/y") / 1024);
  Alcotest.(check bool) "equal" true (Fs.equal a b);
  let f = ok (Fs.create_file a "/x/g") in
  ok (Fs.resize a ~ino:f ~size:kib4);
  Alcotest.(check bool) "a held block differs" false (Fs.equal a b)

let prop_no_double_allocation =
  (* Whatever sequence of creates/resizes/unlinks runs, no two live files
     may share a block, and free accounting must stay exact. *)
  QCheck2.Test.make ~name:"no double allocation under churn" ~count:60
    QCheck2.Gen.(list_size (int_range 1 80) (pair (int_range 0 2) (int_range 0 15)))
    (fun ops ->
      let fs = small_fs () in
      ignore (Fs.mkdir fs "/d");
      let live = Hashtbl.create 16 in
      let counter = ref 0 in
      let initial_free = Fs.free_blocks fs in
      List.iter
        (fun (op, arg) ->
          match op with
          | 0 ->
            let name = Printf.sprintf "/d/f%d" !counter in
            incr counter;
            (match Fs.create_file fs name with
            | Ok ino ->
              ignore (Fs.resize fs ~ino ~size:(arg * 4096));
              Hashtbl.replace live name ino
            | Error _ -> ())
          | 1 -> (
            let names = Hashtbl.fold (fun k _ acc -> k :: acc) live [] in
            match names with
            | [] -> ()
            | name :: _ ->
              ignore (Fs.unlink fs name);
              Hashtbl.remove live name)
          | _ -> (
            let names = Hashtbl.fold (fun k _ acc -> k :: acc) live [] in
            match names with
            | [] -> ()
            | name :: _ ->
              let ino = Hashtbl.find live name in
              ignore (Fs.resize fs ~ino ~size:(arg * 4096))))
        ops;
      (* check invariants *)
      let seen = Hashtbl.create 64 in
      let dup = ref false in
      let total_live_blocks = ref 0 in
      Hashtbl.iter
        (fun _ ino ->
          Array.iter
            (fun b ->
              if Hashtbl.mem seen b then dup := true;
              Hashtbl.replace seen b ();
              incr total_live_blocks)
            (Fs.layout_of_file fs ~ino))
        live;
      (not !dup) && Fs.free_blocks fs = initial_free - !total_live_blocks)

let suite =
  [
    Alcotest.test_case "create/lookup" `Quick test_create_lookup;
    Alcotest.test_case "create duplicate" `Quick test_create_duplicate;
    Alcotest.test_case "mkdir nested" `Quick test_mkdir_nested;
    Alcotest.test_case "lookup through file" `Quick test_lookup_through_file_fails;
    Alcotest.test_case "unlink" `Quick test_unlink;
    Alcotest.test_case "unlink nonempty dir" `Quick test_unlink_nonempty_dir;
    Alcotest.test_case "rename" `Quick test_rename;
    Alcotest.test_case "rename replaces file" `Quick test_rename_replaces_file;
    Alcotest.test_case "rename dir over nonempty" `Quick test_rename_dir_over_nonempty_fails;
    Alcotest.test_case "readdir" `Quick test_readdir;
    Alcotest.test_case "times" `Quick test_times;
    Alcotest.test_case "resize contiguous" `Quick test_resize_allocates_contiguously;
    Alcotest.test_case "resize shrink frees" `Quick test_resize_shrink_frees;
    Alcotest.test_case "resize dir fails" `Quick test_resize_dir_fails;
    Alcotest.test_case "unlink returns space" `Quick test_unlink_returns_space;
    Alcotest.test_case "creation order = i-number order" `Quick
      test_creation_order_matches_inumber;
    Alcotest.test_case "i-number order = layout order (fresh)" `Quick
      test_inumber_order_matches_layout_when_fresh;
    Alcotest.test_case "aging breaks correlation" `Quick test_aging_breaks_correlation;
    Alcotest.test_case "dir placement spreads" `Quick test_dir_placement_spreads_groups;
    Alcotest.test_case "files follow directory group" `Quick
      test_files_follow_directory_group;
    Alcotest.test_case "enospc" `Quick test_enospc;
    Alcotest.test_case "inode block location" `Quick test_inode_block_location;
    Alcotest.test_case "tail past the last group" `Quick test_tail_past_last_group;
    Alcotest.test_case "equal: unmade ownership map" `Quick test_equal_unmade_owner_map;
    QCheck_alcotest.to_alcotest prop_no_double_allocation;
  ]

(* Trace recording, persistence, and offline replay. *)

open Graybox_core

let ev_read path off len = Trace.Read { path; off; len }
let ev_write path off len = Trace.Write { path; off; len }

let test_roundtrip () =
  let t = Trace.create () in
  Trace.record t (ev_read "/d0/a" 0 8192);
  Trace.record t (ev_write "/d0/b" 4096 100);
  Trace.record t (Trace.Unlink { path = "/d0/a" });
  let t2 = Trace.of_string (Trace.to_string t) in
  Alcotest.(check int) "length" 3 (Trace.length t2);
  Alcotest.(check bool) "events equal" true (Trace.events t = Trace.events t2)

let test_rejects_bad_paths () =
  let t = Trace.create () in
  Alcotest.(check bool) "tab rejected" true
    (try
       Trace.record t (ev_read "a\tb" 0 1);
       false
     with Invalid_argument _ -> true)

(* Every malformed-line class produces a [Failure] whose message names the
   1-based offending line; a valid prefix must not hide it. *)
let check_parse_failure label input expected_fragments =
  match Trace.of_string input with
  | _ -> Alcotest.failf "%s: expected Failure" label
  | exception Failure msg ->
    List.iter
      (fun frag ->
        let found =
          let fl = String.length frag and ml = String.length msg in
          let rec at i = i + fl <= ml && (String.sub msg i fl = frag || at (i + 1)) in
          at 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S appears in %S" label frag msg)
          true found)
      expected_fragments

let test_parse_errors () =
  let ok = "R\t/d0/a\t0\t4096\n" in
  check_parse_failure "unknown tag" (ok ^ "X\tfoo\n") [ "line 2"; "unknown tag"; "\"X\"" ];
  check_parse_failure "bad field count (R)" (ok ^ ok ^ "R\tfoo\t1\n")
    [ "line 3"; "4 tab-separated fields" ];
  check_parse_failure "bad field count (U)" (ok ^ "U\tfoo\t3\n")
    [ "line 2"; "2 tab-separated fields" ];
  check_parse_failure "bad number" (ok ^ "R\tfoo\tx\t1\n")
    [ "line 2"; "offset"; "\"x\"" ];
  check_parse_failure "bad length" ("W\tfoo\t0\tzz\n") [ "line 1"; "length"; "\"zz\"" ];
  check_parse_failure "negative offset" (ok ^ "R\tfoo\t-1\t1\n")
    [ "line 2"; "negative" ]

let test_summarize () =
  let t = Trace.create () in
  Trace.record t (ev_read "/a" 0 100);
  Trace.record t (ev_read "/a" 100 100);
  Trace.record t (ev_write "/b" 0 50);
  Trace.record t (Trace.Unlink { path = "/c" });
  let s = Trace.summarize t in
  Alcotest.(check int) "events" 4 s.Trace.s_events;
  Alcotest.(check int) "reads" 2 s.Trace.s_reads;
  Alcotest.(check int) "writes" 1 s.Trace.s_writes;
  Alcotest.(check int) "unlinks" 1 s.Trace.s_unlinks;
  Alcotest.(check int) "bytes" 250 s.Trace.s_bytes;
  Alcotest.(check int) "files" 3 s.Trace.s_files

let test_replay_hit_rate () =
  let t = Trace.create () in
  (* touch one page twice: second access hits in any sane policy *)
  Trace.record t (ev_read "/a" 0 1);
  Trace.record t (ev_read "/a" 0 1);
  let r = Trace.replay t ~policy:Simos.Replacement.lru ~capacity_pages:4 in
  Alcotest.(check int) "hits" 1 r.Trace.rp_hits;
  Alcotest.(check int) "misses" 1 r.Trace.rp_misses;
  Alcotest.(check (float 0.001)) "rate" 0.5 r.Trace.rp_hit_rate

let test_replay_residency_and_unlink () =
  let t = Trace.create () in
  Trace.record t (ev_read "/a" 0 (4 * 4096));
  Trace.record t (ev_read "/b" 0 (4 * 4096));
  Trace.record t (Trace.Unlink { path = "/b" });
  let r = Trace.replay t ~policy:Simos.Replacement.lru ~capacity_pages:64 in
  Alcotest.(check (list (pair string (float 0.001)))) "only /a remains"
    [ ("/a", 1.0) ] r.Trace.rp_resident

let test_replay_capacity_pressure () =
  let t = Trace.create () in
  (* loop over 8 pages with capacity 4: LRU gets zero hits on re-reads *)
  for _ = 1 to 3 do
    for p = 0 to 7 do
      Trace.record t (ev_read "/loop" (p * 4096) 1)
    done
  done;
  let r = Trace.replay t ~policy:Simos.Replacement.lru ~capacity_pages:4 in
  Alcotest.(check int) "no hits under looping lru" 0 r.Trace.rp_hits

let test_compare_policies () =
  let t = Trace.create () in
  for _ = 1 to 4 do
    for p = 0 to 7 do
      Trace.record t (ev_read "/loop" (p * 4096) 1)
    done
  done;
  let ranking = Trace.compare_policies t ~capacity_pages:6 in
  Alcotest.(check int) "all policies ranked"
    (List.length Simos.Replacement.all_names)
    (List.length ranking);
  (* the looping workload is where eelru/mru-family beat lru *)
  let rate name = List.assoc name ranking in
  Alcotest.(check (float 0.001)) "lru thrashes" 0.0 (rate "lru");
  Alcotest.(check bool)
    (Printf.sprintf "eelru %.2f beats lru" (rate "eelru"))
    true
    (rate "eelru" > 0.2);
  Alcotest.(check bool) "sorted descending" true
    (let rates = List.map snd ranking in
     List.sort (fun a b -> compare b a) rates = rates)

let test_interpose_records_trace () =
  let engine = Simos.Engine.create () in
  let platform =
    Simos.Platform.with_noise
      { Simos.Platform.linux_2_2 with Simos.Platform.memory_mib = 96;
        kernel_reserved_mib = 32 }
      ~sigma:0.0
  in
  let k = Ambient.boot ~engine ~platform ~data_disks:1 ~seed:505 () in
  let trace = Trace.create () in
  Simos.Kernel.spawn k (fun env ->
      let agent =
        Interpose.create ~trace ~assumed_policy:Simos.Replacement.clock
          ~assumed_capacity_pages:1024 ()
      in
      Gray_apps.Workload.write_file env "/d0/f" 8192;
      let fd = Gray_apps.Workload.ok_exn (Simos.Kernel.open_file env "/d0/f") in
      ignore
        (Gray_apps.Workload.ok_exn
           (Interpose.read agent env fd ~path:"/d0/f" ~off:0 ~len:8192));
      Simos.Kernel.close env fd;
      Interpose.note_unlink agent ~path:"/d0/f");
  Simos.Kernel.run k;
  Alcotest.(check (list bool)) "read then unlink recorded" [ true; true ]
    (match Trace.events trace with
    | [ Trace.Read { path = "/d0/f"; off = 0; len = 8192 }; Trace.Unlink { path = "/d0/f" } ]
      -> [ true; true ]
    | _ -> [ false; false ])

let prop_roundtrip =
  let gen_event =
    QCheck2.Gen.(
      let path = map (fun i -> Printf.sprintf "/f%d" i) (int_range 0 20) in
      oneof
        [
          map3 (fun p o l -> Trace.Read { path = p; off = o; len = l }) path
            (int_range 0 100000) (int_range 0 100000);
          map3 (fun p o l -> Trace.Write { path = p; off = o; len = l }) path
            (int_range 0 100000) (int_range 0 100000);
          map (fun p -> Trace.Unlink { path = p }) path;
        ])
  in
  QCheck2.Test.make ~name:"trace text format round-trips" ~count:200
    QCheck2.Gen.(list_size (int_range 0 50) gen_event)
    (fun evs ->
      let t = Trace.create () in
      List.iter (Trace.record t) evs;
      Trace.events (Trace.of_string (Trace.to_string t)) = evs)

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "rejects bad paths" `Quick test_rejects_bad_paths;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "replay hit rate" `Quick test_replay_hit_rate;
    Alcotest.test_case "replay residency + unlink" `Quick test_replay_residency_and_unlink;
    Alcotest.test_case "replay capacity pressure" `Quick test_replay_capacity_pressure;
    Alcotest.test_case "compare policies" `Quick test_compare_policies;
    Alcotest.test_case "interpose records trace" `Quick test_interpose_records_trace;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]

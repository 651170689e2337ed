(* Unified telemetry plane.  See telemetry.mli for the contract; the two
   load-bearing properties are (a) the disabled path does nothing beyond
   one domain-local read, and (b) everything recorded is deterministic:
   timestamps come from an installed (virtual) clock or a per-sink tick
   counter, sampling is counter-based per name, exporters sort metric
   names and keep trace entries in recording order. *)

type value = Int of int | Float of float | String of string | Bool of bool
type attr = string * value

type mode = Off | Sample of int | Full

let mode_to_string = function
  | Off -> "off"
  | Full -> "full"
  | Sample n -> string_of_int n

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" | "none" | "" -> Ok Off
  | "full" -> Ok Full
  | s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok (Sample n)
    | Some _ | None ->
      Error "expected off, full, or a sample rate (an integer >= 1)")

let of_env () =
  Env.parse ~var:"GRAYBOX_TELEMETRY"
    ~expected:"off, full, or a sample rate (an integer >= 1)"
    ~on_invalid:`Exit ~default:Off (fun token ->
      match mode_of_string token with
      | Ok m -> Env.Value m
      | Error _ -> (
        match int_of_string_opt token with
        | Some n when n < 1 -> Soft ("sample rate below 1; telemetry stays off", Off)
        | Some _ | None -> Invalid))

(* ---- sinks ------------------------------------------------------------ *)

type metric =
  | Counter of { mutable c : int }
  | Dist of Stats.t
  | Hist of { h : Histogram.t; st : Stats.t; lo : float; hi : float; bins : int }

type entry =
  | Span of { name : string; ts : int; dur : int; spid : int; attrs : attr list }
  | Point of { name : string; ts : int; spid : int; attrs : attr list }

type sink = {
  s_name : string;
  s_mode : mode;
  mutable s_clock : (unit -> int) option;  (* None: the tick fallback *)
  mutable s_tick : int;
  mutable s_rev_entries : entry list;
  mutable s_spans : int;
  mutable s_events : int;
  s_seen : (string, int ref) Hashtbl.t;  (* per-name pre-sampling counts *)
  s_metrics : (string, metric) Hashtbl.t;
}

let create ?(mode = Full) ~name () =
  {
    s_name = name;
    s_mode = mode;
    s_clock = None;
    s_tick = 0;
    s_rev_entries = [];
    s_spans = 0;
    s_events = 0;
    s_seen = Hashtbl.create 32;
    s_metrics = Hashtbl.create 32;
  }

let sink_name s = s.s_name
let sink_mode s = s.s_mode

let now s =
  match s.s_clock with
  | Some f -> f ()
  | None ->
    s.s_tick <- s.s_tick + 1;
    s.s_tick

let ambient : sink option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let active () = Domain.DLS.get ambient
let enabled () = active () <> None
let disabled () = not (enabled ())

let with_sink s f =
  let prev = Domain.DLS.get ambient in
  Domain.DLS.set ambient (Some s);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient prev) f

let install_clock f =
  match active () with
  | None -> fun () -> ()
  | Some s ->
    let prev = s.s_clock in
    s.s_clock <- Some f;
    fun () -> s.s_clock <- prev

(* Sampling: the first occurrence of each name is entry 0 and always kept,
   so every span/event kind survives any sample rate. *)
let keep s name =
  let c =
    match Hashtbl.find_opt s.s_seen name with
    | Some c -> c
    | None ->
      let c = ref 0 in
      Hashtbl.replace s.s_seen name c;
      c
  in
  let kept =
    match s.s_mode with
    | Off -> false
    | Full -> true
    | Sample n -> !c mod n = 0
  in
  incr c;
  kept

(* ---- metrics registry ------------------------------------------------- *)

let kind_clash name =
  invalid_arg (Printf.sprintf "Telemetry: metric %s already has another kind" name)

let add_in s ?(n = 1) name =
  match Hashtbl.find_opt s.s_metrics name with
  | Some (Counter m) -> m.c <- m.c + n
  | Some _ -> kind_clash name
  | None -> Hashtbl.replace s.s_metrics name (Counter { c = n })

let observe_in s name v =
  match Hashtbl.find_opt s.s_metrics name with
  | Some (Dist st) -> Stats.add st v
  | Some _ -> kind_clash name
  | None ->
    let st = Stats.empty () in
    Stats.add st v;
    Hashtbl.replace s.s_metrics name (Dist st)

let observe_hist_in s name ~lo ~hi ~bins v =
  match Hashtbl.find_opt s.s_metrics name with
  | Some (Hist m) ->
    Histogram.add m.h v;
    Stats.add m.st v
  | Some _ -> kind_clash name
  | None ->
    let h = Histogram.create ~min:lo ~max:hi ~bins in
    let st = Stats.empty () in
    Histogram.add h v;
    Stats.add st v;
    Hashtbl.replace s.s_metrics name (Hist { h; st; lo; hi; bins })

(* ---- recording -------------------------------------------------------- *)

let eval_attrs = function None -> [] | Some f -> f ()

let span_end s ?attrs ?(spid = 0) name ~ts =
  let dur = max 0 (now s - ts) in
  add_in s (name ^ ".calls");
  observe_in s (name ^ ".ns") (float_of_int dur);
  if keep s name then begin
    s.s_rev_entries <-
      Span { name; ts; dur; spid; attrs = eval_attrs attrs } :: s.s_rev_entries;
    s.s_spans <- s.s_spans + 1
  end

let point s ?attrs ?(spid = 0) name =
  add_in s (name ^ ".count");
  if keep s name then begin
    s.s_rev_entries <-
      Point { name; ts = now s; spid; attrs = eval_attrs attrs } :: s.s_rev_entries;
    s.s_events <- s.s_events + 1
  end

let span ?attrs name f =
  match active () with
  | None -> f ()
  | Some s ->
    let ts = now s in
    let r = f () in
    span_end s ?attrs name ~ts;
    r

let event ?attrs name =
  match active () with None -> () | Some s -> point s ?attrs name

let add ?n name = match active () with None -> () | Some s -> add_in s ?n name

let observe name v =
  match active () with None -> () | Some s -> observe_in s name v

let observe_hist name ~lo ~hi ~bins v =
  match active () with None -> () | Some s -> observe_hist_in s name ~lo ~hi ~bins v

(* ---- introspection ---------------------------------------------------- *)

let span_count s = s.s_spans
let event_count s = s.s_events

let counter_value s name =
  match Hashtbl.find_opt s.s_metrics name with Some (Counter m) -> m.c | _ -> 0

let span_names s =
  Hashtbl.fold (fun name _ acc -> name :: acc) s.s_seen [] |> List.sort compare

(* ---- exporters -------------------------------------------------------- *)

let us_of_ns ns = float_of_int ns /. 1000.0

let json_of_value = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | String s -> Json.String s
  | Bool b -> Json.Bool b

let json_of_attrs attrs =
  Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) attrs)

(* Per-simulated-process track mapping: entries tagged with a non-zero
   [spid] (a simulated pid; the kernel tags every entry it records)
   render on their own named thread track, tid-packed as [tid *
   spid_stride + spid].  Untagged entries keep the plain [tid]. *)
let spid_stride = 1024

let chrome_events s ~pid ~tid =
  let open Json in
  let entry_spid = function Span { spid; _ } | Point { spid; _ } -> spid in
  let meta ?(tid = tid) name value =
    Obj
      [
        ("ph", String "M");
        ("name", String name);
        ("pid", Int pid);
        ("tid", Int tid);
        ("args", Obj [ ("name", String value) ]);
      ]
  in
  let entry_tid spid = if spid = 0 then tid else (tid * spid_stride) + spid in
  let entry = function
    | Span { name; ts; dur; spid; attrs } ->
      Obj
        ([
           ("ph", String "X");
           ("name", String name);
           ("cat", String name);
           ("pid", Int pid);
           ("tid", Int (entry_tid spid));
           ("ts", Float (us_of_ns ts));
           ("dur", Float (us_of_ns dur));
         ]
        @ if attrs = [] then [] else [ ("args", json_of_attrs attrs) ])
    | Point { name; ts; spid; attrs } ->
      Obj
        ([
           ("ph", String "i");
           ("s", String "t");
           ("name", String name);
           ("cat", String name);
           ("pid", Int pid);
           ("tid", Int (entry_tid spid));
           ("ts", Float (us_of_ns ts));
         ]
        @ if attrs = [] then [] else [ ("args", json_of_attrs attrs) ])
  in
  let spids =
    List.filter_map
      (fun e -> match entry_spid e with 0 -> None | s -> Some s)
      s.s_rev_entries
    |> List.sort_uniq compare
  in
  let spid_metas =
    List.map
      (fun spid ->
        meta ~tid:(entry_tid spid) "thread_name"
          (Printf.sprintf "%s/pid%d" s.s_name spid))
      spids
  in
  (meta "process_name" s.s_name :: meta "thread_name" s.s_name :: spid_metas)
  @ List.rev_map entry s.s_rev_entries

let chrome_trace events = Json.Obj [ ("traceEvents", Json.List events) ]

(* Merged metric views: the export shape for one sink and for an
   aggregate over many is the same. *)
type view =
  | VCounter of int
  | VDist of Stats.t
  | VHist of {
      v_lo : float;
      v_hi : float;
      v_bins : int;
      v_counts : int array;
      v_under : int;
      v_over : int;
      v_st : Stats.t;
    }

let view_of_metric = function
  | Counter m -> VCounter m.c
  | Dist st -> VDist (Stats.merge st (Stats.empty ()))
  | Hist m ->
    VHist
      {
        v_lo = m.lo;
        v_hi = m.hi;
        v_bins = m.bins;
        v_counts = Array.init m.bins (Histogram.bin_count m.h);
        v_under = Histogram.underflow m.h;
        v_over = Histogram.overflow m.h;
        v_st = Stats.merge m.st (Stats.empty ());
      }

let merge_view a b =
  match (a, b) with
  | VCounter x, VCounter y -> VCounter (x + y)
  | VDist x, VDist y -> VDist (Stats.merge x y)
  | VHist x, VHist y when x.v_lo = y.v_lo && x.v_hi = y.v_hi && x.v_bins = y.v_bins ->
    VHist
      {
        x with
        v_counts = Array.mapi (fun i c -> c + y.v_counts.(i)) x.v_counts;
        v_under = x.v_under + y.v_under;
        v_over = x.v_over + y.v_over;
        v_st = Stats.merge x.v_st y.v_st;
      }
  | _ -> invalid_arg "Telemetry: merging metrics of different kinds"

let dist_fields st =
  let open Json in
  [
    ("count", Int (Stats.count st));
    ("mean", Float (Stats.mean st));
    ("min", Float (Stats.min_value st));
    ("max", Float (Stats.max_value st));
    ("total", Float (Stats.total st));
  ]

let json_of_view = function
  | VCounter c -> Json.Int c
  | VDist st -> Json.Obj (dist_fields st)
  | VHist v ->
    Json.Obj
      (dist_fields v.v_st
      @ [
          ("lo", Json.Float v.v_lo);
          ("hi", Json.Float v.v_hi);
          ("underflow", Json.Int v.v_under);
          ("overflow", Json.Int v.v_over);
          ("bins", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) v.v_counts)));
        ])

let merged_views sinks =
  let views : (string, view) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun name m ->
          let v = view_of_metric m in
          match Hashtbl.find_opt views name with
          | None -> Hashtbl.replace views name v
          | Some prev -> Hashtbl.replace views name (merge_view prev v))
        s.s_metrics)
    sinks;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) views []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let metrics_json_of views =
  Json.Obj (List.map (fun (name, v) -> (name, json_of_view v)) views)

let metrics_json s = metrics_json_of (merged_views [ s ])
let merge_metrics_json sinks = metrics_json_of (merged_views sinks)

let summary sinks =
  let views = merged_views sinks in
  (* a span shows up as a <name>.ns distribution with a <name>.calls
     counter next to it; everything else is a plain metric *)
  let strip suffix name =
    let n = String.length name and k = String.length suffix in
    if n > k && String.sub name (n - k) k = suffix then Some (String.sub name 0 (n - k))
    else None
  in
  let counter name =
    match List.assoc_opt (name ^ ".calls") views with
    | Some (VCounter c) -> Some c
    | _ -> None
  in
  let spans =
    List.filter_map
      (fun (name, v) ->
        match (strip ".ns" name, v) with
        | Some base, VDist st -> (
          match counter base with Some c -> Some (base, c, st) | None -> None)
        | _ -> None)
      views
  in
  let span_bases = List.map (fun (b, _, _) -> b) spans in
  let is_span_derived name =
    List.exists
      (fun b -> name = b ^ ".ns" || name = b ^ ".calls")
      span_bases
  in
  let b = Buffer.create 1024 in
  if spans <> [] then begin
    let t =
      Table.create ~title:"spans (simulated time)"
        ~columns:[ "span"; "calls"; "total ms"; "mean us" ]
    in
    List.iter
      (fun (base, calls, st) ->
        Table.add_row t
          [
            base;
            string_of_int calls;
            Printf.sprintf "%.3f" (Stats.total st /. 1e6);
            Printf.sprintf "%.2f" (Stats.mean st /. 1e3);
          ])
      spans;
    Buffer.add_string b (Table.render t)
  end;
  let rest = List.filter (fun (name, _) -> not (is_span_derived name)) views in
  if rest <> [] then begin
    let t = Table.create ~title:"metrics" ~columns:[ "metric"; "value" ] in
    List.iter
      (fun (name, v) ->
        let rendered =
          match v with
          | VCounter c -> string_of_int c
          | VDist st ->
            Printf.sprintf "n=%d mean=%.3f min=%.3f max=%.3f" (Stats.count st)
              (Stats.mean st) (Stats.min_value st) (Stats.max_value st)
          | VHist h ->
            Printf.sprintf "n=%d mean=%.3f [%g, %g) %d bins" (Stats.count h.v_st)
              (Stats.mean h.v_st) h.v_lo h.v_hi h.v_bins
        in
        Table.add_row t [ name; rendered ])
      rest;
    Buffer.add_string b (Table.render t)
  end;
  Buffer.contents b

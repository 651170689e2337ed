open Gray_util

type detector = Timing | Vmstat

type config = {
  initial_increment : int;
  max_increment : int;
  consecutive_slow : int;
  slow_threshold_ns : int option;
  headroom : float;
  detection : detector;
  robust : bool;
  min_confidence : float;
}

let page = 4096
let mib = 1024 * 1024

let default_config ?repo () =
  let slow_threshold_ns =
    match repo with
    | None -> None
    | Some r -> (
      match
        ( Param_repo.get r Param_repo.key_page_in_ns,
          Param_repo.get r Param_repo.key_page_alloc_zero_ns )
      with
      | Some page_in, Some zero ->
        (* geometric mean separates "benign slow" (zero fill) from paging *)
        Some (int_of_float (sqrt (page_in *. zero)))
      | _ -> None)
  in
  {
    initial_increment = 8 * mib;
    max_increment = 16 * mib;
    consecutive_slow = 3;
    slow_threshold_ns;
    headroom = 0.15;
    detection = Timing;
    robust = false;
    min_confidence = 0.0;
  }

type stats = {
  s_probe_ns : int;
  s_steps : int;
  s_backoffs : int;
  s_chunks : int;
  s_suspect_chunks : int;
  s_confidence : float;
}

(* The "stats of the most recent gb_alloc" slot is domain-local: a MAC
   run on one domain of a bench pool must not clobber the stats another
   domain's run is about to read.  Shared across backends — the slot
   describes "the last gb_alloc on this domain", whichever OS ran it. *)
let last : stats Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        s_probe_ns = 0;
        s_steps = 0;
        s_backoffs = 0;
        s_chunks = 0;
        s_suspect_chunks = 0;
        s_confidence = 1.0;
      })

let last_stats () = Domain.DLS.get last

(* Stops at the k-th slow sample in a row (any slow sample when k < 1). *)
let has_consecutive_slow times ~threshold ~k =
  let k = max 1 k and n = Array.length times in
  let run = ref 0 and i = ref 0 in
  while !run < k && !i < n do
    if times.(!i) > threshold then incr run else run := 0;
    incr i
  done;
  !run >= k

(* Touch a range in bounded chunks so that competing processes get to run
   (and re-reference their working sets) while we probe — one huge vectored
   touch would outrun the page daemon's reference information. *)
let probe_chunk_pages = 256

module Make (Os : Os_intf.S) = struct
  type allocation = {
    a_region : Os.region;
    a_pages : int;
    a_bytes : int;
    a_confidence : float;
    mutable a_live : bool;
  }

  let bytes a = a.a_bytes
  let pages a = a.a_pages
  let region a = a.a_region
  let confidence a = a.a_confidence

  (* Self-calibration (Section 4.3.2, second method): time accesses to a few
     pages that are certainly resident, and fresh first-touches; "slow" is
     set well above the worst benign cost observed. *)
  let calibrate config env =
    Telemetry.span "core.mac.calibrate" (fun () ->
        let probe_pages = 64 in
        match Os.valloc env ~pages:probe_pages with
        | Error _ ->
          (* a backend that cannot even reserve the probe region gets the
             threshold floor — conservative, never a crash *)
          1_000
        | Ok r ->
          let first = Os.touch_pages env r ~first:0 ~count:probe_pages in
          let again = Os.touch_pages env r ~first:0 ~count:probe_pages in
          Os.vfree env r;
          let summarise =
            (* under fault injection a latency spike landing inside the
               calibration pass would inflate "benign" tenfold and blind the
               detector; the robust path rejects such outliers first *)
            if config.robust then Resilient.robust_median else Stats.median_of
          in
          let med a = summarise (Array.map float_of_int a) in
          let benign = Float.max (med first) (med again) in
          max 1_000 (int_of_float (10.0 *. benign)))

  (* Exposed so the adaptive layer can re-run calibration on demand (after
     an environment drift) and blend the fresh threshold with its prior. *)
  let calibrate_threshold config env = calibrate config env

  (* Touch up to [count] pages, chunk by chunk, stopping at the first
     consecutive-slow run: "if MAC notices consecutive slow data points
     [...] it immediately skips to the second loop" (Section 4.3.1).
     Stopping early is what keeps an over-reached step from swapping out
     megabytes of other processes' memory before we notice. *)
  let touch_adaptive env region ~first ~count ~chunk_slow =
    let touched = ref 0 in
    let slow = ref false in
    while (not !slow) && !touched < count do
      let n = min probe_chunk_pages (count - !touched) in
      let part = Os.touch_pages env region ~first:(first + !touched) ~count:n in
      touched := !touched + n;
      if chunk_slow part then slow := true
    done;
    (!touched, !slow)

  let gb_alloc env config ~min ~max ~multiple =
    if min <= 0 || max < min || multiple <= 0 then
      invalid_arg "Mac.gb_alloc: need 0 < min <= max and multiple > 0";
    let floor_multiple b = b / multiple * multiple in
    let effective_min = (min + multiple - 1) / multiple * multiple in
    if effective_min > max then
      invalid_arg "Mac.gb_alloc: no multiple of [multiple] within [min, max]";
    let max_pages = (max + page - 1) / page in
    let timing_detector () =
      let threshold =
        match config.slow_threshold_ns with Some t -> t | None -> calibrate config env
      in
      ( Some threshold,
        fun times -> has_consecutive_slow times ~threshold ~k:config.consecutive_slow )
    in
    let threshold_opt, chunk_slow_raw =
      match config.detection with
      | Timing -> timing_detector ()
      | Vmstat -> (
        (* any page traffic since the last chunk means the page daemon is
           active on our behalf (or somebody else's: coarser than timing,
           but exact where it fires) *)
        match Os.vmstat env with
        | Error _ ->
          (* graceful degradation: this backend has no paging counters, so
             fall back to the timing detector rather than fail the alloc *)
          timing_detector ()
        | Ok first ->
          let baseline = ref first in
          ( None,
            fun _times ->
              match Os.vmstat env with
              | Error _ -> false
              | Ok now ->
                let active =
                  now.Simos.Kernel.vm_page_outs > !baseline.Simos.Kernel.vm_page_outs
                  || now.Simos.Kernel.vm_page_ins > !baseline.Simos.Kernel.vm_page_ins
                in
                baseline := now;
                active ))
    in
    (* Confidence bookkeeping: a slow sample inside a detected k-run is
       paging; a slow sample in a chunk with NO such run is spike-like —
       something (a fault burst, an interrupt) inflated an isolated access.
       The fraction of spike-like samples is how murky the timing channel
       is, and lowers the decision's confidence.  The exact vmstat channel
       is always fully confident. *)
    let chunks = ref 0 and suspect_chunks = ref 0 in
    let page_samples = ref 0 and ambiguous = ref 0 in
    let chunk_slow times =
      incr chunks;
      let slow = chunk_slow_raw times in
      if slow then incr suspect_chunks;
      (match threshold_opt with
      | Some t ->
        page_samples := !page_samples + Array.length times;
        if not slow then
          Array.iter (fun x -> if x > t then incr ambiguous) times
      | None -> ());
      slow
    in
    let current_confidence () =
      if !page_samples = 0 then 1.0
      else 1.0 -. (float_of_int !ambiguous /. float_of_int !page_samples)
    in
    let tele = Telemetry.active () in
    let ts = match tele with None -> 0 | Some s -> Telemetry.now s in
    let t0 = Os.gettime env in
    match Os.valloc env ~pages:max_pages with
    | Error _ ->
      (* the reservation itself was refused (host only: the sim's address
         space is free) — that already answers the admission question *)
      Domain.DLS.set last
        {
          s_probe_ns = Os.gettime env - t0;
          s_steps = 0;
          s_backoffs = 0;
          s_chunks = 0;
          s_suspect_chunks = 0;
          s_confidence = 1.0;
        };
      None
    | Ok region ->
    let min_step = Stdlib.max 1 (config.initial_increment / page) in
    let committed = ref 0 in
    let increment = ref min_step in
    let steps = ref 0 and backoffs = ref 0 in
    let failed = ref false in
    let continue_ = ref true in
    while !continue_ && !committed < max_pages && not !failed do
      let step = Stdlib.min !increment (max_pages - !committed) in
      incr steps;
      (* First loop: move the new chunk to a known state, bailing out at the
         first sign of paging. *)
      let touched, _suspect =
        touch_adaptive env region ~first:!committed ~count:step ~chunk_slow
      in
      let candidate = !committed + touched in
      (* Second loop: verify the whole candidate stays resident, also
         stopping as soon as paging is certain. *)
      let _, verify_slow = touch_adaptive env region ~first:0 ~count:candidate ~chunk_slow in
      if verify_slow then begin
        (* "analogous to but more conservative than the TCP congestion-
           control scheme": the first verified failure ends the climb.
           Re-probing after a failure is self-deceiving — the verification's
           own page-ins make the candidate look resident again while
           evicting the neighbours, so competing gb_allocs would never
           converge. *)
        incr backoffs;
        Telemetry.event "core.mac.backoff"
          ~attrs:(fun () ->
            [ ("phase", Telemetry.String "climb"); ("committed", Telemetry.Int !committed) ]);
        Os.vrelease env region ~first:!committed ~count:touched;
        continue_ := false
      end
      else begin
        (* the verification decides: even a suspected first loop counts if
           every page of the candidate proved resident *)
        committed := candidate;
        increment := Stdlib.min (!increment * 2) (Stdlib.max 1 (config.max_increment / page))
      end
    done;
    (* "we must make MAC slightly less aggressive" (Section 4.3.1): when the
       probing ran into replacement (rather than simply reaching the
       requested maximum), grant a little less than what fit, leaving cache
       room for the caller's own file I/O *)
    let discounted =
      if !backoffs = 0 && !committed = max_pages then !committed * page
      else int_of_float ((1.0 -. config.headroom) *. float_of_int (!committed * page))
    in
    let granted_bytes = floor_multiple (Stdlib.min max discounted) in
    let tele_finish ~granted =
      match tele with
      | None -> ()
      | Some s ->
        Telemetry.add_in s ~n:!steps "core.mac.steps";
        Telemetry.add_in s ~n:!backoffs "core.mac.backoffs";
        Telemetry.observe_in s "core.mac.confidence" (current_confidence ());
        Telemetry.span_end s "core.mac.gb_alloc" ~ts
          ~attrs:(fun () ->
            [
              ("steps", Telemetry.Int !steps);
              ("backoffs", Telemetry.Int !backoffs);
              ("granted", Telemetry.Int granted);
            ])
    in
    let record_stats () =
      Domain.DLS.set last
        {
          s_probe_ns = Os.gettime env - t0;
          s_steps = !steps;
          s_backoffs = !backoffs;
          s_chunks = !chunks;
          s_suspect_chunks = !suspect_chunks;
          s_confidence = current_confidence ();
        }
    in
    record_stats ();
    if granted_bytes < effective_min then begin
      Os.vfree env region;
      tele_finish ~granted:0;
      None
    end
    else begin
      let granted_pages = (granted_bytes + page - 1) / page in
      if granted_pages < !committed then
        Os.vrelease env region ~first:granted_pages ~count:(!committed - granted_pages);
      (* Settle: the grant is handed out only once a full write pass over it
         runs without paging ("MAC atomically identifies and allocates this
         memory").  Under a race of several gb_allocs the climbers all
         overshoot a little; shrinking here is what lets the group converge
         under the machine's capacity. *)
      let shrink = Stdlib.max 1 (config.initial_increment / page) in
      let rec settle pages =
        let bytes = floor_multiple (Stdlib.min max (pages * page)) in
        if bytes < effective_min then None
        else begin
          let p = (bytes + page - 1) / page in
          let _, paged = touch_adaptive env region ~first:0 ~count:p ~chunk_slow in
          if not paged then Some (p, bytes)
          else begin
            incr backoffs;
            Telemetry.event "core.mac.backoff"
              ~attrs:(fun () ->
                [ ("phase", Telemetry.String "settle"); ("pages", Telemetry.Int p) ]);
            let next = Stdlib.max 0 (p - shrink) in
            Os.vrelease env region ~first:next ~count:(p - next);
            settle next
          end
        end
      in
      let result =
        if !backoffs = 0 then Some (granted_pages, granted_bytes)
        else Telemetry.span "core.mac.settle" (fun () -> settle granted_pages)
      in
      record_stats ();
      match result with
      | None ->
        Os.vfree env region;
        tele_finish ~granted:0;
        None
      | Some (a_pages, a_bytes) ->
        let conf = current_confidence () in
        let a_pages, a_bytes =
          if conf < config.min_confidence && a_bytes > effective_min then begin
            (* graceful degradation: the timing channel was too murky to
               trust the climb, so grant only the conservative minimum the
               caller said it can live with *)
            let p = (effective_min + page - 1) / page in
            if p < a_pages then
              Os.vrelease env region ~first:p ~count:(a_pages - p);
            (p, effective_min)
          end
          else (a_pages, a_bytes)
        in
        tele_finish ~granted:a_bytes;
        Some { a_region = region; a_pages; a_bytes; a_confidence = conf; a_live = true }
    end

  let touch_all env a =
    if not a.a_live then invalid_arg "Mac.touch_all: allocation freed";
    ignore (Os.touch_pages env a.a_region ~first:0 ~count:a.a_pages)

  let gb_free env a =
    if a.a_live then begin
      a.a_live <- false;
      Os.vfree env a.a_region
    end
end

include Make (Os_sim)

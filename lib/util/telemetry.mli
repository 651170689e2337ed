(** Unified telemetry plane: structured spans/events, a metrics registry
    and deterministic exporters.

    The whole reproduction is about *observation* — ICLs inferring hidden
    OS state from probe timings — yet the ICLs themselves were invisible.
    This module gives every layer of the stack (engine, kernel, ICL hot
    paths, benches) one ambient, zero-cost-when-off instrumentation
    surface:

    - {b spans} record an interval of {e simulated} time under a
      dot-separated name ([layer.component.op], e.g. ["simos.kernel.read"],
      ["core.fccd.probe_extent"]) with optional structured attributes;
    - {b events} are instantaneous points (a retry, an injected fault);
    - {b metrics} are named counters / distributions / fixed-bin
      histograms (reusing {!Stats} and {!Histogram}); every span also
      feeds a [<name>.calls] counter and a [<name>.ns] duration
      distribution, so the metrics registry is populated even when the
      trace stream is sampled down.

    Determinism is a hard contract: timestamps come from a clock the
    simulation engine installs (virtual nanoseconds), sampling is
    counter-based (never randomized), and exporters emit in recording
    order with sorted metric names — so a traced run is byte-identical
    across process runs and across any [-j] when each task owns its sink.

    When no sink is installed ({!enabled}[ () = false]) every operation
    reduces to one domain-local read and returns; no allocation beyond
    the caller's closures, no RNG draws, no clock reads — simulation
    results are bit-identical to an uninstrumented build. *)

(** {1 Attributes} *)

type value = Int of int | Float of float | String of string | Bool of bool
type attr = string * value

(** {1 Modes}

    [Sample n] keeps every [n]-th span/event {e per name} in the trace
    stream (the first occurrence of each name is always kept, so a
    sampled trace still shows every span kind at least once); metrics are
    never sampled.  [Full] keeps everything. *)

type mode = Off | Sample of int | Full

val mode_to_string : mode -> string

val mode_of_string : string -> (mode, string) result
(** ["off"]/["none"]/[""] are [Off]; ["full"] is [Full]; an integer [n >= 1]
    is [Sample n].  Anything else is [Error reason]. *)

val of_env : unit -> mode
(** Reads [GRAYBOX_TELEMETRY] with the same warn/error semantics as
    [GRAYBOX_TRIALS]: unset is [Off]; a sample rate below 1 warns on
    stderr and falls back to [Off]; an unparsable value prints an error
    and exits 2. *)

(** {1 Sinks} *)

type sink
(** A sink owns the recorded trace entries and the metrics registry of
    one traced execution (one bench task, one CLI run).  Sinks are not
    thread-safe; give each domain its own. *)

val create : ?mode:mode -> name:string -> unit -> sink
(** [mode] defaults to [Full].  [create ~mode:Off] records nothing but
    still counts metrics. *)

val sink_name : sink -> string
val sink_mode : sink -> mode

val with_sink : sink -> (unit -> 'a) -> 'a
(** Install [sink] as the calling domain's ambient sink for the duration
    of the callback (restoring the previous one afterwards, also on
    exceptions). *)

val active : unit -> sink option
(** The ambient sink of the calling domain, if any.  Hot paths read this
    once and use the [_in] operations below. *)

val enabled : unit -> bool
val disabled : unit -> bool
(** [disabled () = not (enabled ())] — the fast-path guard. *)

(** {1 Clock}

    A sink timestamps entries with its clock, in nanoseconds.  The
    default clock is a per-sink tick counter (monotonic, deterministic);
    {!Simos.Engine.run} installs the virtual clock for the duration of a
    run so spans measure simulated time. *)

val install_clock : (unit -> int) -> unit -> unit
(** [install_clock f] sets the ambient sink's clock to [f] and returns a
    restore function (a no-op when no sink is installed). *)

val now : sink -> int
(** Read the sink's clock. *)

(** {1 Recording (ambient sink)} *)

val span : ?attrs:(unit -> attr list) -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording the interval under [name].  [attrs]
    is only evaluated when the entry is actually kept.  With no sink
    installed this is just [f ()].  If [f] raises, nothing is recorded. *)

val event : ?attrs:(unit -> attr list) -> string -> unit
val add : ?n:int -> string -> unit
(** Bump counter metric [name] by [n] (default 1). *)

val observe : string -> float -> unit
(** Feed distribution metric [name] (count/mean/stddev/min/max). *)

val observe_hist : string -> lo:float -> hi:float -> bins:int -> float -> unit
(** Feed fixed-bin histogram metric [name]; the bounds are fixed by the
    first call and must not change. *)

(** {1 Recording (explicit sink — hot paths)}

    These skip the domain-local lookup; callers hold the [sink] from one
    {!active} read.  [span_end] records a span that started at clock
    value [ts] and ends now.

    [spid] tags the entry with the {e simulated} pid on whose behalf the
    work happened (0 = untagged, the default): the Chrome exporter maps
    each tagged pid to its own named thread track.  The kernel tags
    every span and point it records. *)

val span_end :
  sink -> ?attrs:(unit -> attr list) -> ?spid:int -> string -> ts:int -> unit

val point : sink -> ?attrs:(unit -> attr list) -> ?spid:int -> string -> unit
val add_in : sink -> ?n:int -> string -> unit
val observe_in : sink -> string -> float -> unit

(** {1 Introspection} *)

val span_count : sink -> int
(** Spans recorded into the trace stream (post-sampling). *)

val event_count : sink -> int
val counter_value : sink -> string -> int
(** Value of a counter metric; 0 when absent. *)

val span_names : sink -> string list
(** Distinct names seen (pre-sampling), sorted. *)

(** {1 Exporters}

    All exporters are deterministic: trace entries in recording order,
    metrics sorted by name. *)

val chrome_events : sink -> pid:int -> tid:int -> Json.t list
(** The sink's entries as Chrome [trace_event] objects (["ph":"X"]
    complete spans and ["ph":"i"] instants, [ts]/[dur] in microseconds) —
    loadable in Perfetto once wrapped with {!chrome_trace}.  Includes
    process/thread [M]etadata events naming [pid]/[tid] after the sink.
    Entries tagged with a simulated pid ([spid]) render on a dedicated
    thread track [tid * 1024 + spid], named ["<sink>/pid<spid>"] by an
    extra metadata event; untagged entries keep the plain [tid]. *)

val chrome_trace : Json.t list -> Json.t
(** Wrap merged event lists as [{"traceEvents": [...]}]. *)

val metrics_json : sink -> Json.t
(** The metrics registry: object keyed by metric name (sorted), counters
    as ints, distributions as [{count, mean, min, max, total}],
    histograms additionally with bin counts. *)

val merge_metrics_json : sink list -> Json.t
(** Aggregated view across sinks (counters sum, distributions merge via
    parallel Welford, histogram bins add).  Same shape as
    {!metrics_json}. *)

val summary : sink list -> string
(** Human-readable summary: one table of spans (calls, total/mean
    simulated time) and one of the remaining metrics, aggregated across
    the given sinks. *)

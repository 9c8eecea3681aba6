(** Campaign execution: golden runs, injection runs, golden-run
    comparison (Sections 6 and 7.3).

    The runner steps a {!Sut.instance} millisecond by millisecond and,
    after each step, reads every observable signal once into a flat
    sample that it hands to a streaming {!Observer}.  A golden run
    executes until the SUT reports completion (or [max_ms] as a safety
    net) and is then {e frozen} ({!Golden.freeze}) into a compact
    immutable form; each injection run executes for {e exactly} the
    duration of its test case's golden run — or less, when every
    monitored signal has already diverged and the divergence observer
    saturates — so divergence timestamps compare sample by sample
    without any per-run trace materialization. *)

val default_max_ms : int
(** 20,000 simulated ms. *)

val golden_run : ?max_ms:int -> Sut.t -> Testcase.t -> Trace_set.t
(** Runs without injections and returns the reference traces. *)

val observed_run :
  ?rng:Simkernel.Rng.t ->
  ?run_timeout_ms:int ->
  Sut.t ->
  duration_ms:int ->
  Testcase.t ->
  Injection.t ->
  Observer.t ->
  int * Results.status
(** One injection run driven through an observer: the injection is
    registered as a one-shot trap corruption at the start of its
    millisecond (announced via {!Observer.t.on_injection}), every
    millisecond's signal values are pushed through
    {!Observer.t.on_sample}, and the run stops early once the observer
    reports saturation at or after the injection instant (a
    deterministic SUT cannot diverge before it).  The run also stops
    the millisecond the SUT first reports [finished] — an injected run
    may reach its end state before (or after) the golden duration, and
    the observer's length-mismatch rule needs the true length.

    The run is fault-tolerant: an exception escaping the SUT
    (instantiation, injection, stepping or sampling) becomes
    [Crashed { at_ms; reason }] — [at_ms] the simulated millisecond it
    escaped, [reason] the exception rendered with separators
    sanitised — instead of propagating.  [run_timeout_ms] arms a
    wall-clock watchdog, checked between simulated milliseconds; a run
    over budget stops with [Hung { budget_ms }].  Without it (the
    default) a run may take unbounded wall time.

    Returns the number of simulated milliseconds actually run — which
    is also passed to {!Observer.t.finish}, so on a crash every signal
    yet to diverge is marked diverged at the crash instant — together
    with the run's {!Results.status}.  [rng] feeds non-deterministic
    error models and defaults to a fixed seed.  An injection time
    beyond the duration leaves the run golden.
    @raise Invalid_argument if the target signal is unknown to the SUT
    or [run_timeout_ms < 1]. *)

val run_experiment :
  ?rng:Simkernel.Rng.t ->
  ?truncate_after_ms:int ->
  ?run_timeout_ms:int ->
  ?observers:Observer.t list ->
  Sut.t ->
  golden:Golden.frozen ->
  Testcase.t ->
  Injection.t ->
  Results.outcome
(** One injection run with streaming golden-run comparison against the
    frozen golden: divergences are detected per sample in O(1), and the
    run early-exits once every signal has diverged.  The outcome is
    exactly what post-hoc {!Golden.compare_runs} over recorded traces
    would report (property-tested).  With [truncate_after_ms] the
    comparison window is bounded by the truncated run's duration.
    [observers] ride along on the same run (e.g. a latency observer or
    an opt-in {!Observer.recorder}); early exit then additionally waits
    for {e their} saturation, so adding a recorder restores the full
    fixed-duration run.

    The outcome carries the run's {!Results.status} (see
    {!observed_run} for crash and [run_timeout_ms] watchdog
    semantics).  A [Crashed] outcome keeps its divergences — every
    signal diverges by the crash instant at the latest; a [Hung]
    outcome's divergences are discarded (how far the run got is
    wall-clock dependent, and outcomes must stay deterministic). *)

(** {1 Campaign configuration} *)

module Config = Config
(** Every knob a campaign accepts, in one plain record (see
    {!Propane.Config}). *)

(** {1 Campaign engine}

    {!run} executes a whole campaign — serially or across worker
    domains — streaming outcomes to an optional {!Journal} and
    reporting progress through typed {!event}s.  Campaigns are
    deterministic for a fixed [seed]: each run's random generator is
    derived from the seed and the experiment index alone, never from
    execution order, so [jobs = n] produces outcome-for-outcome the
    same {!Results.t} as [jobs = 1], and an interrupted campaign
    resumed from its journal matches an uninterrupted one exactly.

    Journals are additionally {e byte}-identical across [jobs] values:
    {!run} is two thin drivers — a serial loop and a domain pool — over
    one {!Session}, which writes records in strict campaign-index order
    whatever order runs complete in.  The cluster coordinator and the
    campaign service drive the same session. *)

type event = Session.event =
  | Started of { total : int; skipped : int; jobs : int }
  | Goldens_done of { testcases : int }
  | Worker_attached of { worker : int; host : string; pid : int }
  | Run_done of {
      index : int;
      worker : int;
      completed : int;
      total : int;
      status : Results.status;
      retries : int;
    }
  | Analysis_tick of Live.digest
  | Finished of { completed : int; total : int }
(** The life of a campaign, as {!Session} reports it (documented at
    {!Session.event}). *)

exception Failed_run of { index : int; outcome : Results.outcome }
(** {!Session.Failed_run}: raised by {!run} under [fail_fast] when a
    run is still crashed or hung after its retry budget.  The failed
    outcome has already been journalled and reported via [Run_done]
    when this escapes. *)

val run :
  ?config:Config.t ->
  ?on_event:(event -> unit) ->
  ?on_run_traces:(index:int -> Trace_set.t -> unit) ->
  ?live:Live.t ->
  ?select:(int -> bool) ->
  ?cells:Journal.cell list ->
  ?recipe:string ->
  ?plan:Plan.t ->
  Sut.t ->
  Campaign.t ->
  Results.t
(** Runs every experiment of {!Campaign.experiments} under [config]
    (default {!Config.default}) and returns the outcomes in campaign
    order.  Campaign options live in the {!Config.t}; only the runtime
    attachments — callbacks and the stateful live analysis — remain
    parameters.  Field names below refer to the config record.

    {b Partial campaigns (cell reuse).}  [select] restricts execution
    to the experiment indices it accepts — the scheduling primitive
    behind [campaign --reuse] ({!Reuse}), where only the runs
    injecting into dirty targets are re-executed.  Indices keep their
    full-campaign meaning: each selected run draws the same RNG stream
    and produces the same outcome as in an unrestricted campaign, the
    journal keeps the full campaign [total], and resume composes with
    selection (a journalled index is skipped, a deselected one never
    runs).  Deselected indices are absent from the returned
    {!Results.t}.  [cells] writes cell provenance records
    ({!Journal.append_cells}) right after the header of a freshly
    created journal — resumes never rewrite them.  [recipe] is stored
    in a freshly created journal's header ({!Journal.create}) so
    [propane replay] can rebuild the campaign; resumes keep the
    original line.

    {b Live analysis and adaptive stopping.}  [live] attaches a
    {!Live.t}: every completed outcome (including journal replays, in
    index order) is folded into its streaming estimation and
    incremental analysis, and each refresh is reported as an
    {!event.Analysis_tick}.  [stop_when] (requires [live]) ends the
    campaign as soon as {!Live.satisfied} holds: with [jobs = 1] no
    further run starts — the stop point is deterministic for a fixed
    seed — while with [jobs > 1] workers stop taking new runs and the
    runs already in flight still complete and journal (which runs
    those are depends on scheduling, but each of their outcomes is
    index-deterministic as always).  The runs never executed are
    simply absent from the returned {!Results.t} and from the journal,
    so an early-stopped campaign resumes exactly where it stopped if
    re-run without the rule.

    {b Budgeted campaigns (the plan layer).}  [plan] attaches a
    {!Plan.t} work source: instead of executing every (selected)
    experiment, the budget scheduler decides round by round which
    indices run, feeding completed outcomes back into its own analysis
    at deterministic barriers — see {!Plan}.  Requires
    [config.budget]; the plan must be freshly created for this run (it
    is primed with the journal's replayed outcomes, which is how a
    resumed planned campaign re-derives its round sequence instead of
    re-executing it).  When the plan runs to exhaustion, its
    allocation history is appended to the journal
    ({!Journal.append_rounds}) after any parked records, so planned
    journals are byte-identical across [jobs] values, cluster
    execution and kill-and-resume just like unplanned ones.  Indices
    the plan never allocates are absent from the returned results and
    the journal, exactly like deselected ones.

    [jobs] (default 1) is the number of worker domains.  With
    [jobs = 1] everything happens in the calling domain; otherwise
    [jobs] domains only take indices and execute injection runs, while
    the calling domain alone records their outcomes into the session
    (journal, events, live analysis).  Golden runs execute up front in
    the calling domain and are frozen ({!Golden.freeze}) before being
    shared read-only across domains; every injection run gets a fresh
    SUT instance, so the SUT's [instantiate] must not rely on global
    mutable state.

    Runs are streamed: no per-run trace is materialized and a run
    stops as soon as every signal has diverged.  [on_run_traces]
    attaches a {!Observer.recorder} to every injection run (full-length
    runs, per-run trace allocation — outcomes are identical either way)
    and receives each run's recorded traces just before its outcome is
    recorded (so before its [Run_done] event); like [on_event] it is
    always called from the calling domain, in completion order.

    [journal] streams every outcome to an append-only {!Journal} at
    that path.  Appends pass through a reorder buffer: a cursor writes
    records in strict campaign-index order, so the journal of a
    [jobs = n] campaign is byte-identical to the serial one — out of
    order completions park in memory (workers never stall on the
    writer) until the gap before them fills.  Records are committed to
    disk every [journal_batch] appends (and at close), so a killed
    campaign loses at most [journal_batch - 1] records plus a
    truncated fragment; what is on disk is always an exact prefix of
    the serial journal, and resume re-runs exactly the missing tail.
    Only an early stop (fail-fast, adaptive rule) can append completed
    runs beyond a never-filled gap out of order, just before close, so
    no finished work is lost.  With [resume] (requires [journal]) a
    pre-existing journal is replayed first: completed experiment
    indices are skipped and the campaign continues where it stopped.
    The journal must match the campaign's SUT, name, seed and size.

    [on_event] observes the life of the campaign (see {!event});
    events are always emitted from the calling domain, in order, so
    the callback needs no synchronisation.  Feed them to
    {!Telemetry.observe} for throughput and ETA.

    {b Failure handling.}  A run whose SUT raises or (with
    [run_timeout_ms]) exceeds its wall-clock budget does {e not} abort
    the campaign: it yields a {!Results.Crashed} / {!Results.Hung}
    outcome (see {!observed_run}), journalled and counted like any
    other.  [retries] (default 0) re-executes such a run up to that
    many times — each attempt on a fresh RNG stream derived from the
    seed, index and attempt number, so retried campaigns stay
    order-independent — and keeps the last attempt's outcome.
    [fail_fast] (default [false]) restores abort semantics: once a
    run's retry budget is exhausted, {!Failed_run} is raised after the
    failed outcome has been journalled; with [jobs > 1] the remaining
    workers stop taking new runs, finish (and journal) the runs
    already in flight, and the campaign raises after they drain.  The
    same prompt-abort path serves any exception escaping a worker.
    Note that [Hung] is inherently wall-clock dependent: which runs
    hang (and therefore what a retry re-executes) can differ between
    invocations on a loaded machine, while [Crashed] outcomes are
    fully deterministic.

    @raise Invalid_argument if {!Config.validate} rejects [config], if
    [stop_when] is set without [live], or if a journal fails to load
    or belongs to a different campaign.
    @raise Failed_run under [fail_fast] as described above.
    @raise Sys_error on journal I/O failure. *)

val executor :
  ?config:Config.t ->
  seed:int64 ->
  Sut.t ->
  Campaign.t ->
  int ->
  Results.outcome * int
(** The single-run entry point a cluster worker process drives (see
    {!Cluster}): [executor ~seed sut campaign] prepares the campaign
    once and returns a function mapping an experiment index of
    {!Campaign.experiments} to its outcome and the number of retries
    taken — exactly the outcome {!run} with the same config produces
    at that index, whatever process or machine executes it, because
    each run's RNG stream is derived from [seed] and the index alone.
    [seed] is a separate argument — a cluster worker learns it from
    the coordinator's [Welcome], not from the shipped recipe.  Partial
    application matters: golden runs execute lazily the first time an
    index needs their test case and stay memoised across calls.

    Of [config] only [max_ms], [truncate_after_ms], [run_timeout_ms]
    and [retries] apply — scheduling and journalling fields belong to
    whoever coordinates the indices.
    @raise Invalid_argument on an invalid config or an index outside
    the campaign. *)

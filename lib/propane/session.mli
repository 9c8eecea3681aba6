(** One campaign's execution state — the single implementation of the
    campaign determinism contract, shared by every backend.

    A session owns everything about a campaign that is independent of
    how runs are executed: the outcome table, the work source
    ({!Plan.static} or a budget {!Plan.t}), journal replay on resume,
    the strict-index-order journal cursor (cell-reuse deselection,
    tail sweep, plan rounds), the live analysis feed, the adaptive
    stop rule and the fail-fast abort.  Four backends drive it:
    {!Runner.run} serially and over a domain pool, the cluster
    coordinator over worker processes, and the campaign service,
    which multiplexes many sessions over one fleet.

    Outcomes depend only on [(seed, index)], so however runs are
    interleaved — across domains, worker processes or concurrent
    sessions — the journal a session writes is byte-identical to a
    serial run of the same recipe. *)

type event =
  | Started of { total : int; skipped : int; jobs : int }
      (** emitted first; [skipped] counts runs replayed from the
          journal on resume *)
  | Goldens_done of { testcases : int }
      (** golden runs are in place (only the test cases still needed
          by remaining experiments are executed); a cluster
          coordinator emits it with [testcases = 0] — its workers run
          their goldens lazily in their own processes *)
  | Worker_attached of { worker : int; host : string; pid : int }
      (** a remote worker process joined the campaign (cluster runs
          only; {!Runner.run}'s in-process domains attach silently).
          [worker] is the id later seen in [Run_done], [host]/[pid]
          identify the process for telemetry *)
  | Run_done of {
      index : int;
      worker : int;
      completed : int;
      total : int;
      status : Results.status;
      retries : int;
    }
      (** one injection run finished; [index] is its position in
          {!Campaign.experiments}, [worker] the domain or process that
          ran it (0-based), [completed] includes skipped runs, [status]
          how the run ended and [retries] how many re-executions it
          took (0 = first attempt stood) *)
  | Analysis_tick of Live.digest
      (** the live analysis refreshed after a run (only with [?live]);
          one per [Run_done], plus one for the replayed journal on
          resume *)
  | Finished of { completed : int; total : int }  (** emitted last *)

exception Failed_run of { index : int; outcome : Results.outcome }
(** Raised by {!finish} under [fail_fast] when a run is still crashed
    or hung after its retry budget.  The failed outcome has already
    been journalled and reported via [Run_done] when this escapes. *)

type t

val create :
  ?label:string ->
  ?on_event:(event -> unit) ->
  ?recipe:string ->
  ?live:Live.t ->
  ?select:(int -> bool) ->
  ?cells:Journal.cell list ->
  ?plan:Plan.t ->
  ?goldens:(int list -> int) ->
  config:Config.t ->
  sut:string ->
  campaign:string ->
  total:int ->
  unit ->
  t
(** Validates the config, opens (or resumes) the journal, replays
    journalled outcomes, primes the live analysis and emits
    [Started]/[Goldens_done].  [label] (default ["Session.create"])
    prefixes [Invalid_argument] messages so each backend keeps its
    error text.

    [select] restricts execution to the indices it accepts (cell
    reuse); deselected indices never run and the journal cursor steps
    over them.  [cells] are written right after the header of a
    freshly created journal, [recipe] (when non-empty) into the header
    itself; resumes keep the original lines.  [plan] attaches a
    freshly created budget scheduler as the work source — it is primed
    with the replayed outcomes, so a resumed planned campaign
    re-derives its round sequence instead of re-executing it; required
    when [config.budget] is set.  [goldens] is called once with every
    index the work source could still schedule, before any run, to
    prepare their golden runs; the count it returns is reported as
    [Goldens_done] (default: none prepared, [0]).

    Raises [Invalid_argument] on an invalid config, a journal that
    fails to load or belongs to another campaign, [stop_when] without
    [live], or a budget without a plan. *)

val take : t -> batch_max:int -> workers:int -> int list
(** Pops the next batch off the work source — sized as
    [queue / (2 * workers)] clamped to [\[1, batch_max\]] — or [[]]
    when nothing is runnable now, the stop rule fired, or a fail-fast
    failure is pending.  Under a budget plan an empty take can also
    mean a round barrier is waiting on outstanding runs: recorded
    results refill the queue, so callers must keep polling until
    {!complete}.  Safe to call from worker domains while another
    domain records. *)

val requeue : t -> int list -> unit
(** Returns a dead worker's outstanding indices to the {e head} of the
    queue: the journal cursor is stalled on exactly these indices. *)

val record :
  t -> index:int -> worker:int -> retries:int -> Results.outcome -> unit
(** Records one completed run: advances the journal cursor, emits
    [Run_done], feeds the live analysis, evaluates the stop rule and
    arms the fail-fast abort.  Duplicate results (a reassigned run
    finishing twice) are dropped — outcomes are index-deterministic so
    the first copy stands.  All calls for one session must come from
    one domain.  Raises [Invalid_argument] if [index] is outside
    [0 .. total-1]. *)

val flush : t -> unit
(** Commits batched journal appends; backends that poll call it once
    per tick so records reach disk at most one tick after the cursor
    wrote them. *)

val finish : t -> Results.t
(** Completes the session: appends the completed runs parked beyond
    the journal cursor (after an adaptive stop, a fail-fast abort or
    under a budget plan), then an exhausted plan's round history,
    emits [Finished], closes the journal and folds the outcome table
    into results.  Raises {!Failed_run} (after journalling and closing)
    if fail-fast captured a failure. *)

val abort : t -> unit
(** Cancellation and error path: appends every completed outcome to
    the journal (out of order past the cursor, so nothing finished is
    lost), then closes it.  No [Finished] event, no results.
    Idempotent, and a no-op after {!finish}. *)

val close : t -> unit
(** Flushes and closes the journal without the tail write — the
    crash-consistent shutdown path.  Idempotent. *)

val completed : t -> int
(** Runs completed so far, journal replays included. *)

val scheduled : t -> int
(** Replays plus every run the work source has enqueued so far —
    constant for unplanned campaigns, growing round by round under a
    budget plan. *)

val pending : t -> int
(** Queue length: runs not yet handed out. *)

val complete : t -> bool
(** The work source is exhausted: no further run will be handed out
    and every handed-out run has an outcome. *)

val stopping : t -> bool
(** The stop rule fired: hand out nothing more, drain outstanding. *)

val failed : t -> (int * Results.outcome) option
(** The fail-fast failure, if one occurred. *)

val live : t -> Live.t option
(** The live analysis, for telemetry and ranking snapshots. *)

(** Campaign configuration: every knob a campaign accepts, in one
    plain record — the single source of options shared by
    {!Runner.run}, {!Runner.executor}, {!Session}, the cluster
    coordinator and the CLI, so the execution modes cannot drift apart
    in what they accept.  Re-exported as {!Runner.Config}. *)

type t = {
  max_ms : int;  (** golden-run safety net, 20,000 simulated ms *)
  seed : int64;  (** campaign seed; every run's RNG derives from it *)
  truncate_after_ms : int option;
      (** stop each run this long after its injection *)
  run_timeout_ms : int option;  (** wall-clock watchdog per run *)
  retries : int;  (** re-executions of a crashed/hung run *)
  fail_fast : bool;  (** abort the campaign on a failed run *)
  jobs : int;  (** worker domains; 1 = everything in the caller *)
  journal : string option;  (** stream outcomes to this path *)
  resume : bool;  (** replay an existing journal first *)
  journal_batch : int;
      (** commit journal records to disk every this many appends
          (see {!Journal.create}); contents are unaffected, only the
          crash-loss window — at most [journal_batch - 1] records,
          re-run on resume *)
  stop_when : Live.rule option;
      (** adaptive stop rule; needs [?live] at {!Runner.run} *)
  budget : int option;
      (** total injection budget; needs [?plan] at {!Runner.run} — the CLI
          and coordinator build the {!Plan.t} from this field *)
  plan : Plan.mode;
      (** how a budget is allocated (default {!Plan.Adaptive});
          meaningless without [budget] *)
}

val default : t
(** [max_ms = default_max_ms], [seed = 42], no truncation, no
    watchdog, no retries, no fail-fast, [jobs = 1], no journal,
    [journal_batch = 32], no stop rule, no budget. *)

val make :
  ?max_ms:int ->
  ?seed:int64 ->
  ?truncate_after_ms:int ->
  ?run_timeout_ms:int ->
  ?retries:int ->
  ?fail_fast:bool ->
  ?jobs:int ->
  ?journal:string ->
  ?resume:bool ->
  ?journal_batch:int ->
  ?stop_when:Live.rule ->
  ?budget:int ->
  ?plan:Plan.mode ->
  unit ->
  t
(** {!default} with the given fields replaced.  Construction never
    fails; {!validate} (called by every entry point taking a config)
    checks the combination. *)

val validate : t -> (unit, string) result
(** [jobs >= 1], [retries >= 0], [run_timeout_ms >= 1],
    [journal_batch >= 1], [budget >= 1] when set, and [resume] only
    with a [journal]. *)

val encode : t -> string
(** Serialises for a cluster recipe: [,]-separated [k=v] fields, no
    tabs or newlines, safe to embed as one field of a [;]-separated
    recipe.  [journal] and [resume] are host-local (a coordinator
    path means nothing on a worker) and are not encoded.  [budget]
    and [plan] are only emitted for planned campaigns, so unplanned
    recipes keep their previous bytes. *)

val decode : string -> (t, string) result
(** Inverse of {!encode} over the encoded fields; [journal]/[resume]
    come back as {!default}'s.  Unknown fields are errors, so recipe
    typos fail loudly; the one exception is the retired
    record-everything switch of older recipes, accepted and ignored so
    their journals and service manifests still replay and resume.  The
    decoded config is {!validate}d. *)

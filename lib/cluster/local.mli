(** A pool of local worker processes.

    The [--workers n] convenience mode: the coordinator process spawns
    [n] copies of its own worker entrypoint, lets {!Coordinator.serve}
    schedule them like any remote worker, and reaps them afterwards.
    {!tend} is meant to be the coordinator's [on_tick]: it reaps
    children that died mid-campaign and respawns replacements while the
    respawn budget lasts, so a crashing worker (or one killed by the
    chaos flag in the test suite) degrades throughput instead of
    stranding the campaign.  The budget exists because a worker that
    dies instantly on startup would otherwise respawn forever while the
    coordinator waits for runs that never come. *)

type t

val spawn :
  ?respawn_budget:int ->
  command:string array ->
  n:int ->
  unit ->
  t
(** Starts [n] processes running [command] (argv, [command.(0)] is the
    executable), with stdin from [/dev/null] and stdout/stderr
    inherited.  [respawn_budget] (default [4 * n]) bounds how many
    replacement processes {!tend} may start over the pool's lifetime.
    @raise Unix.Unix_error if a process cannot be spawned. *)

val tend : t -> unit
(** Reaps exited children without blocking and spawns a replacement for
    each, while the budget lasts.  Call it from the coordinator's
    [on_tick]; it is a no-op after {!shutdown}. *)

val alive : t -> int
(** Children currently believed to be running. *)

val shutdown : t -> unit
(** Stops tending, gives children up to 1 s to exit on their own —
    the normal case after the coordinator's [Done], so a worker is
    never cut off while finishing up — then sends SIGTERM to the
    survivors and waits for them (escalating to SIGKILL after a
    further 2 s).  Idempotent. *)

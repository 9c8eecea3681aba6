let src = Logs.Src.create "propane.runner" ~doc:"PROPANE campaign runner"

module Log = (val Logs.src_log src : Logs.LOG)

let default_max_ms = Config.default.max_ms

(* ------------------------------------------------------------------ *)
(* Per-domain execution arena.

   Everything an injection run needs besides the (immutable, shared)
   frozen golden lives here and is reused across every run a domain
   executes: the signal-name table for per-name sampling, the flat
   sample buffer handed to observers, and the divergence observer's
   per-signal scratch.  One arena per worker domain means the
   millisecond loop allocates nothing and domains never contend on
   mutable state — goldens are frozen int arrays shared read-only. *)

type arena = {
  a_names : string array;  (* signal-list order, as trace sets use *)
  a_buf : int array;  (* one slot per traced signal *)
  a_first : int array;  (* divergence scratch, one slot per signal *)
}

let make_arena (sut : Sut.t) =
  let names = Array.of_list (Sut.signal_names sut) in
  let n = Array.length names in
  { a_names = names; a_buf = Array.make n 0; a_first = Array.make n (-1) }

(* One flat read of every traced signal (signal-list order) into a
   reusable buffer.  SUTs exposing a bulk [snapshot] skip the per-name
   lookup of [read]. *)
let sampler_of ~arena (instance : Sut.instance) =
  match instance.Sut.snapshot with
  | Some snap -> snap
  | None ->
      fun buf ->
        Array.iteri (fun i n -> buf.(i) <- instance.Sut.read n) arena.a_names

let golden_run ?(max_ms = default_max_ms) (sut : Sut.t) testcase =
  let arena = make_arena sut in
  let instance = sut.Sut.instantiate testcase in
  let traces = Trace_set.create ~signals:(Sut.signal_names sut) () in
  let sampler = sampler_of ~arena instance in
  let buf = arena.a_buf in
  let rec go ms =
    if ms >= max_ms || instance.Sut.finished () then traces
    else begin
      instance.Sut.step ();
      sampler buf;
      Trace_set.sample_array traces buf;
      go (ms + 1)
    end
  in
  go 0

(* Crash reasons travel through tab-separated journals and result
   files; separators inside an exception message must not break a
   record in two. *)
let sanitize_reason s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

let observed_run_in ~arena ?rng ?run_timeout_ms (sut : Sut.t) ~duration_ms
    testcase injection (observer : Observer.t) =
  let target = injection.Injection.target in
  if not (Sut.has_signal sut target) then
    invalid_arg
      (Printf.sprintf "Runner.observed_run: %S has no signal %S" sut.Sut.name
         target);
  let rng =
    match rng with Some r -> r | None -> Simkernel.Rng.create 0x5EEDL
  in
  let deadline =
    match run_timeout_ms with
    | None -> None
    | Some budget_ms ->
        if budget_ms < 1 then
          invalid_arg "Runner.observed_run: run_timeout_ms must be >= 1";
        Some
          (budget_ms, Unix.gettimeofday () +. (float_of_int budget_ms /. 1000.))
  in
  let width = Sut.signal_width sut target in
  let inject_at = Simkernel.Sim_time.to_ms injection.Injection.at in
  let error = injection.Injection.error in
  let first_fire = Injection.first_fire_ms injection in
  let run_ms = ref duration_ms in
  let status = ref Results.Completed in
  let crash ~ms exn =
    run_ms := ms;
    status :=
      Results.Crashed
        { at_ms = ms; reason = sanitize_reason (Printexc.to_string exn) }
  in
  (match sut.Sut.instantiate testcase with
  | exception e -> crash ~ms:0 e
  | instance ->
      let sampler = sampler_of ~arena instance in
      let buf = arena.a_buf in
      (* Each millisecond: watchdog, finish check, injection, step,
         sample.  Any exception out of the SUT is this run's crash, not
         the campaign's. *)
      let rec go ms =
        if ms >= duration_ms then ()
        else
          match deadline with
          | Some (budget_ms, d) when Unix.gettimeofday () > d ->
              run_ms := ms;
              status := Results.Hung { budget_ms }
          | _ -> (
              match
                if instance.Sut.finished () then `Finished
                else begin
                  if Error_model.fires error ~inject_ms:inject_at ~ms then begin
                    instance.Sut.inject target (fun v ->
                        Error_model.apply error ~width ~rng v);
                    observer.Observer.on_injection ~ms
                  end;
                  instance.Sut.step ();
                  sampler buf;
                  `Stepped
                end
              with
              | exception e -> crash ~ms e
              | `Finished ->
                  (* The SUT reached its end state before the golden
                     duration (an injected run may finish early); the
                     observer's length-mismatch rule sees the true
                     length. *)
                  run_ms := ms
              | `Stepped ->
                  observer.Observer.on_sample ~ms buf;
                  (* Saturation is only consulted once the first
                     corruption happened: a deterministic SUT cannot
                     diverge before it, and stopping earlier would skip
                     the injection itself (a [Delayed] model arms at
                     [inject_at] but fires later). *)
                  if ms >= first_fire && observer.Observer.saturated () then
                    run_ms := ms + 1
                  else go (ms + 1))
      in
      go 0);
  observer.Observer.finish ~run_ms:!run_ms;
  (!run_ms, !status)

let observed_run ?rng ?run_timeout_ms (sut : Sut.t) ~duration_ms testcase
    injection observer =
  observed_run_in ~arena:(make_arena sut) ?rng ?run_timeout_ms sut
    ~duration_ms testcase injection observer

(* Truncation counts from the *last* firing of the error model, so a
   delayed or intermittent injection's whole lifetime survives the
   cut; for single-shot models this is the injection time, as before. *)
let truncated_duration ?truncate_after_ms injection duration_ms =
  match truncate_after_ms with
  | None -> duration_ms
  | Some extra ->
      min duration_ms (Injection.last_fire_ms injection + extra + 1)

let run_experiment_in ~arena ?rng ?truncate_after_ms ?run_timeout_ms
    ?(observers = []) sut ~golden testcase injection =
  let duration_ms =
    truncated_duration ?truncate_after_ms injection
      (Golden.frozen_duration_ms golden)
  in
  let until_ms =
    (* A truncated run only vouches for the window it covers. *)
    match truncate_after_ms with None -> None | Some _ -> Some duration_ms
  in
  let div, divergences =
    Observer.divergence ?until_ms ~scratch:arena.a_first golden
  in
  let _run_ms, status =
    observed_run_in ~arena ?rng ?run_timeout_ms sut ~duration_ms testcase
      injection
      (Observer.combine (div :: observers))
  in
  let divergences =
    (* How far a hung run got before the watchdog fired is wall-clock
       dependent; partial divergences are dropped so outcomes (and
       resumed journals) stay deterministic.  A crash happens at a
       simulated instant, so its divergences are kept. *)
    match status with Results.Hung _ -> [] | _ -> divergences ()
  in
  { Results.testcase = Testcase.id testcase; injection; divergences; status }

let run_experiment ?rng ?truncate_after_ms ?run_timeout_ms ?observers sut
    ~golden testcase injection =
  run_experiment_in ~arena:(make_arena sut) ?rng ?truncate_after_ms
    ?run_timeout_ms ?observers sut ~golden testcase injection

(* ------------------------------------------------------------------ *)

module Config = Config

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

exception Failed_run = Session.Failed_run

(* The per-run generator is derived from the seed and the experiment's
   position alone, so run order (and hence parallel scheduling) cannot
   change any outcome.  [attempt] (default 0, the original derivation)
   shifts to a fresh stream per re-execution of a failed run, so a
   retry is not condemned to replay the exact corruption that crashed
   the previous attempt. *)
let rng_for ?(attempt = 0) seed index =
  Simkernel.Rng.create
    (Int64.add
       (Int64.add seed
          (Int64.mul (Int64.of_int (index + 1)) 0x9E3779B97F4A7C15L))
       (Int64.mul (Int64.of_int attempt) 0xD1B54A32D192ED03L))

module String_map = Map.Make (String)

(* Frozen golden runs for exactly the test cases the remaining
   experiments need — a resumed campaign does not re-execute goldens
   whose injection runs are all journalled.  The recording trace sets
   are dropped immediately after freezing, so a campaign holds one
   compact immutable array per test case, shared read-only across
   worker domains. *)
let goldens_for ~max_ms sut experiments remaining =
  List.fold_left
    (fun acc idx ->
      let tc, _ = experiments.(idx) in
      let id = Testcase.id tc in
      if String_map.mem id acc then acc
      else begin
        Log.debug (fun m -> m "golden run for %s" id);
        String_map.add id (Golden.freeze (golden_run ~max_ms sut tc)) acc
      end)
    String_map.empty remaining

(* One injection run of the campaign: streaming, unless [keep] lets a
   recorder ride along for [on_run_traces] — which also disables early
   exit (a recorder never saturates).  A crashed or hung attempt is
   re-run up to [config.retries] times on a fresh RNG stream before its
   failure stands; the returned int is the number of re-executions
   actually taken. *)
let run_one ~arena ~(config : Config.t) ~keep ~golden_for (sut : Sut.t)
    experiments idx =
  let { Config.seed; truncate_after_ms; run_timeout_ms; retries; _ } =
    config
  in
  let testcase, injection = experiments.(idx) in
  let golden = golden_for testcase in
  let attempt_one attempt =
    let rng = rng_for ~attempt seed idx in
    let recorder =
      if keep then Some (Observer.recorder ~signals:(Sut.signal_names sut))
      else None
    in
    let outcome =
      run_experiment_in ~arena ~rng ?truncate_after_ms ?run_timeout_ms
        ~observers:(Option.to_list (Option.map fst recorder))
        sut ~golden testcase injection
    in
    (outcome, Option.map (fun (_, traces) -> traces ()) recorder)
  in
  let rec go attempt =
    let outcome, traces = attempt_one attempt in
    if Results.is_failed outcome.Results.status && attempt < retries then begin
      Log.debug (fun m ->
          m "run %d attempt %d %a; retrying" idx attempt Results.pp_status
            outcome.Results.status);
      go (attempt + 1)
    end
    else (outcome, traces, attempt)
  in
  go 0

(* The single-run entry point a cluster worker process drives: the
   campaign is expanded once, golden runs execute lazily the first time
   a test case is needed (a worker that is never handed a test case's
   runs never pays for its golden) and stay memoised for every later
   run.  Outcome determinism is index-based exactly as in {!run}, so
   any partition of indices over any number of processes reproduces the
   serial campaign outcome for outcome. *)
let executor ?(config = Config.default) ~seed (sut : Sut.t) campaign =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Runner.executor: %s" msg));
  let config = { config with Config.seed } in
  let experiments = Array.of_list (Campaign.experiments campaign) in
  let total = Array.length experiments in
  let arena = make_arena sut in
  let goldens : (string, Golden.frozen) Hashtbl.t = Hashtbl.create 8 in
  let golden_for tc =
    let id = Testcase.id tc in
    match Hashtbl.find_opt goldens id with
    | Some frozen -> frozen
    | None ->
        Log.debug (fun m -> m "golden run for %s" id);
        let frozen =
          Golden.freeze (golden_run ~max_ms:config.Config.max_ms sut tc)
        in
        Hashtbl.add goldens id frozen;
        frozen
  in
  fun index ->
    if index < 0 || index >= total then
      invalid_arg
        (Printf.sprintf "Runner.executor: index %d outside campaign of %d"
           index total);
    let outcome, _traces, retried =
      run_one ~arena ~config ~keep:false ~golden_for sut experiments index
    in
    (outcome, retried)

(* The domain pool: [jobs] worker domains only take indices and execute
   runs, each in a private arena, sharing nothing but the frozen
   goldens.  Finished runs travel over a queue to the calling domain,
   which alone calls [record] — so the session has a single writer,
   every event and [on_run_traces] callback fires from the caller, and
   the live analysis stays off the workers.

   A planned source can be momentarily empty while a round barrier
   waits on in-flight runs, so an empty take is not the end: workers
   sleep on [work_cond] and the calling domain wakes them after every
   completion — either the barrier advanced and refilled the queue, or
   the source is exhausted and they drain out.  A stop rule, a
   fail-fast failure or an exception poisons the pool: workers take no
   new index, and the runs already in flight still complete and are
   recorded.  A worker whose own run fails under [fail_fast] poisons it
   at once, without waiting for the calling domain to record it. *)
let run_pool ~jobs ~fail_fast ~session ~execute ~record sut =
  let mutex = Mutex.create () in
  let cond = Condition.create () in
  let queue = Queue.create () in
  let post msg =
    Mutex.lock mutex;
    Queue.push msg queue;
    Condition.signal cond;
    Mutex.unlock mutex
  in
  (* A resume can prime the live analysis past the stop rule, so the
     session may refuse work before any run: start poisoned then, or
     workers would spin on an empty take that no record will end. *)
  let poisoned =
    Atomic.make (Session.stopping session || Session.failed session <> None)
  in
  let work_mutex = Mutex.create () in
  let work_cond = Condition.create () in
  let wake_workers () =
    Mutex.lock work_mutex;
    Condition.broadcast work_cond;
    Mutex.unlock work_mutex
  in
  let rec take_next () =
    if Atomic.get poisoned then None
    else
      match Session.take session ~batch_max:1 ~workers:jobs with
      | idx :: _ -> Some idx
      | [] ->
          if Session.complete session then None
          else begin
            Mutex.lock work_mutex;
            (* Re-check under the lock: completions broadcast under it,
               so a wakeup between check and wait cannot be lost. *)
            if
              (not (Atomic.get poisoned))
              && Session.pending session = 0
              && not (Session.complete session)
            then Condition.wait work_cond work_mutex;
            Mutex.unlock work_mutex;
            take_next ()
          end
  in
  let worker wid () =
    let arena = make_arena sut in
    let rec loop () =
      match take_next () with
      | None -> ()
      | Some idx ->
          let ((outcome, _, _) as run) = execute ~arena idx in
          if fail_fast && Results.is_failed outcome.Results.status then
            Atomic.set poisoned true;
          post (Ok (idx, wid, run));
          loop ()
    in
    match loop () with
    | () -> post (Error None)
    | exception e -> post (Error (Some e))
  in
  let domains = List.init jobs (fun wid -> Domain.spawn (worker wid)) in
  let live = ref jobs and failure = ref None in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set poisoned true;
      wake_workers ();
      List.iter Domain.join domains)
    (fun () ->
      while !live > 0 do
        Mutex.lock mutex;
        while Queue.is_empty queue do
          Condition.wait cond mutex
        done;
        let batch = Queue.fold (fun acc m -> m :: acc) [] queue in
        Queue.clear queue;
        Mutex.unlock mutex;
        List.iter
          (function
            | Ok (idx, wid, run) ->
                record ~worker:wid idx run;
                if Session.stopping session || Session.failed session <> None
                then Atomic.set poisoned true;
                wake_workers ()
            | Error None -> decr live
            | Error (Some e) ->
                Atomic.set poisoned true;
                if !failure = None then failure := Some e;
                decr live;
                wake_workers ())
          (List.rev batch)
      done);
  Option.iter raise !failure

let run ?(config = Config.default) ?on_event ?on_run_traces ?live ?select
    ?cells ?recipe ?plan (sut : Sut.t) campaign =
  let experiments = Array.of_list (Campaign.experiments campaign) in
  (* Golden runs execute up front in the calling domain, for exactly the
     test cases the work source may still schedule, and are frozen
     before being shared read-only with worker domains. *)
  let goldens = ref String_map.empty in
  let session =
    Session.create ~label:"Runner.run" ?on_event ?recipe ?live ?select ?cells
      ?plan
      ~goldens:(fun remaining ->
        goldens :=
          goldens_for ~max_ms:config.Config.max_ms sut experiments remaining;
        String_map.cardinal !goldens)
      ~config ~sut:sut.Sut.name ~campaign:campaign.Campaign.name
      ~total:(Array.length experiments) ()
  in
  let golden_for tc = String_map.find (Testcase.id tc) !goldens in
  let keep = on_run_traces <> None in
  let execute ~arena idx =
    run_one ~arena ~config ~keep ~golden_for sut experiments idx
  in
  let record ~worker idx (outcome, traces, retries) =
    (match (on_run_traces, traces) with
    | Some f, Some traces -> f ~index:idx traces
    | _ -> ());
    Session.record session ~index:idx ~worker ~retries outcome
  in
  (* Any escaping exception still journals every completed run. *)
  Fun.protect
    ~finally:(fun () -> Session.abort session)
    (fun () ->
      if config.Config.jobs = 1 then begin
        let arena = make_arena sut in
        (* A serial barrier resolves synchronously in [record], so an
           empty take means the source is exhausted or stopped. *)
        let rec loop () =
          match Session.take session ~batch_max:1 ~workers:1 with
          | [] -> ()
          | idx :: _ ->
              record ~worker:0 idx (execute ~arena idx);
              loop ()
        in
        loop ()
      end
      else
        run_pool ~jobs:config.jobs ~fail_fast:config.fail_fast ~session
          ~execute ~record sut;
      Session.finish session)

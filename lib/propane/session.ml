let src = Logs.Src.create "propane.session" ~doc:"per-campaign execution state"

module Log = (val Logs.src_log src : Logs.LOG)

type event =
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

exception Failed_run of { index : int; outcome : Results.outcome }

type t = {
  label : string;
  sut : string;
  campaign : string;
  total : int;
  fail_fast : bool;
  stop_when : Live.rule option;
  partial : bool;
      (* a stop rule, a selection or a plan may leave runs unexecuted *)
  outcomes : Results.outcome option array;
  written : bool array;
      (* on disk already (replayed or appended), or never to be
         written (deselected) *)
  writer : Journal.writer option;
  mutable next_write : int;
  source : Plan.t;  (* the work source: static cursor or budget plan *)
  journal_had_rounds : bool;
      (* the resumed journal already carries plan-round records *)
  mutable completed : int;
  skipped : int;
  live : Live.t option;
  mutable stopping : bool;
  mutable failed : (int * Results.outcome) option;
  mutable closed : bool;
  emit : event -> unit;
}

let or_invalid = function Ok v -> v | Error msg -> invalid_arg msg

(* Journal replay for resume.  Mismatched metadata means the journal
   belongs to a different campaign — refusing loudly beats silently
   corrupting a resume. *)
let replay path ~label ~outcomes ~sut ~campaign ~seed ~total =
  let fail msg = invalid_arg (Printf.sprintf "%s: %s" label msg) in
  match Journal.load path with
  | Error msg -> fail msg
  | Ok j -> (
      match Journal.validate j ~path ~sut ~campaign ~seed ~total with
      | Error msg -> fail msg
      | Ok () ->
          let table = Journal.completed j in
          Hashtbl.iter (fun index o -> outcomes.(index) <- Some o) table;
          (Hashtbl.length table, j.Journal.rounds <> []))

let append t index outcome =
  Option.iter (fun w -> or_invalid (Journal.append w ~index outcome)) t.writer;
  t.written.(index) <- true

(* The in-order cursor: completions arrive in scheduling order, but
   records hit the journal in strict campaign-index order — the cursor
   chases the first index with neither a record on disk nor an
   outcome, so the journal is always byte-identical to the serial
   journal's prefix.  A completion beyond the gap parks in [outcomes]
   until the gap fills. *)
let advance t =
  while
    t.next_write < t.total
    && (t.written.(t.next_write) || t.outcomes.(t.next_write) <> None)
  do
    (if not t.written.(t.next_write) then
       match t.outcomes.(t.next_write) with
       | Some outcome -> append t t.next_write outcome
       | None -> ());
    t.next_write <- t.next_write + 1
  done

(* The cursor stalls at the first never-run index of a stopped, failed
   or planned campaign; the completed outcomes parked beyond it are
   appended out of order (journals tolerate that) so nothing finished
   is lost and resume re-runs only the genuinely missing indices. *)
let write_tail t =
  for index = t.next_write to t.total - 1 do
    match t.outcomes.(index) with
    | Some outcome when not t.written.(index) -> append t index outcome
    | _ -> ()
  done

let check_stop t =
  match (t.live, t.stop_when) with
  | Some l, Some rule when (not t.stopping) && Live.satisfied l rule ->
      Log.info (fun m ->
          m "%s: stop rule %a satisfied after %d runs; draining" t.campaign
            Live.pp_rule rule t.completed);
      t.stopping <- true
  | _ -> ()

let create ?(label = "Session.create") ?on_event ?(recipe = "") ?live ?select
    ?cells ?plan ?(goldens = fun _ -> 0) ~config ~sut ~campaign ~total () =
  let fail msg = invalid_arg (Printf.sprintf "%s: %s" label msg) in
  (match Config.validate config with Ok () -> () | Error msg -> fail msg);
  let {
    Config.seed;
    fail_fast;
    jobs;
    journal;
    resume;
    journal_batch;
    stop_when;
    _;
  } =
    config
  in
  if total < 0 then fail "negative total";
  if stop_when <> None && live = None then
    fail "stop_when requires a live analysis";
  if config.Config.budget <> None && plan = None then
    fail "a budget requires a plan (see Plan.create)";
  let emit ev = match on_event with Some f -> f ev | None -> () in
  let outcomes = Array.make total None in
  let skipped, journal_had_rounds =
    match journal with
    | Some path when resume && Sys.file_exists path ->
        replay path ~label ~outcomes ~sut ~campaign ~seed ~total
    | _ -> (0, false)
  in
  let writer =
    Option.map
      (fun path ->
        or_invalid
          (if skipped > 0 then Journal.append_to ~batch:journal_batch path
           else
             (* The recipe the CLI journals for [propane replay] is the
                one cluster workers receive, so every backend writes
                the identical header.  Cell provenance lands right
                after it, before any outcome, so even an immediately
                killed reuse campaign leaves its plan on record. *)
             let recipe =
               if String.equal recipe "" then None else Some recipe
             in
             let w =
               Journal.create ~batch:journal_batch ?recipe ~path ~sut
                 ~campaign ~seed ~total ()
             in
             match (w, cells) with
             | Ok w, Some cells ->
                 Result.map (fun () -> w) (Journal.append_cells w cells)
             | w, _ -> w))
      journal
  in
  (* Replayed indices are on disk already; deselected ones will never
     produce a record, so the cursor steps over both. *)
  let written =
    Array.init total (fun i ->
        outcomes.(i) <> None
        || match select with Some f -> not (f i) | None -> false)
  in
  (* Unplanned campaigns get the static single-round source (every
     selected index not yet done, in index order); a budget plan is
     primed with the replayed outcomes so it re-derives its round
     sequence instead of re-executing them. *)
  let source =
    match plan with
    | Some p ->
        Array.iteri
          (fun index -> function Some o -> Plan.prime p ~index o | None -> ())
          outcomes;
        p
    | None ->
        Plan.static ?select ~done_:(fun i -> outcomes.(i) <> None) ~total ()
  in
  let t =
    {
      label;
      sut;
      campaign;
      total;
      fail_fast;
      stop_when;
      partial = stop_when <> None || select <> None || plan <> None;
      outcomes;
      written;
      writer;
      next_write = 0;
      source;
      journal_had_rounds;
      completed = skipped;
      skipped;
      live;
      stopping = false;
      failed = None;
      closed = false;
      emit;
    }
  in
  Log.info (fun m ->
      m "campaign %s on %s: %d runs (%d journalled)" campaign sut total
        skipped);
  let start () =
    emit (Started { total; skipped; jobs });
    (* Replayed outcomes enter the live analysis in index order before
       anything executes, so a resumed adaptive campaign judges its
       stop rule over exactly the evidence an uninterrupted one has
       seen. *)
    (match live with
    | Some l when skipped > 0 ->
        Array.iter
          (function Some o -> ignore (Live.observe l o) | None -> ())
          outcomes;
        emit (Analysis_tick (Live.digest l))
    | _ -> ());
    check_stop t;
    emit (Goldens_done { testcases = goldens (Plan.candidates source) })
  in
  (* A raising callback or golden run must still leave the journal
     header on disk. *)
  match start () with
  | () -> t
  | exception e ->
      Option.iter Journal.close writer;
      raise e

let completed t = t.completed

(* Replays plus every index the source has enqueued so far — constant
   for static sources, growing round by round under a budget plan. *)
let scheduled t = t.skipped + Plan.fresh_scheduled t.source
let pending t = Plan.pending t.source
let stopping t = t.stopping
let failed t = t.failed
let live t = t.live
let complete t = Plan.exhausted t.source

let take t ~batch_max ~workers =
  if t.stopping || t.failed <> None then []
  else
    let queue = Plan.pending t.source in
    Plan.take t.source
      ~max:(max 1 (min batch_max (queue / max 1 (2 * workers))))

(* Back to the head of the queue: the journal cursor is stalled on
   exactly these indices. *)
let requeue t lost = Plan.requeue t.source lost

let record t ~index ~worker ~retries outcome =
  if index < 0 || index >= t.total then
    invalid_arg
      (Printf.sprintf "%s: result index %d out of range" t.label index);
  match t.outcomes.(index) with
  | Some _ ->
      (* A reassigned run finished twice; outcomes are
         index-deterministic, so both copies are identical and the
         first stands. *)
      Log.debug (fun m ->
          m "%s: duplicate result for run %d from worker %d" t.campaign index
            worker)
  | None ->
      t.outcomes.(index) <- Some outcome;
      t.completed <- t.completed + 1;
      advance t;
      t.emit
        (Run_done
           {
             index;
             worker;
             completed = t.completed;
             total = t.total;
             status = outcome.Results.status;
             retries;
           });
      (match t.live with
      | Some l ->
          t.emit (Analysis_tick (Live.observe l outcome));
          check_stop t
      | None -> ());
      (* A budget plan advances its round barrier here (and may refill
         the queue); a static source just ticks towards exhaustion. *)
      Plan.complete t.source ~index outcome;
      if
        t.fail_fast
        && Results.is_failed outcome.Results.status
        && t.failed = None
      then t.failed <- Some (index, outcome)

let flush t = Option.iter Journal.flush t.writer

let close t =
  if not t.closed then begin
    t.closed <- true;
    Option.iter Journal.close t.writer
  end

let abort t =
  if not t.closed then begin
    write_tail t;
    close t
  end

let finish t =
  write_tail t;
  (match t.failed with
  | Some (index, outcome) ->
      Log.info (fun m ->
          m "%s: run %d failed and fail_fast is set; aborting" t.campaign
            index);
      close t;
      raise (Failed_run { index; outcome })
  | None -> ());
  (* An exhausted plan leaves its allocation history on record after
     the parked run records.  A rule-stopped or killed planned campaign
     journals no rounds — its resume re-derives and records them at the
     real finish — and a resumed already-finished journal never doubles
     them. *)
  (match t.writer with
  | Some w
    when Plan.is_planned t.source && (not t.journal_had_rounds) && complete t
    ->
      or_invalid (Journal.append_rounds w (Plan.rounds t.source))
  | _ -> ());
  t.emit (Finished { completed = t.completed; total = t.total });
  let results = Results.create ~sut:t.sut ~campaign:t.campaign in
  Array.iter
    (function
      | Some outcome -> Results.add results outcome
      | None -> assert t.partial)
    t.outcomes;
  close t;
  results

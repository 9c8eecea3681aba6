type t = {
  max_ms : int;
  seed : int64;
  truncate_after_ms : int option;
  run_timeout_ms : int option;
  retries : int;
  fail_fast : bool;
  jobs : int;
  journal : string option;
  resume : bool;
  journal_batch : int;
  stop_when : Live.rule option;
  budget : int option;
  plan : Plan.mode;
}

let default =
  {
    max_ms = 20_000;
    seed = 42L;
    truncate_after_ms = None;
    run_timeout_ms = None;
    retries = 0;
    fail_fast = false;
    jobs = 1;
    journal = None;
    resume = false;
    journal_batch = 32;
    stop_when = None;
    budget = None;
    plan = Plan.Adaptive;
  }

let make ?(max_ms = default.max_ms) ?(seed = default.seed)
    ?truncate_after_ms ?run_timeout_ms ?(retries = default.retries)
    ?(fail_fast = default.fail_fast) ?(jobs = default.jobs) ?journal
    ?(resume = default.resume) ?(journal_batch = default.journal_batch)
    ?stop_when ?budget ?(plan = default.plan) () =
  {
    max_ms;
    seed;
    truncate_after_ms;
    run_timeout_ms;
    retries;
    fail_fast;
    jobs;
    journal;
    resume;
    journal_batch;
    stop_when;
    budget;
    plan;
  }

let validate t =
  if t.jobs < 1 then Error "jobs must be >= 1"
  else if t.retries < 0 then Error "retries must be >= 0"
  else if
    match t.run_timeout_ms with Some ms -> ms < 1 | None -> false
  then Error "run_timeout_ms must be >= 1"
  else if t.journal_batch < 1 then Error "journal_batch must be >= 1"
  else if t.resume && t.journal = None then Error "resume requires a journal"
  else if match t.budget with Some b -> b < 1 | None -> false then
    Error "budget must be >= 1"
  else Ok ()

(* The encoded form travels inside cluster recipes (one field of a
   [;]-separated recipe), so fields are [,]-separated [k=v] pairs and
   must never contain either separator.  [journal] and [resume] are
   host-local (a path on the coordinator's disk means nothing to a
   worker) and are deliberately not encoded; [decode] leaves them at
   their defaults. *)
let encode t =
  let b = Buffer.create 96 in
  let add k v =
    if Buffer.length b > 0 then Buffer.add_char b ',';
    Buffer.add_string b k;
    Buffer.add_char b '=';
    Buffer.add_string b v
  in
  add "max_ms" (string_of_int t.max_ms);
  add "seed" (Int64.to_string t.seed);
  Option.iter
    (fun ms -> add "truncate_after_ms" (string_of_int ms))
    t.truncate_after_ms;
  Option.iter
    (fun ms -> add "run_timeout_ms" (string_of_int ms))
    t.run_timeout_ms;
  add "retries" (string_of_int t.retries);
  add "fail_fast" (string_of_bool t.fail_fast);
  add "jobs" (string_of_int t.jobs);
  add "journal_batch" (string_of_int t.journal_batch);
  Option.iter (fun r -> add "stop_when" (Live.rule_to_string r)) t.stop_when;
  (* Unplanned campaigns encode no plan fields, keeping their recipes
     (and everything content-addressed on them) byte-stable. *)
  Option.iter
    (fun budget ->
      add "budget" (string_of_int budget);
      add "plan" (Plan.mode_to_string t.plan))
    t.budget;
  Buffer.contents b

let decode s =
  let ( let* ) = Result.bind in
  let int_field k v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "Runner.Config: bad %s %S" k v)
  in
  let bool_field k v =
    match bool_of_string_opt v with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "Runner.Config: bad %s %S" k v)
  in
  let* config =
    List.fold_left
      (fun acc field ->
        let* t = acc in
        match String.index_opt field '=' with
        | None ->
            Error (Printf.sprintf "Runner.Config: bad field %S" field)
        | Some i -> (
            let k = String.sub field 0 i in
            let v =
              String.sub field (i + 1) (String.length field - i - 1)
            in
            match k with
            | "max_ms" ->
                let* n = int_field k v in
                Ok { t with max_ms = n }
            | "seed" -> (
                match Int64.of_string_opt v with
                | Some seed -> Ok { t with seed }
                | None ->
                    Error (Printf.sprintf "Runner.Config: bad seed %S" v))
            | "truncate_after_ms" ->
                let* n = int_field k v in
                Ok { t with truncate_after_ms = Some n }
            | "run_timeout_ms" ->
                let* n = int_field k v in
                Ok { t with run_timeout_ms = Some n }
            | "retries" ->
                let* n = int_field k v in
                Ok { t with retries = n }
            | "fail_fast" ->
                let* b = bool_field k v in
                Ok { t with fail_fast = b }
            | "jobs" ->
                let* n = int_field k v in
                Ok { t with jobs = n }
            | "journal_batch" ->
                let* n = int_field k v in
                Ok { t with journal_batch = n }
            | "keep_traces" ->
                (* A cost-only knob of older recipes (outcomes never
                   depended on it): still parsed, so their journals and
                   service manifests replay and resume, then dropped. *)
                let* _ = bool_field k v in
                Ok t
            | "stop_when" ->
                let* rule =
                  Result.map_error
                    (Printf.sprintf "Runner.Config: %s")
                    (Live.rule_of_string v)
                in
                Ok { t with stop_when = Some rule }
            | "budget" ->
                let* n = int_field k v in
                Ok { t with budget = Some n }
            | "plan" ->
                let* mode =
                  Result.map_error
                    (Printf.sprintf "Runner.Config: %s")
                    (Plan.mode_of_string v)
                in
                Ok { t with plan = mode }
            | _ -> Error (Printf.sprintf "Runner.Config: unknown field %S" k)))
      (Ok default)
      (String.split_on_char ',' s)
  in
  let* () = validate config in
  Ok config

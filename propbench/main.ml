(* propbench: end-to-end and per-layer benchmark of propane campaigns.

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs rounds of workload W back to back for about S seconds, checks
   every round, and prints as its last line one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   Scratch files (journals, cell caches, sockets, the trace) go to
   .propbench/ under the current directory.  README.md describes the
   workloads and metrics. *)

let now = Unix.gettimeofday
let out_dir = ".propbench"
let worker_flag = "--worker-child"

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec tree_bytes path =
  match Sys.is_directory path with
  | true ->
      Array.fold_left
        (fun acc f -> acc + tree_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0

let scratch name = Filename.concat out_dir (Printf.sprintf "%s-%d" name (Unix.getpid ()))
let fail = Checks.fail

(* ------------------------------------------------------------------ *)
(* Worker processes.  [Cluster.Local] spawns this executable with
   [worker_flag]; the child serves one campaign through
   [Cluster.Worker.run] around [Runner.executor] and, once done or told
   to stop, writes what it measured to a stats file its parent reads. *)

let sut_keys =
  [ "sut.instantiate_s"; "sut.step_s"; "sut.sample_s"; "sut.inject_s"; "sut.sim_ms";
    "sut.prefix_ms"; "sut.post_ms"; "runner.self_s"; "runner.early_exit_ms"; "runner.runs" ]

let sut_fields (t : Tracing.totals) =
  List.combine sut_keys
    [ t.t_inst_s; t.t_step_s; t.t_sample_s; t.t_inject_s; float (t.t_prefix + t.t_post);
      float t.t_prefix; float t.t_post; t.t_runner_self_s; float t.t_early_exit_ms;
      float t.t_injected ]

(* Untraced workers run the bare SUT and executor; only their peak
   memory is read, at exit. *)
let worker_child ~trace addr recipe stats_dir =
  let started = now () in
  let busy = ref 0. in
  let truncate = ref None in
  let written = ref false in
  let finish () =
    if not !written then begin
      written := true;
      let t = Tracing.collect ?truncate_after_ms:!truncate () in
      let path = Filename.concat stats_dir (Printf.sprintf "worker-%d" (Unix.getpid ())) in
      let oc = open_out (path ^ ".tmp") in
      List.iter
        (fun (k, v) -> Printf.fprintf oc "%s %.17g\n" k v)
        (sut_fields t
        @ [
            ( "runner.idle_s",
              if t.t_injected = 0 then 0.
              else (float (Tracing.ns () - t.t_inj_first_ns) *. 1e-9) -. t.t_span_s );
            ("worker.busy_s", !busy);
            ("worker.life_s", now () -. started);
            ("worker.rss_mb", Tracing.peak_rss_mb ());
          ]);
      close_out oc;
      Sys.rename (path ^ ".tmp") (path ^ ".stats")
    end
  in
  (* [Cluster.Local.shutdown] may signal a worker that has received
     [Done] but not yet exited; one already writing its stats finishes
     and exits on its own. *)
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle
       (fun _ ->
         if not !written then begin
           finish ();
           exit 0
         end));
  let die msg =
    prerr_endline ("propbench worker: " ^ msg);
    exit 1
  in
  match (Cluster.Address.of_string addr, Workloads.of_recipe recipe) with
  | Error msg, _ | _, Error msg -> die msg
  | Ok connect, Ok (w, seed, edit) -> (
      let make (wel : Cluster.Protocol.welcome) =
        let inp = Workloads.input w ~seed ~edit in
        truncate := inp.config.truncate_after_ms;
        if wel.total <> Propane.Campaign.size inp.campaign then
          Error "campaign size mismatch"
        else
          let sut = if trace then Tracing.wrap inp.sut else inp.sut in
          let exec = Propane.Runner.executor ~config:inp.config ~seed:wel.seed sut inp.campaign in
          Ok
            (if trace then fun i ->
               let t0 = now () in
               let r = exec i in
               busy := !busy +. (now () -. t0);
               r
             else exec)
      in
      match Cluster.Worker.run ~connect ~make () with
      | Ok _ ->
          finish ();
          exit 0
      | Error msg -> die msg)

let read_stats path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | line -> (
        match String.split_on_char ' ' line with
        | [ k; v ] -> loop ((k, float_of_string v) :: acc)
        | _ -> loop acc)
    | exception End_of_file -> acc
  in
  let fields = loop [] in
  close_in ic;
  fields

(* ------------------------------------------------------------------ *)
(* The campaign's event timeline. *)

type timeline = {
  mutable first : float;
  mutable last : float;
  mutable last_ns : int;  (** [last] on the wrapper's monotonic clock *)
  mutable runs : int;
  mutable failed : int;
  mutable order : int list;  (** completed indices, latest first *)
  mutable attached : float;  (** when the last worker process attached *)
  mutable ticks : int;  (** [Analysis_tick]s: observes of the runner's live *)
}

let timeline () =
  { first = nan; last = nan; last_ns = 0; runs = 0; failed = 0; order = []; attached = nan; ticks = 0 }

let on_event tl = function
  | Propane.Runner.Run_done { index; status; _ } ->
      let t = now () in
      if tl.runs = 0 then tl.first <- t;
      tl.last <- t;
      tl.last_ns <- Tracing.ns ();
      tl.runs <- tl.runs + 1;
      if Propane.Results.is_failed status then tl.failed <- tl.failed + 1;
      tl.order <- index :: tl.order
  | Worker_attached _ -> tl.attached <- now ()
  | Analysis_tick _ -> tl.ticks <- tl.ticks + 1
  | Started _ | Goldens_done _ | Finished _ -> ()

(* ------------------------------------------------------------------ *)
(* A campaign over two [Cluster.Local] worker processes, served by
   [Cluster.Coordinator.serve].  Returns the results, the time from
   spawning to the last worker's handshake, and each worker's stats. *)

let serve_cluster w ~seed ~edit ~(config : Propane.Runner.Config.t) ~campaign
    ~sut_name ~tl ?select ?cells () =
  let stats_dir = scratch "workers" in
  remove_tree stats_dir;
  Unix.mkdir stats_dir 0o755;
  let addr = Cluster.Address.Unix_sock (scratch "sock") in
  let listen = Cluster.Address.listen addr in
  let recipe = Workloads.recipe w ~seed ~edit in
  let t_spawn = now () in
  let pool =
    Cluster.Local.spawn
      ~command:
        [| Sys.executable_name; worker_flag; string_of_bool !Tracing.enabled;
           Cluster.Address.to_string addr; recipe; stats_dir |]
      ~n:2 ()
  in
  let results =
    Fun.protect
      ~finally:(fun () ->
        Cluster.Local.shutdown pool;
        (try Unix.close listen with Unix.Unix_error _ -> ());
        Cluster.Address.unlink addr)
      (fun () ->
        Cluster.Coordinator.serve
          ~on_tick:(fun () -> Cluster.Local.tend pool)
          ~on_event:(on_event tl) ~config ~recipe ~listen ~sut:sut_name
          ~campaign:campaign.Propane.Campaign.name
          ~total:(Propane.Campaign.size campaign) ?select ?cells ())
  in
  let workers =
    Sys.readdir stats_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".stats")
    |> List.map (fun f -> read_stats (Filename.concat stats_dir f))
  in
  remove_tree stats_dir;
  if List.length workers <> 2 then fail "expected 2 worker stats, got %d" (List.length workers);
  (results, tl.attached -. t_spawn, workers)

(* ------------------------------------------------------------------ *)
(* One campaign, from nothing built to final tables and rankings. *)

type campaign = {
  inp : Workloads.input;
  results : Propane.Results.t;
  tl : timeline;
  t0 : float;
  t_end : float;
  analysis : Propagation.Analysis.t;
  matrices : Propagation.Perm_matrix.t Propagation.String_map.t;
  plan : Propane.Plan.t option;
  journal : string option;
  spawn_s : float;  (** nan without worker processes *)
  workers : (string * float) list list;
  reuse : Propane.Reuse.t option;
  reuse_s : float * float * float;  (** classify, compose, persist *)
  tables_s : float;
  sut : Tracing.totals option;  (** in-process SUT wrapper totals *)
}

let render_tables model (analysis : Propagation.Analysis.t) =
  let open Report.Experiments in
  let tables =
    table1 ~ci:true analysis :: table2 ~ci:true analysis :: table3 ~ci:true analysis
    :: List.map (table4 ~ci:true analysis) (Propagation.System_model.system_outputs model)
  in
  List.fold_left (fun n t -> n + String.length (Report.Table.render t)) 0 tables

let finish_tables model analysis =
  let bytes, s = Tracing.timed "report.tables" (fun () -> render_tables model analysis) in
  if bytes = 0 then fail "empty report";
  s

let matrices_of model (analysis : Propagation.Analysis.t) =
  List.fold_left
    (fun acc m ->
      let name = Propagation.Sw_module.name m in
      Propagation.String_map.add name (Propagation.Perm_graph.matrix analysis.graph name) acc)
    Propagation.String_map.empty
    (Propagation.System_model.modules model)

let collect_sut (inp : Workloads.input) =
  if !Tracing.enabled then
    Some (Tracing.collect ?truncate_after_ms:inp.config.truncate_after_ms ())
  else None

let arrestment_campaign ~seed =
  let tl = timeline () in
  let t0 = now () in
  let inp = Workloads.input Arrestment_grid ~seed ~edit:false in
  let journal = scratch "arrestment.journal" in
  let config = { inp.config with journal = Some journal } in
  let sut = if !Tracing.enabled then Tracing.wrap inp.sut else inp.sut in
  let results =
    Propane.Runner.run ~config ~on_event:(on_event tl) sut inp.campaign
  in
  let matrices =
    match
      Propane.Estimator.estimate_all ~attribution:Workloads.attribution ~model:inp.model
        results
    with
    | Ok m -> m
    | Error msg -> fail "estimate_all: %s" msg
  in
  let analysis = Propagation.Analysis.run_exn inp.model matrices in
  let tables_s = finish_tables inp.model analysis in
  {
    inp; results; tl; t0; t_end = now (); analysis; matrices; plan = None;
    journal = Some journal; spawn_s = nan; workers = []; reuse = None;
    reuse_s = (nan, nan, nan); tables_s; sut = collect_sut inp;
  }

(* Attached exactly as [propane campaign --budget] attaches them: the
   plan is the work source and the runner's own live analysis sits
   beside it, both with the campaign's attribution. *)
let synthetic_campaign ~seed =
  let tl = timeline () in
  let t0 = now () in
  let inp = Workloads.input Synthetic_budget ~seed ~edit:false in
  let budget = Option.get inp.config.budget in
  let plan =
    Propane.Plan.create ~mode:Propane.Plan.Adaptive ~attribution:Workloads.attribution
      ~budget ~model:inp.model ~campaign:inp.campaign ()
  in
  let live =
    Propane.Live.create ~attribution:Workloads.attribution ~model:inp.model
      ~targets:inp.campaign.targets ()
  in
  let journal = scratch "synthetic.journal" in
  let config = { inp.config with journal = Some journal } in
  let sut = if !Tracing.enabled then Tracing.wrap inp.sut else inp.sut in
  let results =
    Propane.Runner.run ~config ~on_event:(on_event tl) ~live ~plan sut inp.campaign
  in
  let analysis =
    match Propane.Live.snapshot live with Ok a -> a | Error msg -> fail "snapshot: %s" msg
  in
  let tables_s = finish_tables inp.model analysis in
  {
    inp; results; tl; t0; t_end = now (); analysis;
    matrices = matrices_of inp.model analysis; plan = Some plan;
    journal = Some journal; spawn_s = nan; workers = []; reuse = None;
    reuse_s = (nan, nan, nan); tables_s; sut = collect_sut inp;
  }

(* One half of the edit-then-re-measure loop: classify the campaign's
   cells against the cache, run only the dirty targets on two worker
   processes, compose cached and fresh counts, store the fresh ones. *)
let layered_campaign ~seed ~edit ~dir =
  let tl = timeline () in
  let t0 = now () in
  let inp = Workloads.input Layered_edit ~seed ~edit in
  let recipe = "propbench-layered;" ^ Propane.Runner.Config.encode inp.config in
  let reuse, classify_s =
    Tracing.timed "reuse.classify" (fun () ->
        Propane.Reuse.plan ~recipe ~sut:inp.sut ~model:inp.model ~dir inp.campaign)
  in
  let results, spawn_s, workers =
    serve_cluster Layered_edit ~seed ~edit ~config:inp.config ~campaign:inp.campaign
      ~sut_name:inp.sut.name ~tl ~select:(Propane.Reuse.select reuse)
      ~cells:(Propane.Reuse.journal_cells reuse) ()
  in
  let stream, compose_s =
    Tracing.timed "reuse.compose" (fun () ->
        Propane.Reuse.compose ~attribution:Workloads.attribution reuse results)
  in
  let stored, persist_s =
    Tracing.timed "reuse.persist" (fun () -> Propane.Reuse.persist reuse stream results)
  in
  (match stored with Ok () -> () | Error msg -> fail "persist: %s" msg);
  let matrices = Propane.Estimator.Stream.matrices stream in
  let analysis = Propagation.Analysis.run_exn inp.model matrices in
  let tables_s = finish_tables inp.model analysis in
  {
    inp; results; tl; t0; t_end = now (); analysis; matrices; plan = None;
    journal = None; spawn_s; workers; reuse = Some reuse;
    reuse_s = (classify_s, compose_s, persist_s); tables_s; sut = None;
  }

(* ------------------------------------------------------------------ *)
(* Checks (see Checks) applied to every campaign of every round. *)

let check_common ~seed (c : campaign) indexed =
  let outcomes = List.map snd indexed in
  let counts = Checks.recount ~model:c.inp.model outcomes in
  Checks.matrices_match ~what:"Eq. (1)" counts c.matrices;
  Checks.eq2_matches counts c.analysis;
  Checks.reexecute ~seed c.inp indexed;
  counts

let journal_entries (c : campaign) =
  match Propane.Journal.load (Option.get c.journal) with
  | Error msg -> fail "journal: %s" msg
  | Ok j -> j

let check_arrestment ~seed c =
  let j = journal_entries c in
  let indexed = List.sort compare j.entries in
  if List.length indexed <> Propane.Campaign.size c.inp.campaign then
    fail "journal holds %d of %d runs" (List.length indexed) (Propane.Campaign.size c.inp.campaign);
  if List.map snd indexed <> Propane.Results.outcomes c.results then
    fail "journal differs from the returned outcomes";
  let counts = check_common ~seed c indexed in
  Checks.arrestment_zeros counts

let check_synthetic ~seed c =
  let j = journal_entries c in
  let runs = Propane.Results.count c.results in
  let budget = Option.get c.inp.config.budget in
  if runs > budget then fail "%d runs exceed the budget %d" runs budget;
  let round_runs = List.fold_left (fun a (r : Propane.Journal.round) -> a + r.runs) 0 j.rounds in
  if round_runs <> runs then fail "journalled rounds grant %d runs, %d ran" round_runs runs;
  let indexed = List.sort compare j.entries in
  if List.length indexed <> runs then fail "journal holds %d of %d runs" (List.length indexed) runs;
  let stream outcomes =
    let s = Propane.Estimator.Stream.create ~attribution:Workloads.attribution ~model:c.inp.model () in
    List.iter (Propane.Estimator.Stream.observe s) outcomes;
    Propane.Estimator.Stream.matrices s
  in
  let outcomes = Propane.Results.outcomes c.results in
  if not (Checks.same_matrices (stream outcomes) (stream (List.rev outcomes))) then
    fail "matrices depend on the order of the outcomes";
  ignore (check_common ~seed c indexed)

let check_layered ~seed ~(cold : campaign) ~(warm : campaign) =
  let cold_reuse = Option.get cold.reuse and warm_reuse = Option.get warm.reuse in
  if Propane.Reuse.reused_cells cold_reuse <> 0 then fail "cold campaign reused cells";
  ignore (check_common ~seed cold (Checks.indexed cold.inp.campaign cold.results));
  (* The dirty targets, worked out from the model's wiring: exactly the
     campaign targets the edited block consumes. *)
  let edited = Propagation.System_model.find_module_exn warm.inp.model Workloads.edited_block in
  let consumed =
    List.map Propagation.Signal.name (Propagation.Sw_module.input_signals edited)
  in
  let expected = List.filter (fun t -> List.mem t consumed) warm.inp.campaign.targets in
  if Propane.Reuse.dirty_targets warm_reuse <> expected then
    fail "dirty targets %s, the edit reaches %s"
      (String.concat "," (Propane.Reuse.dirty_targets warm_reuse))
      (String.concat "," expected);
  let clean = Propane.Reuse.clean_targets warm_reuse in
  let cold_clean =
    List.filter
      (fun (o : Propane.Results.outcome) -> List.mem o.injection.target clean)
      (Propane.Results.outcomes cold.results)
  in
  let counts =
    Checks.recount ~model:warm.inp.model (cold_clean @ Propane.Results.outcomes warm.results)
  in
  Checks.matrices_match ~what:"composed" counts warm.matrices;
  Checks.eq2_matches counts warm.analysis;
  Checks.reexecute ~seed warm.inp (Checks.indexed warm.inp.campaign warm.results)

(* ------------------------------------------------------------------ *)
(* A round: one campaign, or for layered-edit the cold and the warm
   campaign of one edit.  Its end-to-end figures: *)

type round = {
  campaigns : campaign list;
  wall : float;  (** first start to last final tables *)
  setup : float;  (** start to first [Run_done], summed over campaigns *)
  rate_runs : int;  (** runs after the first, summed over campaigns *)
  rate_window : float;  (** first to last [Run_done], summed *)
  rss_mb : float;
      (** this process's peak resident memory, read after the campaigns
          and before their checks *)
}

let run_round w ~seed =
  let campaigns, check =
    match (w : Workloads.t) with
    | Arrestment_grid ->
        let c = arrestment_campaign ~seed in
        ([ c ], fun () -> check_arrestment ~seed c)
    | Synthetic_budget ->
        let c = synthetic_campaign ~seed in
        ([ c ], fun () -> check_synthetic ~seed c)
    | Layered_edit ->
        let dir = scratch "cells" in
        remove_tree dir;
        let cold = layered_campaign ~seed ~edit:false ~dir in
        let warm = layered_campaign ~seed ~edit:true ~dir in
        ([ cold; warm ], fun () -> check_layered ~seed ~cold ~warm)
  in
  let rss_mb = Tracing.peak_rss_mb () in
  check ();
  List.iter (fun c -> Option.iter remove_tree c.journal) campaigns;
  let sumf f = List.fold_left (fun a c -> a +. f c) 0. campaigns in
  let first = List.hd campaigns and last = List.hd (List.rev campaigns) in
  {
    campaigns;
    wall = last.t_end -. first.t0;
    setup = sumf (fun c -> c.tl.first -. c.t0);
    rate_runs = List.fold_left (fun a c -> a + c.tl.runs - 1) 0 campaigns;
    rate_window = sumf (fun c -> c.tl.last -. c.tl.first);
    rss_mb;
  }

(* ------------------------------------------------------------------ *)
(* Per-layer figures of a round (traced runs only).  The SUT and
   worker figures come from the wrappers that ran inside the round;
   the rest replay the round's recorded outcomes through each layer's
   public functions, under spans. *)

let sum_fields keys fields_list =
  List.map
    (fun k ->
      (k, List.fold_left (fun s f -> s +. Option.value ~default:0. (List.assoc_opt k f)) 0. fields_list))
    keys

let per_op_us total n = if n = 0 then nan else total *. 1e6 /. float n

(* The budgeted campaign's live analysis and planner: the outcomes in
   the order the program fed them through [Live.observe], bare engine
   snapshots over the same sequence, and the planner driven serially
   from a bank of the round's outcomes. *)
let plan_metrics (c : campaign) indexed =
  let add = Tracing.add in
  let inp = c.inp in
  let by_index = Hashtbl.create (2 * List.length indexed) in
  List.iter (fun (i, o) -> Hashtbl.replace by_index i o) indexed;
  let fed = List.filter_map (Hashtbl.find_opt by_index) (List.rev c.tl.order) in
  let live =
    Propane.Live.create ~attribution:Workloads.attribution ~model:inp.model
      ~targets:inp.campaign.targets ()
  in
  let (), live_s =
    Tracing.timed "live.observe" (fun () ->
        List.iter (fun o -> ignore (Propane.Live.observe live o)) fed)
  in
  add "live.observe_us" (per_op_us live_s (List.length fed));
  let s = Propane.Estimator.Stream.create ~attribution:Workloads.attribution ~model:inp.model () in
  let engine = Propagation.Analysis.Engine.create inp.model in
  Propagation.String_map.iter
    (Propagation.Analysis.Engine.update engine)
    (Propane.Estimator.Stream.matrices s);
  let snap_s = ref 0. in
  let (), _ =
    Tracing.timed "analysis.snapshots" (fun () ->
        List.iter
          (fun o ->
            Propane.Estimator.Stream.observe s o;
            List.iter
              (fun (name, m) -> Propagation.Analysis.Engine.update engine name m)
              (Propane.Estimator.Stream.drain_dirty s);
            let t0 = now () in
            (match Propagation.Analysis.Engine.snapshot engine with
            | Ok _ -> ()
            | Error msg -> fail "snapshot: %s" msg);
            snap_s := !snap_s +. (now () -. t0))
          fed)
  in
  add "analysis.snapshot_us" (per_op_us !snap_s (List.length fed));
  let budget = Option.get inp.config.budget in
  let plan, create_s =
    Tracing.timed "plan.create" (fun () ->
        Propane.Plan.create ~mode:Propane.Plan.Adaptive ~attribution:Workloads.attribution
          ~budget ~model:inp.model ~campaign:inp.campaign ())
  in
  let (), schedule_s =
    Tracing.timed "plan.schedule" (fun () ->
        let rec go () =
          if not (Propane.Plan.exhausted plan) then
            match Propane.Plan.take plan ~max:64 with
            | [] -> fail "plan stalled with nothing in flight"
            | taken ->
                List.iter
                  (fun i ->
                    match Hashtbl.find_opt by_index i with
                    | Some o -> Propane.Plan.complete plan ~index:i o
                    | None -> fail "plan took index %d, which the round did not run" i)
                  taken;
                go ()
        in
        go ())
  in
  add "plan.create_s" create_s;
  add "plan.schedule_s" schedule_s;
  add "plan.rounds"
    (float
       (List.fold_left
          (fun a (r : Propane.Journal.round) -> max a (r.round + 1))
          0 (Propane.Plan.rounds plan)))

(* The edit-then-re-measure loop's cell reuse and cluster, measured in
   the round (cold + warm), and the wire encoding of every cold result
   as a worker frames it and the coordinator decodes it. *)
let cluster_metrics (r : round) indexed =
  let add = Tracing.add in
  let csum f = List.fold_left (fun a c -> a +. f c) 0. r.campaigns in
  let reuse c = Option.get c.reuse in
  add "reuse.classify_s" (csum (fun c -> let cl, _, _ = c.reuse_s in cl));
  add "reuse.compose_s" (csum (fun c -> let _, co, _ = c.reuse_s in co));
  add "reuse.persist_s" (csum (fun c -> let _, _, pe = c.reuse_s in pe));
  add "cache.hits" (csum (fun c -> float (Propane.Reuse.reused_cells (reuse c))));
  add "cache.misses"
    (csum (fun c -> float (Propane.Reuse.total_cells (reuse c) - Propane.Reuse.reused_cells (reuse c))));
  add "cache.bytes_written" (float (tree_bytes (scratch "cells")));
  let worker_fields = List.concat_map (fun c -> c.workers) r.campaigns in
  let wsum k = List.fold_left (fun s f -> s +. List.assoc k f) 0. worker_fields in
  add "cluster.worker_busy_s" (wsum "worker.busy_s");
  add "cluster.worker_idle_s" (wsum "worker.life_s" -. wsum "worker.busy_s");
  add "cluster.spawn_s" (csum (fun c -> c.spawn_s));
  let frames = ref [] in
  let (), encode_s =
    Tracing.timed "cluster.encode" (fun () ->
        List.iter
          (fun (index, outcome) ->
            frames :=
              Cluster.Frame.encode
                (Cluster.Protocol.encode_to_coordinator
                   (Cluster.Protocol.Result { index; retries = 0; outcome }))
              :: !frames)
          indexed)
  in
  let dec = Cluster.Frame.decoder () in
  let (), decode_s =
    Tracing.timed "cluster.decode" (fun () ->
        List.iter
          (fun f ->
            Cluster.Frame.feed dec f;
            match Cluster.Frame.next dec with
            | Ok (Some payload) -> (
                match Cluster.Protocol.decode_to_coordinator payload with
                | Ok (Cluster.Protocol.Result _) -> ()
                | Ok _ | Error _ -> fail "wire: a result did not decode")
            | Ok None | Error _ -> fail "wire: a frame did not decode")
          (List.rev !frames))
  in
  let n = List.length indexed in
  add "cluster.encode_us" (per_op_us encode_s n);
  add "cluster.decode_us" (per_op_us decode_s n);
  add "cluster.wire_bytes_per_run"
    (float (List.fold_left (fun a f -> a + String.length f) 0 !frames) /. float (max 1 n))

let layer_metrics w (r : round) =
  let add = Tracing.add in
  let zero = List.iter (fun k -> add k 0.) in
  let c = List.hd r.campaigns in
  let inp = c.inp in
  let indexed = List.sort compare (Checks.indexed inp.campaign c.results) in
  let outcomes = List.map snd indexed in
  let n = List.length outcomes in
  let jobs = float inp.config.jobs in
  (* SUT, runner and worker figures from the round itself: from the
     in-process wrapper, or summed over the worker processes. *)
  let worker_fields = List.concat_map (fun c -> c.workers) r.campaigns in
  let sut_figures =
    match c.sut with
    | Some t ->
        let window = float (c.tl.last_ns - t.t_inj_first_ns) *. 1e-9 in
        ("runner.idle_s", (jobs *. window) -. t.t_span_s) :: sut_fields t
    | None -> sum_fields ("runner.idle_s" :: sut_keys) worker_fields
  in
  List.iter (fun (k, v) -> add k v) sut_figures;
  (* Golden runs and freeze, per test case. *)
  let testcases = inp.campaign.testcases in
  let sim_ms, golden_s =
    Tracing.timed "golden" (fun () ->
        List.fold_left
          (fun acc tc ->
            acc
            + Propane.Golden.frozen_duration_ms
                (Propane.Golden.freeze
                   (Propane.Runner.golden_run ~max_ms:inp.config.max_ms inp.sut tc)))
          0 testcases)
  in
  add "golden.s" golden_s;
  add "golden.sim_ms" (float sim_ms);
  (* Estimation, batch and streaming. *)
  let _, batch_s =
    Tracing.timed "estimator.batch" (fun () ->
        Propane.Estimator.estimate_all ~attribution:Workloads.attribution ~model:inp.model
          c.results)
  in
  add "estimator.batch_s" batch_s;
  let stream =
    Propane.Estimator.Stream.create ~attribution:Workloads.attribution ~model:inp.model ()
  in
  let (), stream_s =
    Tracing.timed "estimator.stream" (fun () ->
        List.iter (Propane.Estimator.Stream.observe stream) outcomes)
  in
  add "estimator.stream_us" (per_op_us stream_s n);
  let _, run_s =
    Tracing.timed "analysis.run" (fun () -> Propagation.Analysis.run inp.model c.matrices)
  in
  add "analysis.run_s" run_s;
  add "live.observes"
    (float (c.tl.ticks + match c.plan with Some p -> Propane.Plan.executed p | None -> 0));
  add "report.tables_s" (List.fold_left (fun a c -> a +. c.tables_s) 0. r.campaigns);
  (* The remaining layers run on some workloads only; elsewhere their
     figures are a fixed 0. *)
  (match c.journal with
  | None -> zero [ "journal.append_s"; "journal.bytes" ]
  | Some _ ->
      let path = scratch "replay.journal" in
      let (), append_s =
        Tracing.timed "journal.append" (fun () ->
            match
              Propane.Journal.create ~path ~sut:inp.sut.name ~campaign:inp.campaign.name
                ~seed:inp.config.seed ~total:(Propane.Campaign.size inp.campaign) ()
            with
            | Error msg -> fail "journal: %s" msg
            | Ok j ->
                List.iter
                  (fun (index, o) ->
                    match Propane.Journal.append j ~index o with
                    | Ok () -> ()
                    | Error msg -> fail "journal: %s" msg)
                  indexed;
                Propane.Journal.close j)
      in
      add "journal.append_s" append_s;
      add "journal.bytes" (float (tree_bytes path));
      remove_tree path);
  (match c.plan with
  | None ->
      zero [ "live.observe_us"; "analysis.snapshot_us"; "plan.create_s"; "plan.schedule_s";
             "plan.rounds" ]
  | Some _ -> plan_metrics c indexed);
  match w with
  | Workloads.Layered_edit -> cluster_metrics r indexed
  | Arrestment_grid | Synthetic_budget ->
      zero [ "reuse.classify_s"; "reuse.compose_s"; "reuse.persist_s"; "cache.hits";
             "cache.misses"; "cache.bytes_written"; "cluster.worker_busy_s";
             "cluster.worker_idle_s"; "cluster.spawn_s"; "cluster.encode_us";
             "cluster.decode_us"; "cluster.wire_bytes_per_run" ]

(* ------------------------------------------------------------------ *)

(* Units of the per-layer metrics, in report order. *)
let layer_units =
  [ ("golden.s", "s"); ("golden.sim_ms", "count"); ("sut.step_s", "s");
    ("sut.sample_s", "s"); ("sut.instantiate_s", "s"); ("sut.inject_s", "s");
    ("sut.sim_ms", "count"); ("sut.prefix_ms", "count"); ("sut.post_ms", "count");
    ("runner.self_s", "s"); ("runner.idle_s", "s"); ("runner.early_exit_ms", "count");
    ("runner.runs", "count"); ("journal.append_s", "s"); ("journal.bytes", "bytes");
    ("estimator.batch_s", "s"); ("estimator.stream_us", "us"); ("live.observe_us", "us");
    ("live.observes", "count"); ("analysis.snapshot_us", "us"); ("analysis.run_s", "s");
    ("plan.create_s", "s"); ("plan.schedule_s", "s"); ("plan.rounds", "count");
    ("reuse.classify_s", "s"); ("reuse.compose_s", "s"); ("reuse.persist_s", "s");
    ("cache.hits", "count"); ("cache.misses", "count"); ("cache.bytes_written", "bytes");
    ("cluster.encode_us", "us"); ("cluster.decode_us", "us"); ("cluster.worker_idle_s", "s");
    ("cluster.spawn_s", "s"); ("cluster.worker_busy_s", "s");
    ("cluster.wire_bytes_per_run", "bytes"); ("report.tables_s", "s");
    ("process.cpu_s", "s"); ("gc.minor_mb", "MB"); ("gc.major_collections", "count");
    ("trace.overhead_pct", "%") ]

let json_metric (name, unit, v) =
  if not (Float.is_finite v) then fail "metric %s is not a number" name;
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit

let meta w ~seed ~seconds ~trace =
  let env k = Option.value ~default:"unknown" (Sys.getenv_opt k) in
  Printf.printf
    "# meta {\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %b, \"nproc\": %d, \
     \"git_rev\": %S, \"ocaml\": %S, \"profile\": %S}\n%!"
    (Workloads.name w) seed seconds trace
    (Domain.recommended_domain_count ())
    (env "PROPBENCH_GIT_REV") Sys.ocaml_version (env "PROPBENCH_PROFILE")

let cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime +. t.tms_cutime +. t.tms_cstime

(* What a run keeps of each round: the rounds themselves are dropped
   once measured, so memory does not grow with the number of rounds. *)
type summary = {
  runs : int;
  failed : int;
  wall_s : float;
  setup_s : float;
  runs_per_s : float;
  rss_mb : float;
      (** this process's peak before the round's checks, plus the peaks
          of one campaign's worker processes summed, for the campaign
          with the most *)
}

let summarize (r : round) =
  let sum f = List.fold_left (fun a c -> a + f c) 0 r.campaigns in
  {
    runs = sum (fun c -> c.tl.runs);
    failed = sum (fun c -> c.tl.failed);
    wall_s = r.wall;
    setup_s = r.setup;
    runs_per_s = float r.rate_runs /. r.rate_window;
    rss_mb =
      r.rss_mb
      +. List.fold_left
           (fun m c ->
             Float.max m (List.fold_left (fun s ws -> s +. List.assoc "worker.rss_mb" ws) 0. c.workers))
           0. r.campaigns;
  }

(* Rounds back to back until the next one would end past [seconds];
   at least one.  With [trace], three untraced rounds come first: a
   warm-up, then two whose median wall time is the baseline the tracing
   overhead is measured against. *)
let measure w ~seed ~seconds ~trace =
  let deadline = now () +. float seconds in
  let summaries = ref [] in
  let report (r : round) =
    let s = summarize r in
    summaries := s :: !summaries;
    Printf.printf "# round %d: runs %d failed %d wall_s %.4f setup_s %.4f runs_per_s %.1f\n%!"
      (List.length !summaries) s.runs s.failed s.wall_s s.setup_s s.runs_per_s
  in
  let baseline =
    if trace then begin
      let walls =
        List.init 3 (fun _ ->
            let r = run_round w ~seed in
            report r;
            r.wall)
      in
      Tracing.enabled := true;
      Tracing.median (List.tl walls)
    end
    else nan
  in
  let rec loop () =
    let t0 = now () in
    let cpu0 = cpu_s () and gc0 = Gc.quick_stat () in
    let r, _ = Tracing.timed "round" (fun () -> run_round w ~seed) in
    report r;
    if trace then begin
      let gc1 = Gc.quick_stat () in
      Tracing.add "process.cpu_s" (cpu_s () -. cpu0);
      Tracing.add "gc.minor_mb" ((gc1.minor_words -. gc0.minor_words) *. 8. /. 1e6);
      Tracing.add "gc.major_collections" (float (gc1.major_collections - gc0.major_collections));
      Tracing.add "trace.overhead_pct" (100. *. (r.wall -. baseline) /. baseline);
      ignore (Tracing.timed "layers" (fun () -> layer_metrics w r))
    end;
    if now () +. (now () -. t0) < deadline then loop ()
  in
  loop ();
  List.rev !summaries

let result ~correct summaries metrics =
  let count f = List.fold_left (fun a s -> a + f s) 0 summaries in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (count (fun s -> s.runs)) (count (fun s -> s.failed))
    (String.concat ", " (List.map json_metric metrics))

let end_to_end summaries =
  let med f = Tracing.median (List.map f summaries) in
  [
    ("runs_per_s", "1/s", med (fun s -> s.runs_per_s));
    ("wall_s", "s", med (fun s -> s.wall_s));
    ("setup_s", "s", med (fun s -> s.setup_s));
    (* The first round's: later rounds start with the checks of the
       rounds before them already in this process's peak. *)
    ("peak_rss_mb", "MB", (List.hd summaries).rss_mb);
  ]

let usage () =
  prerr_endline "usage: main.exe --workload W --seed N --seconds S --trace 0|1";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; flag; trace; addr; recipe; stats_dir ] when String.equal flag worker_flag ->
      worker_child ~trace:(bool_of_string trace) addr recipe stats_dir
  | _ :: args ->
      let rec parse acc = function
        | k :: v :: rest when String.starts_with ~prefix:"--" k ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let w = match Workloads.of_name (get "workload") with Some w -> w | None -> usage () in
      let seed = int "seed" and seconds = int "seconds" in
      let trace = match int "trace" with 0 -> false | 1 -> true | _ -> usage () in
      if seconds < 1 then usage ();
      (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      meta w ~seed ~seconds ~trace;
      (match measure w ~seed ~seconds ~trace with
      | exception Checks.Failed msg ->
          Printf.printf "# check failed: %s\n" msg;
          result ~correct:false [] [];
          exit 1
      | rounds when trace ->
          let trace_file =
            Filename.concat out_dir (Printf.sprintf "trace-%s-%d.jsonl" (Workloads.name w) seed)
          in
          Tracing.write_file trace_file;
          Printf.printf "# trace written to %s\n" trace_file;
          result ~correct:true rounds
            (List.map (fun (k, u) -> (k, u, Tracing.metric k)) layer_units)
      | rounds -> result ~correct:true rounds (end_to_end rounds));
      List.iter remove_tree
        [ scratch "cells"; scratch "workers" ]
  | [] -> usage ()

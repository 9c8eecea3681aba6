(* Correctness checks every campaign of every run must pass.  The
   reference values are computed here, apart from the program: Eq. (1)
   is recounted from raw divergence times, Eq. (2) recomputed from the
   recount, and sampled runs are re-executed one at a time. *)

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* Experiment index of each outcome, from the campaign's deterministic
   expansion: (test case, injection) identifies one experiment. *)
let index_table campaign =
  let tbl = Hashtbl.create 4096 in
  List.iteri
    (fun i (tc, inj) ->
      Hashtbl.replace tbl (Propane.Testcase.id tc, Propane.Injection.describe inj) i)
    (Propane.Campaign.experiments campaign);
  tbl

let indexed campaign results =
  let tbl = index_table campaign in
  List.map
    (fun (o : Propane.Results.outcome) ->
      match
        Hashtbl.find_opt tbl (o.testcase, Propane.Injection.describe o.injection)
      with
      | Some i -> (i, o)
      | None -> fail "outcome %s/%s is not in the campaign" o.testcase
                  (Propane.Injection.describe o.injection))
    (Propane.Results.outcomes results)

(* ------------------------------------------------------------------ *)
(* Eq. (1): n_err / n_inj per (module, input, output), counted from the
   outcomes' first-divergence times.  An error counts when the output
   first diverges within [window_ms] of the injection instant; a
   crashed or hung run is an error on every output of the injected
   input. *)

type counts = (string, (int * int) array array) Hashtbl.t

let recount ~model outcomes : counts =
  let tbl = Hashtbl.create 32 in
  let modules = Propagation.System_model.modules model in
  List.iter
    (fun m ->
      Hashtbl.replace tbl (Propagation.Sw_module.name m)
        (Array.init (Propagation.Sw_module.input_count m) (fun _ ->
             Array.make (Propagation.Sw_module.output_count m) (0, 0))))
    modules;
  List.iter
    (fun (o : Propane.Results.outcome) ->
      let at = Propane.Injection.inject_ms o.injection in
      let failed = Propane.Results.is_failed o.status in
      List.iter
        (fun m ->
          let cells = Hashtbl.find tbl (Propagation.Sw_module.name m) in
          Array.iteri
            (fun i input ->
              if String.equal (Propagation.Signal.name input) o.injection.target then
                Array.iteri
                  (fun k output ->
                    let err =
                      failed
                      || List.exists
                           (fun (d : Propane.Golden.divergence) ->
                             String.equal d.signal (Propagation.Signal.name output)
                             && d.first_ms >= at
                             && d.first_ms <= at + Workloads.window_ms)
                           o.divergences
                    in
                    let e, n = cells.(i).(k) in
                    cells.(i).(k) <- ((if err then e + 1 else e), n + 1))
                  m.Propagation.Sw_module.outputs)
            m.Propagation.Sw_module.inputs)
        modules)
    outcomes;
  tbl

let matrices_match ~what (counts : counts) matrices =
  Hashtbl.iter
    (fun name cells ->
      match Propagation.String_map.find_opt name matrices with
      | None -> fail "%s: no matrix for module %s" what name
      | Some m ->
          Array.iteri
            (fun i row ->
              Array.iteri
                (fun k (e, n) ->
                  let est = Propagation.Perm_matrix.estimate m ~input:(i + 1) ~output:(k + 1) in
                  if est.n_err <> e || est.n_inj <> n then
                    fail "%s: %s P(%d,%d) is %d/%d, recount gives %d/%d" what name
                      (i + 1) (k + 1) est.n_err est.n_inj e n)
                row)
            cells)
    counts

(* Eq. (2): the relative permeability is the mean of a module's
   n_err / n_inj values. *)
let eq2_matches (counts : counts) (analysis : Propagation.Analysis.t) =
  List.iter
    (fun (row : Propagation.Ranking.module_row) ->
      let cells = Hashtbl.find counts row.module_name in
      let sum = ref 0. and pairs = ref 0 in
      Array.iter
        (Array.iter (fun (e, n) ->
             incr pairs;
             if n > 0 then sum := !sum +. (float e /. float n)))
        cells;
      let expected = !sum /. float !pairs in
      if Float.abs (expected -. row.relative_permeability) > 1e-9 then
        fail "Eq. (2): %s P^M is %.12f, recomputed %.12f" row.module_name
          row.relative_permeability expected)
    analysis.module_rows

(* The paper reports PRES_S as fully impermeable and the [stopped]
   output of DIST_S as never reached by a direct error. *)
let arrestment_zeros (counts : counts) =
  Array.iter
    (Array.iter (fun (e, _) -> if e > 0 then fail "PRES_S has a non-zero permeability"))
    (Hashtbl.find counts "PRES_S");
  Hashtbl.iter
    (fun name cells ->
      let m = Propagation.System_model.find_module_exn Arrestment.Model.system name in
      Array.iteri
        (fun k out ->
          if String.equal (Propagation.Signal.name out) "stopped" then
            Array.iter
              (fun row ->
                if fst row.(k) > 0 then fail "%s -> stopped is non-zero" name)
              cells)
        m.Propagation.Sw_module.outputs)
    counts

(* A sample of indices re-executed alone through the worker entry point
   must reproduce the campaign's outcomes exactly. *)
let reexecute ~seed (inp : Workloads.input) indexed_outcomes =
  let exec =
    Propane.Runner.executor ~config:inp.config ~seed:inp.config.seed inp.sut
      inp.campaign
  in
  let arr = Array.of_list indexed_outcomes in
  let r = Workloads.rng ~seed 97 in
  for _ = 1 to min 6 (Array.length arr) do
    let i, o = arr.(Simkernel.Rng.int r (Array.length arr)) in
    let o', _ = exec i in
    if o' <> o then fail "index %d re-executed alone gives a different outcome" i
  done

let same_matrices a b =
  Propagation.String_map.equal
    (fun x y ->
      let open Propagation.Perm_matrix in
      input_count x = input_count y
      && output_count x = output_count y
      && fold_estimates
           (fun ~input ~output e ok -> ok && e = estimate y ~input ~output)
           x true)
    a b

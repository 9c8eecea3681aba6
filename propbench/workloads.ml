(* The benchmark's inputs.  Every input is a pure function of the
   workload name and the workload seed, so a run can be repeated
   exactly, and a worker process rebuilds the same system and campaign
   from the recipe string alone.  Seeds jitter the grids around fixed
   centres rather than redrawing them, so the work per campaign stays
   nearly the same from seed to seed. *)

type t = Arrestment_grid | Synthetic_budget | Layered_edit

let all = [ Arrestment_grid; Synthetic_budget; Layered_edit ]

let name = function
  | Arrestment_grid -> "arrestment-grid"
  | Synthetic_budget -> "synthetic-budget"
  | Layered_edit -> "layered-edit"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) all

(* The attribution the paper's Section 7.3 uses, shared by every
   estimation path and by the benchmark's own recount. *)
let window_ms = 64
let attribution = Propane.Estimator.Direct { window_ms }
let rng ~seed salt = Simkernel.Rng.create (Int64.of_int ((seed * 7919) + salt))

(* Injection instants: fixed centres, each moved by up to [spread] ms. *)
let jittered_times ~seed centres ~spread =
  let r = rng ~seed 11 in
  List.map
    (fun c -> Simkernel.Sim_time.of_ms (c - spread + Simkernel.Rng.int r ((2 * spread) + 1)))
    centres

let campaign_seed ~seed = Int64.of_int (1_000_003 + seed)

(* ------------------------------------------------------------------ *)
(* arrestment-grid: the paper's Section 7.3 campaign on a reduced grid
   of 3 masses x 3 velocities at one injection instant, every bit of
   all 13 module-input signals: 1,872 full-length physics runs.        *)

let arrestment_campaign ~seed =
  let r = rng ~seed 23 in
  let jitter c spread = c -. spread +. Simkernel.Rng.float r (2. *. spread) in
  let masses = List.map (fun m -> jitter m 400.) [ 8_500.; 14_000.; 19_500. ] in
  let velocities = List.map (fun v -> jitter v 2.) [ 42.; 60.; 78. ] in
  Propane.Campaign.make ~name:"arrestment-grid"
    ~targets:Arrestment.Model.injection_targets
    ~testcases:(Propane.Testcase.grid [ ("mass", masses); ("velocity", velocities) ])
    ~times:(jittered_times ~seed [ 2500 ] ~spread:100)
    ~errors:(Propane.Error_model.bit_flips ~width:Arrestment.Signals.width)

(* ------------------------------------------------------------------ *)
(* synthetic-budget: an adaptive budgeted campaign on an 8-module
   randomly wired system.  Only the campaign seed comes from the
   workload seed: the planner's choices follow every detail of the
   campaign, and moving the instants or reordering the targets changed
   the cost of a round up to threefold from one seed to another. *)

let synthetic_system () =
  Dataflow.Builder.synthetic ~modules:8 ~fan_in:3 ~fan_out:2 ~feedback:4 ~seed:424242L ()

let synthetic_budget = 240

let synthetic_campaign system =
  Propane.Campaign.make ~name:"synthetic-budget"
    ~targets:(Dataflow.Builder.injection_targets system)
    ~testcases:[ Propane.Testcase.make ~id:"t0" ~params:[] ]
    ~times:(List.map Simkernel.Sim_time.of_ms [ 40; 80; 120; 160 ])
    ~errors:(Propane.Error_model.bit_flips ~width:16)

(* ------------------------------------------------------------------ *)
(* layered-edit: a 6 x 4 layered dataflow network.  [edit] builds the
   system after a developer edited block L3_1: a different transfer
   constant (drawn from the seed) and a bumped content tag, so its
   digest, and only its digest, moves. *)

let layered_width = 4
let layered_layers = 6
let edited_block = "L3_1"
let truncate_after_ms = 128

let layered_system ~seed ~edit =
  let mask = 0xFFFF in
  let delta = 1 + (2 * Simkernel.Rng.int (rng ~seed 31) 16) in
  let signal l j = Propagation.Signal.make (Printf.sprintf "l%d_%d" l j) in
  let layer_inputs l = List.init layered_width (signal l) in
  let blocks =
    List.concat_map
      (fun l ->
        List.init layered_width (fun j ->
            let name = Printf.sprintf "L%d_%d" l j in
            let edited = edit && String.equal name edited_block in
            Dataflow.Builder.block ~name
              ~tag:(if edited then Printf.sprintf "edit-%d" delta else "")
              ~inputs:(layer_inputs l)
              ~outputs:[ signal (l + 1) j ]
              (fun () inputs ->
                (* Rotate, mix and mask so every input reaches the
                   output with a different partial permeability. *)
                let acc = ref 0 in
                Array.iteri
                  (fun i v -> acc := !acc lxor (v lsr ((i + j) mod 4)) lxor (v lsl j))
                  inputs;
                [| (!acc + if edited then delta else 0) land mask |])))
      (List.init layered_layers Fun.id)
  in
  let sink =
    Dataflow.Builder.block ~name:"SINK"
      ~inputs:(layer_inputs layered_layers)
      ~outputs:[ Propagation.Signal.make "sink_out" ]
      (fun () inputs -> [| Array.fold_left (fun a v -> (a + v) land mask) 0 inputs |])
  in
  Dataflow.Builder.create_exn ~name:"layered" ~duration_ms:400
    ~blocks:(blocks @ [ sink ])
    ~stimuli:
      (List.init layered_width (fun j ->
           Dataflow.Builder.ramp ~slope:((2 * j) + 3) (signal 0 j)))
    ()

(* Targets in layers 0-3: every one sits at or upstream of the edited
   block's inputs, the feed-forward case where cell reuse is exact. *)
let layered_campaign ~seed =
  let system = layered_system ~seed ~edit:false in
  let targets =
    List.filteri
      (fun i _ -> i < 4 * layered_width)
      (Dataflow.Builder.injection_targets system)
  in
  Propane.Campaign.make ~name:"layered-edit" ~targets
    ~testcases:[ Propane.Testcase.make ~id:"ramp" ~params:[] ]
    ~times:(jittered_times ~seed [ 100; 200; 300 ] ~spread:10)
    ~errors:(Propane.Error_model.bit_flips ~width:16)

(* ------------------------------------------------------------------ *)
(* What a campaign of each workload runs on. *)

type input = {
  sut : Propane.Sut.t;
  model : Propagation.System_model.t;
  campaign : Propane.Campaign.t;
  config : Propane.Runner.Config.t;
}

let input w ~seed ~edit =
  let seed64 = campaign_seed ~seed in
  match w with
  | Arrestment_grid ->
      {
        sut = Arrestment.System.sut ();
        model = Arrestment.Model.system;
        campaign = arrestment_campaign ~seed;
        config = Propane.Runner.Config.make ~seed:seed64 ~jobs:2 ();
      }
  | Synthetic_budget ->
      let system = synthetic_system () in
      {
        sut = Dataflow.Builder.sut system;
        model = Dataflow.Builder.model system;
        campaign = synthetic_campaign system;
        config =
          Propane.Runner.Config.make ~seed:seed64 ~jobs:1 ~budget:synthetic_budget
            ~plan:Propane.Plan.Adaptive ();
      }
  | Layered_edit ->
      let system = layered_system ~seed ~edit in
      {
        sut = Dataflow.Builder.sut system;
        model = Dataflow.Builder.model system;
        campaign = layered_campaign ~seed;
        config =
          Propane.Runner.Config.make ~seed:seed64 ~truncate_after_ms ~jobs:2 ();
      }

(* The recipe a benchmark worker process receives in its welcome:
   enough to rebuild [input] exactly. *)
let recipe w ~seed ~edit =
  Printf.sprintf "propbench;%s;%d;%b" (name w) seed edit

let of_recipe s =
  match String.split_on_char ';' s with
  | [ "propbench"; w; seed; edit ] -> (
      match (of_name w, int_of_string_opt seed, bool_of_string_opt edit) with
      | Some w, Some seed, Some edit -> Ok (w, seed, edit)
      | _ -> Error ("bad recipe " ^ s))
  | _ -> Error ("bad recipe " ^ s)

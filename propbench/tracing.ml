(* Outside-in instrumentation.  Everything here wraps the program's
   public interfaces from the benchmark's side: spans around the calls
   the benchmark makes into each layer, and a [Propane.Sut.t] wrapper
   that times and counts the runner's calls into the system under
   test.  Nothing inside the library is touched, so the untraced runs
   measure exactly the code a user runs. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans: name, start, end, parent; kept in memory, written at exit.   *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 1
let current = ref 0

(* [timed name f] runs [f] and returns its result with the elapsed
   seconds; with tracing on, the interval is also recorded as a span
   under the innermost enclosing one.  Called from the main domain
   only. *)
let timed name f =
  let id = !next_id in
  incr next_id;
  let parent = !current in
  current := id;
  let t0 = now () in
  let r = Fun.protect ~finally:(fun () -> current := parent) f in
  let t1 = now () in
  if !enabled then spans := { id; parent; name; start = t0; stop = t1 } :: !spans;
  (r, t1 -. t0)

(* ------------------------------------------------------------------ *)
(* Per-layer metric samples: one value per round, reported as the
   median over the run's rounds.                                       *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let metric name = median (Option.value ~default:[] (Hashtbl.find_opt samples name))

let write_file path =
  let oc = open_out path in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity !spans in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"span\":%d,\"parent\":%d,\"name\":%S,\"start_s\":%.6f,\"end_s\":%.6f}\n"
        s.id s.parent s.name (s.start -. t0) (s.stop -. t0))
    (List.rev !spans);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) samples []
  |> List.sort compare
  |> List.iter (fun (k, v) ->
         Printf.fprintf oc "{\"metric\":%S,\"per_round\":[%s]}\n" k
           (String.concat "," (List.rev_map (Printf.sprintf "%.9g") v)));
  close_out oc

(* ------------------------------------------------------------------ *)
(* The SUT wrapper.  Counts are exact; clocks are read only on every
   [stride]-th instance a domain creates, and the timed share is scaled
   up by the step (or instance) ratio.  The clock is the allocation-free
   nanosecond monotonic clock; the measured cost of one read is taken
   off every timed interval, so the per-call timing does not inflate
   the figures it produces.                                            *)

let stride = 8
let ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())

(* Median cost of one clock read, in ns. *)
let read_cost_ns =
  lazy
    (let batch () =
       let t0 = ns () in
       for _ = 1 to 1000 do
         ignore (Sys.opaque_identity (ns ()))
       done;
       (ns () - t0) / 1001
     in
     let l = List.init 21 (fun _ -> batch ()) |> List.sort compare in
     List.nth l 10)

type acc = {
  mutable instances : int;
  mutable injected : int;  (** instances the runner injected into *)
  mutable steps : int;
  mutable prefix : int;  (** injected runs' steps before the injection *)
  mutable post : int;  (** injected runs' steps from the injection on *)
  mutable timed_instances : int;
  mutable timed_injected : int;
  mutable timed_steps : int;
  mutable timed_snapshots : int;
  mutable snapshots : int;
  mutable inst_t : int;  (** ns, like every duration below *)
  mutable step_t : int;
  mutable sample_t : int;
  mutable inject_t : int;
  mutable run_t : int;  (** instantiate to last SUT call, timed injected *)
  mutable run_sut_t : int;  (** SUT time inside [run_t] *)
  mutable run_calls : int;  (** timed calls inside [run_t] *)
  mutable inj_first : int;  (** ns, first and last start of an injected run *)
  mutable inj_last : int;
  mutable runs : (string * int * int) list;
      (** per injected instance: test case, injection ms, steps run *)
  mutable goldens : (string * int) list;
      (** per uninjected instance (a golden run): test case, steps run *)
  mutable open_run : inst option;
}

and inst = {
  tc : string;
  t_first : int;
  timed : bool;
  mutable t_last : int;
  mutable sut_t : int;
  mutable calls : int;
  mutable inject_ms : int;
  mutable n_steps : int;
}

let fresh () =
  {
    instances = 0; injected = 0; steps = 0; prefix = 0; post = 0;
    timed_instances = 0; timed_injected = 0; timed_steps = 0;
    timed_snapshots = 0; snapshots = 0; inst_t = 0; step_t = 0;
    sample_t = 0; inject_t = 0; run_t = 0; run_sut_t = 0; run_calls = 0;
    inj_first = max_int; inj_last = min_int;
    runs = []; goldens = []; open_run = None;
  }

let registry : acc list ref = ref []
let registry_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let a = fresh () in
      Mutex.protect registry_lock (fun () -> registry := a :: !registry);
      a)

let close_run a =
  match a.open_run with
  | None -> ()
  | Some r ->
      a.open_run <- None;
      if r.inject_ms >= 0 then begin
        a.injected <- a.injected + 1;
        a.prefix <- a.prefix + r.inject_ms;
        a.post <- a.post + (r.n_steps - r.inject_ms);
        a.runs <- (r.tc, r.inject_ms, r.n_steps) :: a.runs;
        a.inj_first <- min a.inj_first r.t_first;
        a.inj_last <- max a.inj_last r.t_first;
        if r.timed then begin
          a.timed_injected <- a.timed_injected + 1;
          a.run_t <- a.run_t + (r.t_last - r.t_first);
          a.run_sut_t <- a.run_sut_t + r.sut_t;
          a.run_calls <- a.run_calls + r.calls
        end
      end
      else a.goldens <- (r.tc, r.n_steps) :: a.goldens

let wrap (sut : Propane.Sut.t) : Propane.Sut.t =
  let instantiate tc =
    let a = Domain.DLS.get key in
    close_run a;
    let timed = a.instances mod stride = 0 in
    a.instances <- a.instances + 1;
    let t0 = ns () in
    let i = sut.Propane.Sut.instantiate tc in
    let r =
      { tc = Propane.Testcase.id tc; t_first = t0; timed; t_last = t0;
        sut_t = 0; calls = 0; inject_ms = -1; n_steps = 0 }
    in
    if timed then begin
      let t1 = ns () in
      a.timed_instances <- a.timed_instances + 1;
      a.inst_t <- a.inst_t + (t1 - t0);
      r.sut_t <- t1 - t0;
      r.calls <- 1;
      r.t_last <- t1
    end;
    a.open_run <- Some r;
    let timed_call f add =
      let t0 = ns () in
      let v = f () in
      let t1 = ns () in
      add (t1 - t0);
      r.calls <- r.calls + 1;
      r.sut_t <- r.sut_t + (t1 - t0);
      r.t_last <- t1;
      v
    in
    let step () =
      a.steps <- a.steps + 1;
      r.n_steps <- r.n_steps + 1;
      if timed then begin
        a.timed_steps <- a.timed_steps + 1;
        timed_call i.Propane.Sut.step (fun d -> a.step_t <- a.step_t + d)
      end
      else i.Propane.Sut.step ()
    in
    let inject name f =
      if r.inject_ms < 0 then r.inject_ms <- r.n_steps;
      if timed then
        timed_call
          (fun () -> i.Propane.Sut.inject name f)
          (fun d -> a.inject_t <- a.inject_t + d)
      else i.Propane.Sut.inject name f
    in
    let sample f =
      a.snapshots <- a.snapshots + 1;
      if timed then begin
        a.timed_snapshots <- a.timed_snapshots + 1;
        timed_call f (fun d -> a.sample_t <- a.sample_t + d)
      end
      else f ()
    in
    {
      i with
      Propane.Sut.step;
      inject;
      read = (fun s -> sample (fun () -> i.Propane.Sut.read s));
      snapshot =
        Option.map (fun snap buf -> sample (fun () -> snap buf)) i.Propane.Sut.snapshot;
    }
  in
  { sut with Propane.Sut.instantiate }

(* Totals over every domain that ran wrapped instances since the last
   [collect], which zeroes them.  Call once the campaign's domains have
   been joined.  Durations are in seconds. *)
type totals = {
  t_injected : int;
  t_prefix : int;
  t_post : int;
  t_inst_s : float;
  t_step_s : float;
  t_sample_s : float;
  t_inject_s : float;
  t_runner_self_s : float;  (** injected runs' time outside the SUT *)
  t_busy_s : float;  (** injected runs' time, instantiate to last SUT call *)
  t_early_exit_ms : int;
      (** simulated ms the injected runs did not run, against their
          scheduled length (golden length, cut by truncation) *)
  t_inj_first_ns : int;  (** first start of an injected run, any domain *)
  t_span_s : float;
      (** per domain, first injected run's start to last one's estimated
          end, summed: the time domains held injection work *)
}

(* Timed ns, less the read cost, scaled from the timed share to all. *)
let scaled ~all ~timed ~reads t =
  if timed = 0 then 0.
  else
    float (t - (reads * Lazy.force read_cost_ns)) *. 1e-9 *. float all /. float timed

let early_exit ?truncate_after_ms accs =
  let goldens = List.concat_map (fun a -> a.goldens) accs in
  List.fold_left
    (fun acc a ->
      List.fold_left
        (fun acc (tc, at, steps) ->
          match List.assoc_opt tc goldens with
          | None -> acc
          | Some d ->
              let scheduled =
                match truncate_after_ms with None -> d | Some extra -> min d (at + extra + 1)
              in
              acc + max 0 (scheduled - steps))
        acc a.runs)
    0 accs

let collect ?truncate_after_ms () =
  Mutex.protect registry_lock (fun () ->
      let accs = !registry in
      List.iter close_run accs;
      let sum f = List.fold_left (fun s a -> s + f a) 0 accs in
      let injected = sum (fun a -> a.injected) and timed_injected = sum (fun a -> a.timed_injected) in
      let run_calls = sum (fun a -> a.run_calls) in
      let t =
        {
          t_injected = injected;
          t_prefix = sum (fun a -> a.prefix);
          t_post = sum (fun a -> a.post);
          t_inst_s =
            scaled ~all:(sum (fun a -> a.instances)) ~timed:(sum (fun a -> a.timed_instances))
              ~reads:(sum (fun a -> a.timed_instances)) (sum (fun a -> a.inst_t));
          t_step_s =
            scaled ~all:(sum (fun a -> a.steps)) ~timed:(sum (fun a -> a.timed_steps))
              ~reads:(sum (fun a -> a.timed_steps)) (sum (fun a -> a.step_t));
          t_sample_s =
            scaled ~all:(sum (fun a -> a.snapshots)) ~timed:(sum (fun a -> a.timed_snapshots))
              ~reads:(sum (fun a -> a.timed_snapshots)) (sum (fun a -> a.sample_t));
          t_inject_s =
            scaled ~all:injected ~timed:timed_injected ~reads:timed_injected
              (sum (fun a -> a.inject_t));
          (* Each timed call puts about one read inside its interval and
             one outside it, both within the run's span. *)
          t_runner_self_s =
            scaled ~all:injected ~timed:timed_injected ~reads:run_calls
              (sum (fun a -> a.run_t - a.run_sut_t));
          t_busy_s =
            scaled ~all:injected ~timed:timed_injected ~reads:(2 * run_calls)
              (sum (fun a -> a.run_t));
          t_early_exit_ms = early_exit ?truncate_after_ms accs;
          t_inj_first_ns = List.fold_left (fun m a -> min m a.inj_first) max_int accs;
          t_span_s =
            (let mean_run =
               scaled ~all:1 ~timed:timed_injected ~reads:(2 * run_calls) (sum (fun a -> a.run_t))
             in
             List.fold_left
               (fun s a ->
                 if a.injected = 0 then s
                 else s +. (float (a.inj_last - a.inj_first) *. 1e-9) +. mean_run)
               0. accs);
        }
      in
      List.iter
        (fun a ->
          a.instances <- 0; a.injected <- 0; a.steps <- 0; a.prefix <- 0; a.post <- 0;
          a.timed_instances <- 0; a.timed_injected <- 0; a.timed_steps <- 0;
          a.timed_snapshots <- 0; a.snapshots <- 0; a.inst_t <- 0;
          a.step_t <- 0; a.sample_t <- 0; a.inject_t <- 0; a.run_t <- 0; a.run_sut_t <- 0;
          a.run_calls <- 0; a.runs <- []; a.goldens <- []; a.inj_first <- max_int;
          a.inj_last <- min_int)
        accs;
      t)

(* Peak resident set of this process, in MB. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec loop () =
          match input_line ic with
          | exception End_of_file -> nan
          | line when String.starts_with ~prefix:"VmHWM:" line ->
              Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
          | _ -> loop ()
        in
        loop ())
  with Sys_error _ -> nan

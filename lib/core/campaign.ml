module Graph = Qe_graph.Graph
module Bicolored = Qe_graph.Bicolored
module F = Qe_graph.Families
module Engine = Qe_runtime.Engine
module World = Qe_runtime.World
module Protocol = Qe_runtime.Protocol

type instance = {
  name : string;
  family : string;
  cayley : bool;
  graph : Graph.t;
  black : int list;
}

let instance ~name ~family ~cayley graph ~black =
  { name; family; cayley; graph; black }

let bicolored i = Bicolored.make i.graph ~black:i.black

let zoo () =
  [
    (* paths and trees: rigid or reflection-symmetric *)
    instance ~name:"path4/end" ~family:"path" ~cayley:false (F.path 4)
      ~black:[ 0 ];
    instance ~name:"path4/ends" ~family:"path" ~cayley:false (F.path 4)
      ~black:[ 0; 3 ];
    instance ~name:"path4/asym" ~family:"path" ~cayley:false (F.path 4)
      ~black:[ 0; 2 ];
    instance ~name:"path5/mid-pair" ~family:"path" ~cayley:false (F.path 5)
      ~black:[ 1; 2 ];
    instance ~name:"tree2/siblings" ~family:"tree" ~cayley:false
      (F.binary_tree 2) ~black:[ 1; 2 ];
    instance ~name:"tree2/root+leaves" ~family:"tree" ~cayley:false
      (F.binary_tree 2) ~black:[ 0; 3; 4 ];
    instance ~name:"star3/leaves" ~family:"star" ~cayley:false (F.star 3)
      ~black:[ 1; 2; 3 ];
    instance ~name:"star5/two-leaves" ~family:"star" ~cayley:false (F.star 5)
      ~black:[ 1; 2 ];
    instance ~name:"wheel6/rim3" ~family:"wheel" ~cayley:false (F.wheel 6)
      ~black:[ 0; 2; 4 ];
    instance ~name:"wheel5/hub+rim" ~family:"wheel" ~cayley:false (F.wheel 5)
      ~black:[ 5; 0 ];
    (* rings *)
    instance ~name:"C5/adjacent" ~family:"cycle" ~cayley:true (F.cycle 5)
      ~black:[ 0; 1 ];
    instance ~name:"C5/all" ~family:"cycle" ~cayley:true (F.cycle 5)
      ~black:[ 0; 1; 2; 3; 4 ];
    instance ~name:"C6/antipodal" ~family:"cycle" ~cayley:true (F.cycle 6)
      ~black:[ 0; 3 ];
    instance ~name:"C6/adjacent" ~family:"cycle" ~cayley:true (F.cycle 6)
      ~black:[ 0; 1 ];
    instance ~name:"C6/triangle" ~family:"cycle" ~cayley:true (F.cycle 6)
      ~black:[ 0; 2; 4 ];
    instance ~name:"C7/spread" ~family:"cycle" ~cayley:true (F.cycle 7)
      ~black:[ 0; 1; 3 ];
    instance ~name:"C8/square" ~family:"cycle" ~cayley:true (F.cycle 8)
      ~black:[ 0; 2; 4; 6 ];
    instance ~name:"C10/near-pair" ~family:"cycle" ~cayley:true (F.cycle 10)
      ~black:[ 0; 2 ];
    instance ~name:"C12/break" ~family:"cycle" ~cayley:true (F.cycle 12)
      ~black:[ 0; 1; 5 ];
    instance ~name:"C12/two-blocks" ~family:"cycle" ~cayley:true (F.cycle 12)
      ~black:[ 0; 1; 2; 6; 7; 8 ];
    (* complete graphs *)
    instance ~name:"K2/both" ~family:"complete" ~cayley:true (F.complete 2)
      ~black:[ 0; 1 ];
    instance ~name:"K4/pair" ~family:"complete" ~cayley:true (F.complete 4)
      ~black:[ 0; 1 ];
    instance ~name:"K4/all" ~family:"complete" ~cayley:true (F.complete 4)
      ~black:[ 0; 1; 2; 3 ];
    instance ~name:"K5/triple" ~family:"complete" ~cayley:true (F.complete 5)
      ~black:[ 0; 1; 2 ];
    (* hypercubes *)
    instance ~name:"Q3/antipodal" ~family:"hypercube" ~cayley:true
      (F.hypercube 3) ~black:[ 0; 7 ];
    instance ~name:"Q3/adjacent" ~family:"hypercube" ~cayley:true
      (F.hypercube 3) ~black:[ 0; 1 ];
    instance ~name:"Q3/face" ~family:"hypercube" ~cayley:true (F.hypercube 3)
      ~black:[ 0; 3; 5; 6 ];
    instance ~name:"Q4/pair" ~family:"hypercube" ~cayley:true (F.hypercube 4)
      ~black:[ 0; 15 ];
    (* tori, circulants, bipartite *)
    instance ~name:"T33/pair" ~family:"torus" ~cayley:true (F.torus 3 3)
      ~black:[ 0; 4 ];
    instance ~name:"T34/diag" ~family:"torus" ~cayley:true (F.torus 3 4)
      ~black:[ 0; 5; 10 ];
    instance ~name:"circ10-13/pair" ~family:"circulant" ~cayley:true
      (F.circulant 10 [ 1; 3 ]) ~black:[ 0; 5 ];
    instance ~name:"K33/cross" ~family:"bipartite" ~cayley:true
      (F.complete_bipartite 3 3) ~black:[ 0; 3 ];
    instance ~name:"grid23/corners" ~family:"grid" ~cayley:false (F.grid 2 3)
      ~black:[ 0; 5 ];
    (* Petersen: the paper's counterexample *)
    instance ~name:"petersen/adjacent" ~family:"petersen" ~cayley:false
      (F.petersen ()) ~black:[ 0; 1 ];
    instance ~name:"petersen/triple" ~family:"petersen" ~cayley:false
      (F.petersen ()) ~black:[ 0; 1; 2 ];
    (* generalized Petersen cousins: more vertex-transitive specimens *)
    instance ~name:"moebius-kantor/adj" ~family:"gp" ~cayley:true
      (F.moebius_kantor ()) ~black:[ 0; 1 ];
    instance ~name:"dodecahedron/adj" ~family:"gp" ~cayley:false
      (F.dodecahedron ()) ~black:[ 0; 1 ];
    instance ~name:"desargues/adj" ~family:"gp" ~cayley:false
      (F.desargues ()) ~black:[ 0; 1 ];
    instance ~name:"octahedron/pair" ~family:"multipartite" ~cayley:true
      (F.complete_multipartite [ 2; 2; 2 ])
      ~black:[ 0; 2 ];
    (* deep Euclid chains: Fibonacci double stars force worst-case
       AGENT-REDUCE round counts; unequal multipartite parts drive
       NODE-REDUCE *)
    instance ~name:"dstar5-3/leaves" ~family:"doublestar" ~cayley:false
      (F.double_star 5 3)
      ~black:(List.init 8 (fun i -> 2 + i));
    instance ~name:"dstar8-5/leaves" ~family:"doublestar" ~cayley:false
      (F.double_star 8 5)
      ~black:(List.init 13 (fun i -> 2 + i));
    instance ~name:"K469/part1" ~family:"multipartite" ~cayley:false
      (F.complete_multipartite [ 4; 6; 9 ])
      ~black:[ 0; 1; 2; 3 ];
    instance ~name:"K468/part1" ~family:"multipartite" ~cayley:false
      (F.complete_multipartite [ 4; 6; 8 ])
      ~black:[ 0; 1; 2; 3 ];
    (* random connected graphs (rigid with overwhelming probability) *)
    instance ~name:"rand9/3" ~family:"random" ~cayley:false
      (F.random_connected ~seed:5 ~n:9 ~extra_edges:3)
      ~black:[ 0; 4; 7 ];
    instance ~name:"rand12/2" ~family:"random" ~cayley:false
      (F.random_connected ~seed:9 ~n:12 ~extra_edges:6)
      ~black:[ 1; 2 ];
  ]

let cayley_zoo () =
  List.filter (fun i -> i.cayley) (zoo ())
  @ [
      instance ~name:"C9/thirds" ~family:"cycle" ~cayley:true (F.cycle 9)
        ~black:[ 0; 3; 6 ];
      instance ~name:"C9/pair" ~family:"cycle" ~cayley:true (F.cycle 9)
        ~black:[ 0; 3 ];
      instance ~name:"Q2/all" ~family:"hypercube" ~cayley:true (F.hypercube 2)
        ~black:[ 0; 1; 2; 3 ];
      instance ~name:"Q2/edge" ~family:"hypercube" ~cayley:true
        (F.hypercube 2) ~black:[ 0; 1 ];
      instance ~name:"circ8-14/anti" ~family:"circulant" ~cayley:true
        (F.circulant 8 [ 1; 4 ]) ~black:[ 0; 4 ];
      instance ~name:"prism6/pair" ~family:"circulant" ~cayley:true
        (F.circulant 6 [ 2; 3 ]) ~black:[ 0; 3 ];
      instance ~name:"T33/single" ~family:"torus" ~cayley:true (F.torus 3 3)
        ~black:[ 0 ];
      instance ~name:"K5/pair" ~family:"complete" ~cayley:true (F.complete 5)
        ~black:[ 0; 1 ];
      instance ~name:"CCC3/pair" ~family:"ccc" ~cayley:true
        (F.cube_connected_cycles 3) ~black:[ 0; 13 ];
    ]

type record = {
  inst : instance;
  protocol_name : string;
  strategy_name : string;
  seed : int;
  outcome : Engine.outcome;
  elected : bool;
  expected_elected : bool;
  conforms : bool;
  gcd : int;
  prediction : Oracle.prediction;
  agents : int;
  nodes : int;
  edges : int;
  moves : int;
  accesses : int;
  turns : int;
  wall_ns : int;
}

let strategies =
  [
    ("round-robin", Engine.Round_robin);
    ("random", Engine.Random_fair 0);
    ("lifo", Engine.Lifo);
    ("fifo-mailbox", Engine.Fifo_mailbox);
    ("synchronous", Engine.Synchronous);
  ]

(* the random scheduler draws from the run's own seed *)
let reseed seed = function
  | Engine.Random_fair _ -> Engine.Random_fair seed
  | s -> s

let run_one ?(strategy = ("random", Engine.Random_fair 0)) ?obs ?(seed = 0)
    ~expected_elected inst proto =
  let strategy_name, strategy = (fst strategy, reseed seed (snd strategy)) in
  let world = World.make inst.graph ~black:inst.black in
  let result = Engine.run ~strategy ~seed ?obs world proto in
  let elected =
    match result.Engine.outcome with Engine.Elected _ -> true | _ -> false
  in
  let unsolvable = result.Engine.outcome = Engine.Declared_unsolvable in
  let conforms = if expected_elected then elected else unsolvable in
  let b = bicolored inst in
  {
    inst;
    protocol_name = proto.Protocol.name;
    strategy_name;
    seed;
    outcome = result.Engine.outcome;
    elected;
    expected_elected;
    conforms;
    gcd = Oracle.gcd_classes b;
    prediction = Oracle.predict b;
    agents = List.length inst.black;
    nodes = Graph.n inst.graph;
    edges = Graph.m inst.graph;
    moves = result.Engine.total_moves;
    accesses = result.Engine.total_accesses;
    turns = result.Engine.scheduler_turns;
    wall_ns = result.Engine.wall_time_ns;
  }

let elect_expected inst = Oracle.gcd_classes (bicolored inst) = 1

(* ---------- the campaign executor ----------

   Every entry point below is the same recipe: build the task matrix
   once, as an array in {e canonical order} (sweep: instance -> strategy
   -> seed; chaos: seed -> instance -> strategy -> plan), and hand it to
   [execute], which farms it out
   on [Qe_par.Pool.run] — or, supervised, on [Qe_par.Supervisor.map],
   the same scheduler with a per-task attempt loop — and reads the
   results back in index order. Determinism needs nothing more: each
   task is self-contained (the engine derives its scheduling
   [Random.State] from the task's own seed, the fault injector from the
   plan's seed, and telemetry goes to a task-private sink), so no
   observable value depends on which domain ran a task or when.
   [jobs:1] (the default) runs the plain sequential loop with no
   domains at all, unless a deadline needs a monitored domain; [jobs:0]
   means "ask the machine"
   ([Qe_par.Pool.resolve_jobs]). *)

module Supervisor = Qe_par.Supervisor
module Sink = Qe_obs.Sink
module Metrics = Qe_obs.Metrics
module Export = Qe_obs.Export
module J = Qe_obs.Jsonl

(* Relative cost estimate handed to the pool's LPT assignment: symmetry
   refinement, the oracle and the engine all scale with the instance's
   graph, so nodes + edges keeps a torus from serializing a queue of
   cycles behind it. Purely advisory — results never depend on it. *)
let instance_weight inst = Graph.n inst.graph + Graph.m inst.graph

(* Hoist the per-instance symmetry artifacts out of the per-seed loop:
   resolve the oracle verdicts (and, through them, the classes) once per
   distinct instance before farming the matrix out, so pool domains find
   warm entries instead of racing on the first lookups. With the cache
   disabled this is a no-op and every run recomputes as before. The
   prewarm runs with no ambient sink: metric deltas are recorded at
   compute time into the cache entry and replayed at each in-run lookup,
   so observed snapshots are placement-identical either way. *)
let prewarm instances =
  if Qe_symmetry.Artifact_cache.enabled () then
    List.iter
      (fun inst ->
        let b = bicolored inst in
        ignore (Oracle.gcd_classes b);
        ignore (Oracle.predict b))
      instances

(* Wall-clock latency histograms ([*_latency]) are real time, so they
   can never be part of the determinism contract: any snapshot that is
   compared across runs or job counts ([obs_report], [c_metrics]) has
   them stripped. They still flow to live scrape hooks, [qelect run]
   sinks and trace metric lines, where wall time is the point. *)
let strip_latency snap =
  List.filter (fun (name, _) -> not (Metrics.is_latency name)) snap

type sweep_row = {
  s_idx : int;
  s_csv : string;
  s_conforms : bool;
  s_replayed : bool;
}

type hardened_summary = {
  h_tasks : int;
  h_replayed : int;
  h_ran : int;
  h_quarantined : (int * string) list;
  h_retries : int;
  h_timeouts : int;
  h_replaced : int;
  h_degraded : bool;
}

(* A task's fate: run here (with its private sink's snapshot, [[]]
   without one), replayed from the checkpoint journal, or quarantined by
   the supervisor. *)
type 'r slot = Ran of 'r * Metrics.snapshot | Replayed of J.value | Quarantined

let ran slots =
  Array.to_list slots
  |> List.filter_map (function Ran (r, s) -> Some (r, s) | _ -> None)

let fresh slots = List.map fst (ran slots)

let merged slots =
  List.fold_left (fun acc (_, s) -> Metrics.merge acc s) [] (ran slots)

(* Run [run sink task] over [tasks] and feed the results to the sinks:

   - [live] gets each run's private-sink snapshot as soon as it
     completes, from the pool domain (the callback must be domain-safe);
   - [observe] asks for a private sink even without [live]: the
     per-task snapshots are the product;
   - [ambient] also installs the private sink as the domain's ambient
     one, so kernel work triggered by the run lands in it too (sweeps;
     chaos runs hand it to the engine only);
   - [obs] is a parent trace sink: each run's lines are buffered and
     replayed to it in canonical task order, minus the per-run
     snapshots, then the batch's [pool.batch] per-domain lanes (when
     [obs] streams) and one merged snapshot — engine/fault instruments
     are counters and histograms only, so the merge equals a sequential
     interval reading exactly;
   - [checkpoint] replays the journal first (when [resume]) so only the
     missing indices run, and journals each fresh result at completion
     time — a kill -9 any time after loses nothing of the task
     ([encode] returning [None] leaves a result out).

   [supervise] runs the batch under {!Qe_par.Supervisor}; the summary
   is what a hardened caller reports ([label] names quarantined
   tasks). *)
let execute ~jobs ?supervise ?harness_chaos ?(ambient = false)
    ?(observe = false) ?obs ?live ?checkpoint ?(resume = false) ?(meta = [])
    ?(encode = fun _ -> None) ?(label = fun _ -> "") ~weight ~run tasks =
  let jobs = Qe_par.Pool.resolve_jobs jobs in
  let len = Array.length tasks in
  (* replay the journal (if resuming) and open it for appends; the
     header meta pins the exact task matrix, so resuming under different
     arguments fails instead of silently merging two different sweeps *)
  let replayed = Hashtbl.create 97 in
  let journal =
    Option.map
      (fun path ->
        if resume && Sys.file_exists path then begin
          List.iter
            (fun (i, v) ->
              if i >= 0 && i < len then Hashtbl.replace replayed i v)
            (Checkpoint.load ~path ~meta);
          Checkpoint.resume ~path ~meta
        end
        else Checkpoint.create ~path ~meta)
      checkpoint
  in
  let todo =
    Array.of_list
      (List.filter
         (fun i -> not (Hashtbl.mem replayed i))
         (List.init len Fun.id))
  in
  let streaming =
    match obs with Some { Sink.on_line = Some _; _ } -> true | _ -> false
  in
  let private_sink = observe || Option.is_some obs || Option.is_some live in
  let task _ idx =
    let t = tasks.(idx) in
    let ((r, _, _) as res) =
      if not private_sink then (run None t, [], [])
      else begin
        let lines = ref [] in
        let on_line =
          if streaming then Some (fun l -> lines := l :: !lines) else None
        in
        let sink = Sink.create ?on_line () in
        let r =
          if ambient then Sink.with_ambient sink (fun () -> run (Some sink) t)
          else run (Some sink) t
        in
        let snap = Metrics.snapshot sink.Sink.metrics in
        Option.iter (fun push -> push snap) live;
        (r, snap, List.rev !lines)
      end
    in
    Option.iter
      (fun j -> Option.iter (Checkpoint.append j idx) (encode r))
      journal;
    res
  in
  let weight _ idx = weight tasks.(idx) in
  let go () =
    match supervise with
    | None -> Array.map Option.some (Qe_par.Pool.run ~jobs ~weight ~f:task todo)
    | Some policy ->
        Supervisor.map ~policy ?chaos:harness_chaos ~jobs ~weight ~f:task todo
        |> Array.map Supervisor.value
  in
  (* with a streaming parent, the batch's scheduler telemetry goes to a
     side sink whose span lanes are appended to the trace; its metrics
     are wall-clock and would break jobs-invariance, so they are
     dropped *)
  let pool_sink = if streaming then Some (Sink.create ()) else None in
  let t0 = Supervisor.totals () in
  let results =
    match pool_sink with Some ps -> Sink.with_ambient ps go | None -> go ()
  in
  let t1 = Supervisor.totals () in
  Option.iter Checkpoint.close journal;
  let slots =
    Array.init len (fun idx ->
        Option.fold ~none:Quarantined ~some:(fun v -> Replayed v)
          (Hashtbl.find_opt replayed idx))
  in
  Array.iteri
    (fun k res ->
      Option.iter (fun (r, snap, _) -> slots.(todo.(k)) <- Ran (r, snap)) res)
    results;
  Option.iter
    (fun parent ->
      Array.iter
        (Option.iter (fun (_, _, lines) ->
             List.iter
               (function
                 | Export.Metric_snapshot _ -> () | l -> Sink.emit parent l)
               lines))
        results;
      Option.iter
        (fun ps ->
          List.iter
            (fun root -> Sink.emit parent (Export.Span_tree root))
            (Qe_obs.Span.roots ps.Sink.spans))
        pool_sink;
      (* the trace keeps the unstripped merge: latency quantiles are
         useful in `qelect report`, and traces are wall-clock anyway *)
      let m = merged slots in
      if m <> [] then Sink.emit parent (Export.Metric_snapshot m))
    obs;
  let quarantined =
    List.filter_map
      (fun idx ->
        match slots.(idx) with
        | Quarantined -> Some (idx, label tasks.(idx))
        | _ -> None)
      (List.init len Fun.id)
  in
  ( slots,
    {
      h_tasks = len;
      h_replayed = Hashtbl.length replayed;
      h_ran = len - Hashtbl.length replayed;
      h_quarantined = quarantined;
      h_retries = t1.Supervisor.retries - t0.Supervisor.retries;
      h_timeouts = t1.Supervisor.timeouts - t0.Supervisor.timeouts;
      h_replaced = t1.Supervisor.replaced - t0.Supervisor.replaced;
      h_degraded = t1.Supervisor.degraded > t0.Supervisor.degraded;
    } )

(* The header meta pinning a matrix for its checkpoint journal. *)
let matrix_meta ~mode ~seeds ~len proto strategies instances =
  [
    ("mode", J.String mode);
    ("protocol", J.String proto.Protocol.name);
    ("tasks", J.Int len);
    ("seeds", seeds);
    ("strategies", J.String (String.concat "," (List.map fst strategies)));
    ( "instances",
      J.String (String.concat "," (List.map (fun i -> i.name) instances)) );
  ]

(* ---------- sweeps ---------- *)

(* the sweep matrix: instance -> strategy -> seed *)
let sweep_matrix ~seeds ~strategies ~expected instances =
  prewarm instances;
  List.concat_map
    (fun inst ->
      let expected_elected = expected inst in
      List.concat_map
        (fun strat ->
          List.map (fun seed -> (inst, strat, seed, expected_elected)) seeds)
        strategies)
    instances
  |> Array.of_list

let sweep_task proto obs (inst, strategy, seed, expected_elected) =
  run_one ~strategy ?obs ~seed ~expected_elected inst proto

let sweep_weight (inst, _, _, _) = instance_weight inst

let sweep ?(seeds = [ 0; 1 ]) ?(strategies = strategies) ?(jobs = 1) ?live
    ~expected proto instances =
  (* a live scrape wants engine *and* kernel/cache activity, so each run
     gets the full observed setup; the record is unchanged by it *)
  execute ~jobs ~ambient:true ?live ~weight:sweep_weight
    ~run:(sweep_task proto)
    (sweep_matrix ~seeds ~strategies ~expected instances)
  |> fst |> fresh

type obs_report = {
  per_instance : (string * Metrics.snapshot) list;
  total : Metrics.snapshot;
}

let observed_sweep ?(seeds = [ 0; 1 ]) ?(strategies = strategies) ?(jobs = 1)
    ?live ~expected proto instances =
  prewarm instances;
  (* parallel at instance granularity: one sink per instance is the
     published contract of [obs_report], and an instance's runs sharing
     their sink (engine counters via ?obs, kernel refine/canon counters
     via the ambient hook) is exactly the sequential setup, so
     per-instance snapshots are bit-identical at any [jobs] *)
  let slots, _ =
    execute ~jobs ~ambient:true ~observe:true ?live ~weight:instance_weight
      ~run:(fun obs inst ->
        let expected_elected = expected inst in
        List.concat_map
          (fun strategy ->
            List.map
              (fun seed ->
                run_one ~strategy ?obs ~seed ~expected_elected inst proto)
              seeds)
          strategies)
      (Array.of_list instances)
  in
  let per_instance =
    List.map2
      (fun inst (_, s) -> (inst.name, strip_latency s))
      instances (ran slots)
  in
  ( List.concat (fresh slots),
    { per_instance; total = strip_latency (merged slots) } )

let conformance_rate records =
  let total = List.length records in
  let ok = List.length (List.filter (fun r -> r.conforms) records) in
  (ok, total)

(* The sweep CSV schema. Golden-tested: the column order (wall_ns last)
   is consumed by external scripts, so changing it is a breaking change
   and must show up in a test diff. *)
let csv_header =
  "instance,family,protocol,strategy,seed,nodes,edges,agents,gcd,\
   expected_elected,elected,conforms,moves,accesses,turns,wall_ns"

let csv_row r =
  Printf.sprintf "%s,%s,%s,%s,%d,%d,%d,%d,%d,%b,%b,%b,%d,%d,%d,%d"
    r.inst.name r.inst.family r.protocol_name r.strategy_name r.seed r.nodes
    r.edges r.agents r.gcd r.expected_elected r.elected r.conforms r.moves
    r.accesses r.turns r.wall_ns

(* ---------- chaos campaigns ---------- *)

module FPlan = Qe_fault.Plan
module FKind = Qe_fault.Kind
module Watchdog = Qe_fault.Watchdog

type chaos_violation =
  | Two_leaders_certified of {
      outcome : Engine.outcome;
      verdicts : (Qe_color.Color.t * Protocol.verdict) list;
    }
  | Zero_fault_divergence of Engine.outcome
  | Crash_run_stuck of Engine.outcome

let pp_chaos_violation ppf = function
  | Two_leaders_certified { outcome; verdicts } ->
      Format.fprintf ppf "certified %a with leaders {%s}" Engine.pp_outcome
        outcome
        (String.concat ", "
           (List.filter_map
              (fun (c, v) ->
                if v = Protocol.Leader then Some (Qe_color.Color.name c)
                else None)
              verdicts))
  | Zero_fault_divergence o ->
      Format.fprintf ppf "zero-fault run diverged from oracle: %a"
        Engine.pp_outcome o
  | Crash_run_stuck o ->
      Format.fprintf ppf "crash-only run did not terminate: %a"
        Engine.pp_outcome o

type chaos_record = {
  c_inst : instance;
  c_strategy : string;
  c_plan_kind : string;
  c_plan : FPlan.t;
  c_outcome : Engine.outcome;
  c_faults : (FKind.t * int) list;
  c_leaders : int;
  c_violations : chaos_violation list;
  c_turns : int;
}

type chaos_report = {
  c_records : chaos_record list;
  c_runs : int;
  c_faults_fired : int;
  c_by_kind : (FKind.t * int) list;
  c_outcomes : (string * int) list;
  c_zero_fault_runs : int;
  c_violating : chaos_record list;
  c_metrics : Qe_obs.Metrics.snapshot;
  c_jobs : int;
  c_cores : int;
}

let outcome_label = function
  | Engine.Elected _ -> "elected"
  | Engine.Declared_unsolvable -> "unsolvable"
  | Engine.Deadlock -> "deadlock"
  | Engine.Step_limit -> "step-limit"
  | Engine.Timeout r -> "timeout-" ^ Watchdog.reason_name r
  | Engine.Inconsistent _ -> "inconsistent"

let default_chaos_watchdog =
  Watchdog.make ~turn_budget:500_000 ~livelock_window:120_000 ()

let chaos_run ?obs ~strategy:(strategy_name, strategy) ~seed ~watchdog
    ~plan_kind ~plan ~expected_elected inst proto =
  let strategy = reseed seed strategy in
  let world = World.make inst.graph ~black:inst.black in
  (* wake only the first agent: the rest sleep until a visitor's sign
     wakes them (the paper's wake-up model), which is what puts the
     delayed-wake injection point on the execution path *)
  let result =
    Engine.run ~strategy ~seed ?obs ~awake:[ 0 ] ~faults:plan ~watchdog
      world proto
  in
  let leaders =
    List.length
      (List.filter (fun (_, v) -> v = Protocol.Leader) result.Engine.verdicts)
  in
  let fired = result.Engine.faults_injected in
  let total_fired = List.fold_left (fun acc (_, n) -> acc + n) 0 fired in
  let terminated =
    match result.Engine.outcome with
    | Engine.Step_limit | Engine.Timeout _ -> false
    | _ -> true
  in
  let conforms =
    match result.Engine.outcome with
    | Engine.Elected _ -> expected_elected
    | Engine.Declared_unsolvable -> not expected_elected
    | _ -> false
  in
  let certified_ok =
    (* a "success" outcome must be consistent with the verdict set *)
    match result.Engine.outcome with
    | Engine.Elected _ -> leaders = 1
    | Engine.Declared_unsolvable -> leaders = 0
    | _ -> true
  in
  let outcome = result.Engine.outcome in
  let violations =
    List.filter_map
      (fun (broken, v) -> if broken then Some v else None)
      [
        ( not certified_ok,
          Two_leaders_certified
            { outcome; verdicts = result.Engine.verdicts } );
        (total_fired = 0 && not conforms, Zero_fault_divergence outcome);
        ( plan_kind = "crash-only" && inst.cayley && expected_elected
          && not terminated,
          Crash_run_stuck outcome );
      ]
  in
  {
    c_inst = inst;
    c_strategy = strategy_name;
    c_plan_kind = plan_kind;
    c_plan = plan;
    c_outcome = result.Engine.outcome;
    c_faults = fired;
    c_leaders = leaders;
    c_violations = violations;
    c_turns = result.Engine.scheduler_turns;
  }

(* the chaos matrix: seed -> instance -> strategy -> plan *)
let chaos_matrix ~seeds ~strategies ~expected instances =
  prewarm instances;
  List.concat_map
    (fun seed ->
      let plans =
        [ ("chaos", FPlan.chaos ~seed); ("crash-only", FPlan.crash_only ~seed) ]
      in
      List.concat_map
        (fun inst ->
          let expected_elected = expected inst in
          List.concat_map
            (fun strategy ->
              List.map
                (fun (plan_kind, plan) ->
                  (seed, inst, expected_elected, strategy, plan_kind, plan))
                plans)
            strategies)
        instances)
    (List.init seeds Fun.id)
  |> Array.of_list

let chaos_task proto watchdog obs
    (seed, inst, expected_elected, strategy, plan_kind, plan) =
  chaos_run ?obs ~strategy ~seed ~watchdog ~plan_kind ~plan ~expected_elected
    inst proto

let chaos_weight (_, inst, _, _, _, _) = instance_weight inst
let chaos_view r = (outcome_label r.c_outcome, r.c_faults)

(* The aggregates are computed over one (outcome label, faults) view per
   settled run, in canonical matrix order — fresh records and journal
   replays alike — so a resumed sweep prints exactly what the
   uninterrupted one would. *)
let chaos_report ~jobs ~metrics records views =
  let fired k (_, faults) = Option.value ~default:0 (List.assoc_opt k faults) in
  let by_kind =
    List.filter_map
      (fun k ->
        let n = List.fold_left (fun acc v -> acc + fired k v) 0 views in
        if n > 0 then Some (k, n) else None)
      FKind.all
  in
  let outcomes =
    List.fold_left
      (fun acc (l, _) ->
        let n = Option.value ~default:0 (List.assoc_opt l acc) in
        (l, n + 1) :: List.remove_assoc l acc)
      [] views
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  {
    c_records = records;
    c_runs = List.length views;
    c_faults_fired = List.fold_left (fun acc (_, n) -> acc + n) 0 by_kind;
    c_by_kind = by_kind;
    c_outcomes = outcomes;
    c_zero_fault_runs =
      List.length (List.filter (fun (_, faults) -> faults = []) views);
    c_violating = List.filter (fun r -> r.c_violations <> []) records;
    c_metrics = metrics;
    c_jobs = Qe_par.Pool.resolve_jobs jobs;
    c_cores = Domain.recommended_domain_count ();
  }

let chaos_sweep ?(seeds = 8) ?(strategies = strategies)
    ?(watchdog = default_chaos_watchdog) ?obs ?(jobs = 1) ?live ~expected
    proto instances =
  let slots, _ =
    execute ~jobs ?obs ?live ~weight:chaos_weight
      ~run:(chaos_task proto watchdog)
      (chaos_matrix ~seeds ~strategies ~expected instances)
  in
  let records = fresh slots in
  let metrics =
    if Option.is_none obs then [] else strip_latency (merged slots)
  in
  chaos_report ~jobs ~metrics records (List.map chaos_view records)

(* ---------- hardened campaigns: supervision + checkpoint ---------- *)

let sweep_hardened ?(seeds = [ 0; 1 ]) ?(strategies = strategies) ?(jobs = 1)
    ?live ?(supervise = Supervisor.policy ()) ?harness_chaos ?checkpoint
    ?(resume = false) ~expected proto instances =
  let tasks = sweep_matrix ~seeds ~strategies ~expected instances in
  let seeds = J.String (String.concat "," (List.map string_of_int seeds)) in
  let encode r =
    [ ("row", J.String (csv_row r)); ("conforms", J.Bool r.conforms) ]
  in
  let slots, summary =
    execute ~jobs ~supervise ?harness_chaos ~ambient:true ?live ?checkpoint
      ~resume
      ~meta:
        (matrix_meta ~mode:"sweep" ~seeds ~len:(Array.length tasks) proto
           strategies instances)
      ~encode:(fun r -> Some (encode r))
      ~label:(fun (inst, (sname, _), seed, _) ->
        Printf.sprintf "%s/%s/seed%d" inst.name sname seed)
      ~weight:sweep_weight ~run:(sweep_task proto) tasks
  in
  (* fresh rows decode from the same journal entry a replay reads *)
  let row s_idx v s_replayed =
    let s_csv =
      Option.value ~default:"" (Option.bind (J.member "row" v) J.to_str)
    in
    let s_conforms =
      match J.member "conforms" v with Some (J.Bool b) -> b | _ -> false
    in
    Some { s_idx; s_csv; s_conforms; s_replayed }
  in
  let row s_idx = function
    | Ran (r, _) -> row s_idx (J.Obj (encode r)) false
    | Replayed v -> row s_idx v true
    | Quarantined -> None
  in
  (List.filter_map Fun.id (Array.to_list (Array.mapi row slots)), summary)

let chaos_sweep_hardened ?(seeds = 8) ?(strategies = strategies)
    ?(watchdog = default_chaos_watchdog) ?(jobs = 1) ?live
    ?(supervise = Supervisor.policy ()) ?harness_chaos ?checkpoint
    ?(resume = false) ~expected proto instances =
  let tasks = chaos_matrix ~seeds ~strategies ~expected instances in
  let slots, summary =
    execute ~jobs ~supervise ?harness_chaos ?live ?checkpoint ~resume
      ~meta:
        (matrix_meta ~mode:"chaos" ~seeds:(J.Int seeds)
           ~len:(Array.length tasks) proto strategies instances)
        (* violating runs are deliberately not journaled: a resume must
           re-run them and re-surface the (typed) violations *)
      ~encode:(fun r ->
        if r.c_violations <> [] then None
        else
          Some
            [
              ("outcome", J.String (outcome_label r.c_outcome));
              ( "faults",
                J.List
                  (List.map
                     (fun (k, n) -> J.List [ J.String (FKind.name k); J.Int n ])
                     r.c_faults) );
              ("leaders", J.Int r.c_leaders);
              ("turns", J.Int r.c_turns);
            ])
      ~label:(fun (_, inst, _, (sname, _), plan_kind, _) ->
        Printf.sprintf "%s/%s/%s" inst.name sname plan_kind)
      ~weight:chaos_weight ~run:(chaos_task proto watchdog) tasks
  in
  let view = function
    | Ran (r, _) -> Some (chaos_view r)
    | Replayed v ->
        let label =
          Option.value ~default:"?"
            (Option.bind (J.member "outcome" v) J.to_str)
        in
        let faults =
          match J.member "faults" v with
          | Some (J.List l) ->
              List.filter_map
                (function
                  | J.List [ J.String name; J.Int n ] ->
                      List.find_opt (fun k -> FKind.name k = name) FKind.all
                      |> Option.map (fun k -> (k, n))
                  | _ -> None)
                l
          | _ -> []
        in
        Some (label, faults)
    | Quarantined -> None
  in
  let views = List.filter_map view (Array.to_list slots) in
  (chaos_report ~jobs ~metrics:[] (fresh slots) views, summary)

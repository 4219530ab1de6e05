(* Workload [campaign]: the [qelect sweep] path. One
   Campaign.sweep_hardened call with default supervision runs the ELECT
   protocol over Campaign.zoo () x 5 strategies x a block of seeds taken
   from the seed argument, on min(2, nproc) domains, as one
   [qelect sweep --seeds K] process does. One op is one run record; its
   latency is the record's wall_ns. The set-up's warm-up sweep (one
   seed, on the main domain) fills the artifact cache, so the timed sweep
   reads it (the census workload writes it). The repeat query, between
   set-up and the timed sweep, runs the warm-up seed's 225 records again
   in turn on the main domain; its latency is that of one such pass.

   The work is fixed by --seconds rather than by the clock: [seeds_for]
   gives about --seconds of sweep on a 2-core 2.x GHz Xeon. Every
   sweep_hardened call in a process grows its heap, and a clock-bounded
   loop of sweeps would tie peak_heap_mb to the machine's speed.

   BENCHMARK.json leaves this workload out: its figures move too much
   from one process to the next to gate on (NOTES.md, "Steadiness"). The
   census traced run measures the engine and pool layers through
   [probe_sweep] instead. *)

module Campaign = Qe_elect.Campaign
module Supervisor = Qe_par.Supervisor
module Oracle = Qe_elect.Oracle
open Common

(* Seeds in the timed sweep of a run of [seconds]. *)
let seeds_for seconds = max 1 (int_of_float (Float.round (seconds *. 3.6)))

(* [n] seeds of the [k]-th block of a run. *)
let seeds ~seed ~n k = List.init n (fun i -> (seed * 100_000) + (k * n) + i)

(* The warm-up sweep's seed, the same in every run so that the repeat
   query re-runs the same records whatever the seed argument. *)
let warmup_seed = -1

(* The task matrix sweep_hardened lays out, as (instance, strategy,
   seed) names. *)
let matrix ~seed ~n zoo =
  List.concat_map
    (fun (inst : Campaign.instance) ->
      List.concat_map
        (fun (strat, _) ->
          List.map (fun s -> (inst.Campaign.name, strat, s)) (seeds ~seed ~n 0))
        Campaign.strategies)
    zoo

let sweep ?live ~jobs seeds zoo =
  Campaign.sweep_hardened ~seeds ~jobs ?live ~expected:Campaign.elect_expected
    Qe_elect.Elect.protocol zoo

type row = {
  conforms : bool;
  moves : int;
  accesses : int;
  turns : int;
  wall_ns : int;
}

(* The CSV columns end with ...,conforms,moves,accesses,turns,wall_ns. *)
let parse (r : Campaign.sweep_row) =
  let f = Array.of_list (String.split_on_char ',' r.Campaign.s_csv) in
  let n = Array.length f in
  let i k = int_of_string f.(n - k) in
  {
    conforms = r.Campaign.s_conforms;
    moves = i 4;
    accesses = i 3;
    turns = i 2;
    wall_ns = i 1;
  }

(* Rows that are wrong or missing in one sweep: every row must conform,
   nothing may be quarantined, and the row count must equal the matrix
   size. *)
let sweep_failures ~tasks rows (summary : Campaign.hardened_summary) =
  let nonconforming =
    List.length (List.filter (fun (r : Campaign.sweep_row) -> not r.Campaign.s_conforms) rows)
  in
  let missing = abs (tasks - List.length rows) in
  nonconforming
  + max missing (List.length summary.Campaign.h_quarantined)
  + if summary.Campaign.h_tasks <> tasks then 1 else 0

(* The CSV rows without their wall_ns column: what must be identical at
   any job count. *)
let strip_wall rows =
  List.map
    (fun (r : Campaign.sweep_row) ->
      let s = r.Campaign.s_csv in
      String.sub s 0 (String.rindex s ','))
    rows

(* Runs completed on worker domains, as (end_ns, domain, engine_ns),
   gathered by the live hook and turned into spans on the main domain. *)
let completions = ref []
let completions_lock = Mutex.create ()

let live snap =
  let t = now_ns () in
  let engine_ns =
    match Metrics.find snap "engine.run_latency" with
    | Some (Metrics.Hist { sum; _ }) -> sum
    | _ -> 0
  in
  let d = (Domain.self () :> int) in
  Mutex.lock completions_lock;
  completions := (t, d, engine_ns) :: !completions;
  Mutex.unlock completions_lock

(* Each completion becomes an op span from the previous completion on its
   domain (or the sweep's start) to its own end, with an engine.run child
   covering the engine's own wall time; the rest is runner overhead. *)
let record_runs tr ~first_op (sweep_span : Spans.span) =
  let runs = List.sort compare !completions in
  completions := [];
  let lanes = Hashtbl.create 4 and last = Hashtbl.create 4 in
  List.iteri
    (fun i (t, d, engine_ns) ->
      if not (Hashtbl.mem lanes d) then Hashtbl.add lanes d (Hashtbl.length lanes + 1);
      let lane = Hashtbl.find lanes d in
      let start_ns =
        Option.value ~default:sweep_span.Spans.start_ns (Hashtbl.find_opt last d)
      in
      Hashtbl.replace last d t;
      let op = first_op + i in
      let id =
        Spans.record tr ~name:"op.campaign" ~start_ns ~end_ns:t
          ~parent:sweep_span.Spans.id ~op ~lane
      in
      ignore
        (Spans.record tr ~name:"engine.run"
           ~start_ns:(max start_ns (t - engine_ns))
           ~end_ns:t ~parent:id ~op ~lane))
    runs

(* One traced sweep: the sweep_hardened call as a span, and its runs as
   op spans on the lanes of the domains that ran them. *)
let traced_sweep tr ~first_op ~jobs seeds zoo =
  let live = if Spans.enabled tr then Some live else None in
  let res =
    Spans.span tr ~op:(-1) "campaign.sweep_hardened" (fun () ->
        sweep ?live ~jobs seeds zoo)
  in
  Option.iter (record_runs tr ~first_op) (Spans.last tr);
  res

(* Engine and pool layers of one sweep: per-run engine counts from the
   records, supervisor totals since the last reset, and how busy the
   [jobs] domains were over the sweep's [sweep_ns]. *)
let sweep_layers ~jobs ~sweep_ns rows =
  let ops = List.length rows in
  let totals = Supervisor.totals () in
  let per_run f =
    value ~samples:ops
      (float_of_int (List.fold_left (fun a r -> a + f r) 0 rows)
      /. float_of_int (max 1 ops))
  in
  let busy = List.fold_left (fun a r -> a + r.wall_ns) 0 rows in
  [
    ( "engine.run_p50_ms",
      value ~samples:ops (Stats.median (List.map (fun r -> ms r.wall_ns) rows)) );
    ("engine.turns_per_run", per_run (fun r -> r.turns));
    ("engine.moves_per_run", per_run (fun r -> r.moves));
    ("engine.accesses_per_run", per_run (fun r -> r.accesses));
    ("par.retries", value (float_of_int totals.Supervisor.retries));
    ("par.timeouts", value (float_of_int totals.Supervisor.timeouts));
    ("par.quarantined", value (float_of_int totals.Supervisor.quarantined));
    ("par.idle_ms", value (ms ((jobs * sweep_ns) - busy)));
    ( "par.busy_frac",
      value (Stats.ratio (float_of_int busy) (float_of_int (jobs * sweep_ns))) );
  ]

(* A one-seed sweep of the zoo, traced, for workloads that reach the
   engine and the pool only through this probe. Returns its layers and
   the number of failed records. *)
let probe_sweep tr ~jobs =
  let zoo = Campaign.zoo () in
  let seeds = [ warmup_seed ] in
  let tasks = List.length zoo * List.length Campaign.strategies in
  Supervisor.reset_totals ();
  let (rows, summary), sweep_ns =
    timed (fun () -> traced_sweep tr ~first_op:(-1) ~jobs seeds zoo)
  in
  ( sweep_layers ~jobs ~sweep_ns (List.map parse rows),
    sweep_failures ~tasks rows summary )

let run cfg =
  let jobs = cfg.jobs in
  let zoo, setup =
    repeated_setup ~reps:5 (fun () ->
        Cache.clear ();
        let zoo = Campaign.zoo () in
        ignore (sweep ~jobs:1 [ warmup_seed ] zoo);
        zoo)
  in
  (* the repeat query: the warm-up seed's records again, one after
     another on the main domain, every artifact they need cached. One
     sample is one pass over them: a single run (~0.3 ms) is shorter than
     the minor-GC cycle, so its time says more about where the GC fell
     than about the run. *)
  let passes =
    List.init 24 (fun _ ->
        timed (fun () ->
            List.for_all
              (fun inst ->
                let expected_elected = Campaign.elect_expected inst in
                List.for_all
                  (fun strategy ->
                    (Campaign.run_one ~strategy ~seed:warmup_seed ~expected_elected
                       inst Qe_elect.Elect.protocol)
                      .Campaign.conforms)
                  Campaign.strategies)
              zoo))
  in
  let n = seeds_for cfg.seconds in
  let tasks = List.length zoo * List.length Campaign.strategies * n in
  let tr = Spans.create ~on:cfg.trace in
  Cache.reset_stats ();
  Supervisor.reset_totals ();
  let gc0 = Gc.quick_stat () in
  let (rows, summary), sweep_ns =
    timed (fun () -> traced_sweep tr ~first_op:0 ~jobs (seeds ~seed:cfg.seed ~n 0) zoo)
  in
  let gc1 = Gc.quick_stat () in
  let heap = peak_heap_mb () in
  let cache = cache_layers () in
  let failed = sweep_failures ~tasks rows summary in
  let rows = List.map parse rows in
  let engine = sweep_layers ~jobs ~sweep_ns rows in
  let ops = List.length rows in
  let run_ms = List.map (fun r -> ms r.wall_ns) rows in
  let repeat_ms = List.map (fun (_, ns) -> ms ns) passes in
  let failed = failed + List.length (List.filter (fun (ok, _) -> not ok) passes) in
  let e2e =
    [
      ("setup_s", setup);
      ("ops_per_s", value ~samples:ops (float_of_int ops /. (float_of_int sweep_ns /. 1e9)));
      ("op_p50_ms", value ~samples:ops (Stats.median run_ms));
      ("op_p90_ms", value ~samples:ops (Stats.quantile 0.9 run_ms));
      ( "repeat_p50_ms",
        value ~samples:(List.length repeat_ms) (Stats.median repeat_ms) );
      ("peak_heap_mb", value heap);
    ]
  in
  let notes =
    [
      Printf.sprintf "runs=%d jobs=%d zoo=%d strategies=%d seeds=%d sweep=%.3f s"
        ops jobs (List.length zoo)
        (List.length Campaign.strategies) n (float_of_int sweep_ns /. 1e9);
    ]
  in
  let layers =
    if not cfg.trace then []
    else begin
      (* probes on fresh copies of every zoo instance *)
      let copies = Array.init 5 (fun _ -> Array.of_list (Campaign.zoo ())) in
      let probes =
        List.init (List.length zoo) (fun i ->
            let op = tasks + i in
            let c = ref 0 in
            let fresh () =
              let z = copies.(!c) in
              incr c;
              Campaign.bicolored z.(i)
            in
            let p = probe tr ~op ~search:true fresh in
            Spans.span tr ~op "probe.oracle" (fun () ->
                let b = fresh () in
                Cache.clear ();
                ignore
                  (Spans.span tr ~op "classes.compute" (fun () ->
                       Qe_symmetry.Classes.compute b));
                let b = fresh () in
                Cache.clear ();
                ignore (Spans.span tr ~op "oracle.predict" (fun () -> Oracle.predict b)));
            p)
      in
      let unattributed = Spans.unattributed_frac tr in
      let overhead =
        overhead_layer ~n:2 (fun tr k ->
            ignore (traced_sweep tr ~first_op:0 ~jobs (seeds ~seed:cfg.seed ~n:6 k) zoo))
      in
      engine
      @ [
        ("classes.compute_ms", span_median tr "classes.compute");
        ("oracle.predict_ms", span_median tr "oracle.predict");
        overhead;
        ("trace.unattributed_frac", value unattributed);
      ]
      @ cache @ probe_layers tr probes
      @ gc_layers ~before:gc0 ~after:gc1 ~ops
    end
  in
  { attempted = tasks + List.length passes; failed; e2e; layers; notes; tracer = tr }

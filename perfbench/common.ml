(* What the three workloads share: run settings, the result record,
   timing, and the readings taken from counters the program already
   exposes (GC, artifact-cache stats, ambient kernel counters). *)

module Graph = Qe_graph.Graph
module Bicolored = Qe_graph.Bicolored
module Cache = Qe_symmetry.Artifact_cache
module Metrics = Qe_obs.Metrics

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  jobs : int;  (** domains the load may use: min 2 nproc *)
}

(* One reported number with the count of samples behind it. *)
type value = { v : float; samples : int }

type result = {
  attempted : int;
  failed : int;
  e2e : (string * value) list;
  layers : (string * value) list;
  notes : string list;  (** human-readable lines for the report *)
  tracer : Spans.t;  (** the run's spans (empty when untraced) *)
}

let now_ns = Qe_obs.Clock.now_ns
let ms ns = float_of_int ns /. 1e6
let value ?(samples = 1) v = { v; samples }

let timed f =
  let t0 = now_ns () in
  let x = f () in
  (x, now_ns () - t0)

(* Run the set-up [reps] times and keep the last state; set-up time is the
   median of the repetitions, in seconds. Each repetition starts from a
   compacted heap. *)
let repeated_setup ~reps f =
  let rec go k acc last =
    if k = 0 then (Option.get last, acc)
    else
      let () = Gc.compact () in
      let x, ns = timed f in
      go (k - 1) ((float_of_int ns /. 1e9) :: acc) (Some x)
  in
  let x, times = go reps [] None in
  (x, value ~samples:reps (Stats.median times))

(* Work is sized by --seconds rather than cut by the clock, so every run
   of a seed does the same ops whatever the machine's speed: [rounds cfg
   ~round_s] is the number of whole rounds that take about --seconds on
   a 2-core 2.x GHz Xeon, given a round of about [round_s] there. A run
   on a slower machine still stops at the first round boundary past
   twice --seconds ([past_cap]). *)
let rounds cfg ~round_s = max 1 (int_of_float (Float.round (cfg.seconds /. round_s)))

let past_cap cfg ~since = now_ns () - since >= int_of_float (2. *. cfg.seconds *. 1e9)
let bytes_per_word = float_of_int (Sys.word_size / 8)
let mib = 1048576.

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. bytes_per_word /. mib

(* GC readings over a measured window of [ops] ops. *)
let gc_layers ~before ~after ~ops =
  [
    ( "gc.minor_mb_per_op",
      value ~samples:ops
        ((after.Gc.minor_words -. before.Gc.minor_words)
        *. bytes_per_word /. mib
        /. float_of_int (max 1 ops)) );
    ( "gc.major_collections",
      value
        (float_of_int (after.Gc.major_collections - before.Gc.major_collections))
    );
  ]

let counter snap name =
  match Metrics.find snap name with Some (Metrics.Counter c) -> c | _ -> 0

(* Artifact-cache statistics since the last [Cache.reset_stats]. *)
let cache_layers () =
  let rows = Cache.stats () in
  let total f = List.fold_left (fun a r -> a + f r) 0 rows in
  let l1 =
    List.fold_left
      (fun acc (r : Cache.stat) -> Metrics.merge acc [ ("l1", r.Cache.l1_latency) ])
      [] rows
  in
  let l1_p50 =
    match Metrics.find l1 "l1" with
    | Some s -> Option.value ~default:0. (Metrics.quantile s 0.5)
    | None -> 0.
  in
  let c name f = (name, value (float_of_int (total f))) in
  [
    c "artifact_cache.hits" (fun r -> r.Cache.hits);
    c "artifact_cache.l1_hits" (fun r -> r.Cache.l1_hits);
    c "artifact_cache.misses" (fun r -> r.Cache.misses);
    c "artifact_cache.single_flight_waits" (fun r -> r.Cache.single_flight_waits);
    ("artifact_cache.hit_rate", value (Cache.hit_rate rows));
    ( "artifact_cache.l1_hit_p50_ns",
      value ~samples:(total (fun r -> r.Cache.l1_hits)) l1_p50 );
  ]

let misses_of kind =
  List.fold_left
    (fun a (r : Cache.stat) -> if r.Cache.kind = kind then a + r.Cache.misses else a)
    0 (Cache.stats ())

(* Kernel counters ([refine.*], [canon.*]) gathered through an ambient
   sink installed around each op's calls when tracing; [acc] is their
   merged snapshot. *)
let with_counters tr acc f =
  if not (Spans.enabled tr) then f ()
  else begin
    let sink = Qe_obs.Sink.create () in
    let x = Qe_obs.Sink.with_ambient sink f in
    acc := Metrics.merge !acc (Metrics.snapshot sink.Qe_obs.Sink.metrics);
    x
  end

let kernel_layers snap ~ops =
  let per_op name =
    value ~samples:ops
      (float_of_int (counter snap name) /. float_of_int (max 1 ops))
  in
  let nodes = counter snap "canon.nodes" in
  let pruned =
    counter snap "canon.prune.orbit" + counter snap "canon.prune.invariant"
  in
  [
    ("refine.splitters", per_op "refine.splitters");
    ("canon.runs", per_op "canon.runs");
    ("canon.nodes", per_op "canon.nodes");
    ("canon.leaves", per_op "canon.leaves");
    ( "canon.prune_frac",
      value
        (Stats.ratio (float_of_int pruned) (float_of_int (nodes + pruned))) );
  ]

(* Median duration of the spans of one name, in ms (0 when the workload
   never reached that layer). *)
let span_median tr name =
  let d = Spans.durations_ms tr name in
  value ~samples:(List.length d) (Stats.median d)

let fraction hits total =
  value ~samples:total (Stats.ratio (float_of_int hits) (float_of_int total))

(* Probe the inner layers an op reaches only through another layer, each
   on a freshly built copy of the input ([fresh ()] rebuilds the graph),
   so no verdict cached on the instance or in the artifact cache makes
   them look cheap. Probes run outside the op spans. [search] adds
   Canon.run and the translation search, which do not finish at 10^5
   nodes. Returns whether the transitivity certificate held and the
   exact key's length. *)
let probe tr ~op ~search fresh =
  Spans.span tr ~op "probe" (fun () ->
      let sp name f = Spans.span tr ~op name f in
      let b = fresh () in
      let d = sp "cdigraph.of_bicolored" (fun () -> Qe_symmetry.Cdigraph.of_bicolored b) in
      let key = sp "artifact_cache.exact_key" (fun () -> Cache.exact_key b) in
      let certified =
        sp "transitive.certified_regular" (fun () ->
            Qe_symmetry.Transitive.certified_regular (Bicolored.graph b))
        <> None
      in
      ignore (sp "refine.equitable" (fun () -> Qe_symmetry.Refine.equitable d));
      if search then begin
        ignore (sp "canon.run" (fun () -> Qe_symmetry.Canon.run d));
        let b = fresh () in
        ignore
          (sp "cayley_detect.exists_preserving_translation" (fun () ->
               try
                 Qe_symmetry.Cayley_detect.exists_preserving_translation
                   (Bicolored.graph b) ~black:(Bicolored.blacks b)
               with Failure _ -> false))
      end;
      let b = fresh () in
      Cache.clear ();
      ignore (sp "elect.make_plan" (fun () -> Qe_elect.Elect.make_plan b));
      (certified, String.length key))

(* Per-layer values every workload derives from its probes and spans. *)
let probe_layers tr probes =
  let n = List.length probes in
  [
    ("cdigraph.of_bicolored_ms", span_median tr "cdigraph.of_bicolored");
    ("artifact_cache.exact_key_ms", span_median tr "artifact_cache.exact_key");
    ( "artifact_cache.key_bytes",
      value ~samples:n
        (Stats.median (List.map (fun (_, k) -> float_of_int k) probes)) );
    ("transitive.certify_ms", span_median tr "transitive.certified_regular");
    ( "transitive.certified_frac",
      fraction (List.length (List.filter fst probes)) n );
    ("refine.equitable_ms", span_median tr "refine.equitable");
    ("canon.run_ms", span_median tr "canon.run");
    ( "cayley_detect.translation_ms",
      span_median tr "cayley_detect.exists_preserving_translation" );
    ("elect.make_plan_ms", span_median tr "elect.make_plan");
  ]

(* Trace overhead: [n] ops run once traced and once not, in alternating
   order so warm-up and drift fall on both sides alike; [replay tr i]
   runs op [i] under tracer [tr]. *)
let overhead_layer ~n replay =
  let traced = Spans.create ~on:true and quiet = Spans.create ~on:false in
  let t = ref 0 and u = ref 0 in
  let go tr acc i = acc := !acc + snd (timed (fun () -> replay tr i)) in
  for i = 0 to n - 1 do
    if i mod 2 = 0 then (go traced t i; go quiet u i)
    else (go quiet u i; go traced t i)
  done;
  ( "trace.overhead_frac",
    value ~samples:n (Stats.ratio (float_of_int !t) (float_of_int !u) -. 1.) )

(* Fill in every layer metric a workload does not reach with 0 (no
   samples), keeping the order of [Spec.per_layer]. *)
let complete_layers layers =
  List.map
    (fun (m : Spec.metric) ->
      match List.assoc_opt m.Spec.name layers with
      | Some v -> (m.Spec.name, v)
      | None -> (m.Spec.name, value ~samples:0 0.))
    Spec.per_layer

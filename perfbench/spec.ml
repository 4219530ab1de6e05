(* Every metric the benchmark reports: name, unit and direction. The
   end-to-end list is what an untraced run prints, the layer list what a
   traced run prints; BENCHMARK.json at the repo root lists the same
   names (the check mode compares them). *)

type better = Lower | Higher
type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "ops_per_s" "1/s" Higher;
    m "op_p50_ms" "ms" Lower;
    m "op_p90_ms" "ms" Lower;
    m "repeat_p50_ms" "ms" Lower;
    m "peak_heap_mb" "MB" Lower;
  ]

let per_layer =
  [
    m "presentation.gen_ms" "ms" Lower;
    m "presentation.gen_ns_per_node" "ns/node" Lower;
    m "cdigraph.of_bicolored_ms" "ms" Lower;
    m "artifact_cache.exact_key_ms" "ms" Lower;
    m "artifact_cache.key_bytes" "bytes" Lower;
    m "artifact_cache.hits" "count" Higher;
    m "artifact_cache.l1_hits" "count" Higher;
    m "artifact_cache.misses" "count" Lower;
    m "artifact_cache.single_flight_waits" "count" Lower;
    m "artifact_cache.hit_rate" "ratio" Higher;
    m "artifact_cache.l1_hit_p50_ns" "ns" Lower;
    m "transitive.certify_ms" "ms" Lower;
    m "transitive.certified_frac" "ratio" Higher;
    m "refine.equitable_ms" "ms" Lower;
    m "refine.splitters" "count/op" Lower;
    m "canon.run_ms" "ms" Lower;
    m "canon.runs" "count/op" Lower;
    m "canon.nodes" "count/op" Lower;
    m "canon.leaves" "count/op" Lower;
    m "canon.prune_frac" "ratio" Higher;
    m "classes.compute_ms" "ms" Lower;
    m "classes.fast_path_frac" "ratio" Higher;
    m "classes.computes_per_op" "count/op" Lower;
    m "cayley_detect.translation_ms" "ms" Lower;
    m "oracle.predict_ms" "ms" Lower;
    m "elect.make_plan_ms" "ms" Lower;
    m "engine.run_p50_ms" "ms" Lower;
    m "engine.turns_per_run" "count" Lower;
    m "engine.moves_per_run" "count" Lower;
    m "engine.accesses_per_run" "count" Lower;
    m "par.retries" "count" Lower;
    m "par.timeouts" "count" Lower;
    m "par.quarantined" "count" Lower;
    m "par.idle_ms" "ms" Lower;
    m "par.busy_frac" "ratio" Higher;
    m "gc.minor_mb_per_op" "MB/op" Lower;
    m "gc.major_collections" "count" Lower;
    m "trace.overhead_frac" "ratio" Lower;
    m "trace.unattributed_frac" "ratio" Lower;
  ]

let is_name_char c =
  match c with
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let valid_name s =
  String.length s > 0
  && String.length s <= 64
  && String.for_all is_name_char s
  &&
  match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

let valid_unit s =
  String.length s > 0
  && String.length s <= 16
  && String.for_all (fun c -> is_name_char c || c = '/' || c = '%') s

let better_string = function Lower -> "lower" | Higher -> "higher"

(* The repo benchmark.

     bench.exe run --workload W --seed N --seconds S --trace T
                   [--out DIR] [--commit ID]
     bench.exe check

   W is frontier, census or campaign; T is 0 or 1.

   [run] prints a report (lines starting with '#': the run fingerprint,
   every metric with its unit and sample count) and, as its last line,
   one JSON object with the keys correct, attempted, failed and metrics:
   the end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. It also
   writes the result with its fingerprint to DIR (default .bench_out),
   and in a traced run the span file (Chrome trace-event JSON) and the
   per-layer self-time table. [check] runs the benchmark's own tests.
   The canon backend is whatever the program resolves by default. *)

module J = Qe_obs.Jsonl
open Common

let workloads =
  [
    ("frontier", Frontier_wl.run);
    ("census", Census_wl.run);
    ("campaign", Campaign_wl.run);
  ]

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | l -> (
            match String.index_opt l ':' with
            | Some i when String.starts_with ~prefix:"model name" l ->
                String.trim (String.sub l (i + 1) (String.length l - i - 1))
            | _ -> find ())
      in
      let m = find () in
      close_in ic;
      m

(* Results whose fingerprints differ are not comparable. *)
let fingerprint cfg ~workload ~commit =
  J.Obj
    [
      ("workload", J.String workload);
      ("seed", J.Int cfg.seed);
      ("seconds", J.Float cfg.seconds);
      ("trace", J.Bool cfg.trace);
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("cpu_model", J.String (cpu_model ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("canon_backend", J.String (Qe_symmetry.Canon_backend.tag ()));
      ( "QELECT_CANON_BACKEND",
        match Sys.getenv_opt "QELECT_CANON_BACKEND" with
        | Some v -> J.String v
        | None -> J.Null );
      ("cache_enabled", J.Bool (Cache.enabled ()));
      ("jobs", J.Int cfg.jobs);
      ("commit", J.String commit);
    ]

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let spec_of name =
  List.find (fun (m : Spec.metric) -> m.Spec.name = name) (Spec.end_to_end @ Spec.per_layer)

let metric_json (name, v) =
  (name, J.Obj [ ("value", J.Float v.v); ("unit", J.String (spec_of name).Spec.unit_) ])

let run ~workload ~cfg ~out ~commit =
  let t_start = now_ns () in
  let f =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None -> failwith ("unknown workload " ^ workload)
  in
  let fp = fingerprint cfg ~workload ~commit in
  Printf.printf "# perfbench %s seed=%d seconds=%g trace=%d\n# fingerprint %s\n%!"
    workload cfg.seed cfg.seconds
    (if cfg.trace then 1 else 0)
    (J.to_string fp);
  let r = f cfg in
  let e2e =
    List.map
      (fun (m : Spec.metric) ->
        match List.assoc_opt m.Spec.name r.e2e with
        | Some v -> (m.Spec.name, v)
        | None -> failwith (workload ^ " did not report " ^ m.Spec.name))
      Spec.end_to_end
  in
  let layers = complete_layers r.layers in
  let failed_frac =
    float_of_int r.failed /. float_of_int (max 1 r.attempted)
  in
  List.iter (fun l -> Printf.printf "# %s: %s\n" workload l) r.notes;
  let print kind (name, v) =
    Printf.printf "# %s %-36s %16.6f %-8s (n=%d)\n" kind name v.v
      (spec_of name).Spec.unit_ v.samples
  in
  List.iter (print "e2e") e2e;
  Printf.printf "# e2e %-36s %16.6f %-8s (failed=%d attempted=%d)\n"
    "failed_frac" failed_frac "ratio" r.failed r.attempted;
  if cfg.trace then List.iter (print "layer") layers;
  Printf.printf "# wall %.3f s from process start\n" (ms (now_ns () - t_start) /. 1e3);
  mkdir_p out;
  let base =
    Filename.concat out
      (Printf.sprintf "%s-seed%d-trace%d" workload cfg.seed (if cfg.trace then 1 else 0))
  in
  let with_samples (name, v) =
    ( name,
      J.Obj
        [
          ("value", J.Float v.v);
          ("unit", J.String (spec_of name).Spec.unit_);
          ("samples", J.Int v.samples);
        ] )
  in
  write_file (base ^ ".result.json")
    (J.to_string
       (J.Obj
          [
            ("fingerprint", fp);
            ("attempted", J.Int r.attempted);
            ("failed", J.Int r.failed);
            ("failed_frac", J.Float failed_frac);
            ("end_to_end", J.Obj (List.map with_samples e2e));
            ("per_layer", J.Obj (if cfg.trace then List.map with_samples layers else []));
            ("notes", J.List (List.map (fun s -> J.String s) r.notes));
          ])
    ^ "\n");
  if cfg.trace then begin
    Spans.write_chrome r.tracer (base ^ ".spans.json");
    let oc = open_out (base ^ ".layers.txt") in
    Spans.pp_table oc r.tracer;
    close_out oc;
    Printf.printf "# spans: %s.spans.json, self-time table: %s.layers.txt\n" base base
  end;
  let shown = if cfg.trace then layers else e2e in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (r.failed = 0));
            ("attempted", J.Int r.attempted);
            ("failed", J.Int r.failed);
            ("metrics", J.Obj (List.map metric_json shown));
          ]))

let usage () =
  prerr_endline
    "usage: bench.exe run --workload {frontier|census|campaign} --seed N \
     --seconds S --trace {0|1} [--out DIR] [--commit ID]\n\
    \       bench.exe check";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "check" :: _ -> exit (if Checks.run () then 0 else 1)
  | _ :: "run" :: args ->
      let rec opts acc = function
        | k :: v :: rest when String.starts_with ~prefix:"--" k ->
            opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let o = opts [] args in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let cfg =
        {
          seed = int_of_string (get "seed");
          seconds = float_of_string (get "seconds");
          trace = get "trace" = "1";
          jobs = max 1 (min 2 (Domain.recommended_domain_count ()));
        }
      in
      run ~workload:(get "workload") ~cfg
        ~out:(Option.value ~default:".bench_out" (List.assoc_opt "out" o))
        ~commit:(Option.value ~default:"unknown" (List.assoc_opt "commit" o))
  | _ -> usage ()

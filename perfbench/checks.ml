(* The benchmark's own tests, run by [bench.exe check] (run.py --check):
   metric names and units are well formed and match BENCHMARK.json, the
   same seed gives the same inputs, every checker rejects a corrupted
   answer, and campaign records agree at jobs=1 and jobs=2 except for
   wall_ns. *)

module J = Qe_obs.Jsonl
module Oracle = Qe_elect.Oracle
module Classes = Qe_symmetry.Classes
open Common

let failures = ref 0

let expect what ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let names_and_units () =
  let all = Spec.end_to_end @ Spec.per_layer in
  List.iter
    (fun (m : Spec.metric) ->
      expect
        (Printf.sprintf "metric %s [%s] is well formed" m.Spec.name m.Spec.unit_)
        (Spec.valid_name m.Spec.name && Spec.valid_unit m.Spec.unit_))
    all;
  let names = List.map (fun (m : Spec.metric) -> m.Spec.name) all in
  expect "metric names are unique"
    (List.length (List.sort_uniq compare names) = List.length names)

(* BENCHMARK.json (at the repo root, the working directory of a run)
   must list exactly the metrics the program reports. *)
let benchmark_json () =
  let path = "BENCHMARK.json" in
  if not (Sys.file_exists path) then expect "BENCHMARK.json is present" false
  else
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match J.of_string text with
    | Error e -> expect ("BENCHMARK.json parses: " ^ e) false
    | Ok doc ->
        let listed key =
          match J.member key doc with
          | Some (J.List l) ->
              List.filter_map
                (fun m ->
                  match (J.member "name" m, J.member "unit" m, J.member "better" m) with
                  | Some (J.String n), Some (J.String u), Some (J.String b) ->
                      Some (n, u, b)
                  | _ -> None)
                l
          | _ -> []
        in
        let ours l =
          List.map
            (fun (m : Spec.metric) ->
              (m.Spec.name, m.Spec.unit_, Spec.better_string m.Spec.better))
            l
        in
        expect "BENCHMARK.json end_to_end = Spec.end_to_end"
          (listed "end_to_end" = ours Spec.end_to_end);
        expect "BENCHMARK.json per_layer = Spec.per_layer"
          (listed "per_layer" = ours Spec.per_layer)

let determinism () =
  let census seed = List.map Census_wl.describe (Census_wl.instances ~seed ~rounds:3) in
  expect "census: same seed, same instance list" (census 7 = census 7);
  expect "census: another seed, other placements" (census 7 <> census 8);
  let zoo = Qe_elect.Campaign.zoo () in
  let matrix seed = Campaign_wl.matrix ~seed ~n:3 zoo in
  expect "campaign: same seed, same matrix" (matrix 7 = matrix 7);
  expect "campaign: another seed, another matrix" (matrix 7 <> matrix 8);
  let b1 = Census_wl.bicolored (List.hd (Census_wl.round ~seed:3 0)) in
  let b2 = Census_wl.bicolored (List.hd (Census_wl.round ~seed:3 0)) in
  expect "census: an instance rebuilds to the same key"
    (Cache.exact_key b1 = Cache.exact_key b2)

let frontier_checker () =
  let good =
    { Frontier_wl.n = 12; prediction = Oracle.Unsolvable; num_classes = 1; gcd = 12 }
  in
  expect "frontier: the right answer passes" (Frontier_wl.correct good);
  List.iter
    (fun (what, bad) ->
      expect ("frontier: rejects " ^ what) (not (Frontier_wl.correct bad)))
    [
      ("a solvable verdict", { good with prediction = Oracle.Solvable });
      ("a frontier verdict", { good with prediction = Oracle.Frontier });
      ("two classes", { good with num_classes = 2 });
      ("gcd <> n", { good with gcd = 6 });
    ];
  (* and on a real (small) instance through the real calls *)
  let b = Frontier_wl.uniform (Frontier_wl.generate "torus:6x8").Qe_group.Presentation.graph in
  let cls = Classes.compute b in
  expect "frontier: torus:6x8 answers right"
    (Frontier_wl.correct
       {
         n = 48;
         prediction = Oracle.predict b;
         num_classes = Classes.num_classes cls;
         gcd = Oracle.gcd_classes b;
       })

let census_checker () =
  let inst =
    List.find
      (fun i -> i.Census_wl.entry.Census_wl.label = "petersen")
      (Census_wl.round ~seed:1 0)
  in
  let inst = { inst with Census_wl.black = [ 0; 1 ] } in
  Cache.clear ();
  let b = Census_wl.bicolored inst in
  let cls = Classes.compute b in
  let good =
    {
      Census_wl.n = 10;
      sizes = Classes.sizes cls;
      gcd = Oracle.gcd_classes b;
      elects = Oracle.elect_prediction b = `Elects;
      prediction = Oracle.predict b;
    }
  in
  expect "census: petersen with adjacent agents answers right"
    (Census_wl.correct good && good.gcd = 2 && good.prediction = Oracle.Frontier);
  expect "census: its renumbering agrees" (Census_wl.check_renumbered inst good);
  List.iter
    (fun (what, bad) -> expect ("census: rejects " ^ what) (not (Census_wl.correct bad)))
    [
      ("sizes that do not sum to n", { good with sizes = 3 :: good.sizes });
      ("a wrong gcd", { good with gcd = 1 });
      ("a verdict off the gcd", { good with elects = true });
      ("a solvable prediction at gcd 2", { good with prediction = Oracle.Solvable });
    ];
  let r =
    { Census_wl.same_fingerprint = true; sizes' = good.sizes; prediction' = good.prediction }
  in
  expect "census: a matching renumbering passes" (Census_wl.renumbering_agrees good r);
  List.iter
    (fun (what, bad) ->
      expect ("census: rejects a renumbering with " ^ what)
        (not (Census_wl.renumbering_agrees good bad)))
    [
      ("another fingerprint", { r with same_fingerprint = false });
      ("other class sizes", { r with sizes' = [ 1; 9 ] });
      ("another prediction", { r with prediction' = Oracle.Unsolvable });
    ]

let campaign_checks () =
  let zoo = Qe_elect.Campaign.zoo () in
  let seeds = Campaign_wl.seeds ~seed:5 ~n:2 0 in
  let tasks = List.length zoo * List.length Qe_elect.Campaign.strategies * List.length seeds in
  let rows1, summary1 = Campaign_wl.sweep ~jobs:1 seeds zoo in
  let rows2, summary2 = Campaign_wl.sweep ~jobs:2 seeds zoo in
  expect "campaign: jobs=1 sweep passes" (Campaign_wl.sweep_failures ~tasks rows1 summary1 = 0);
  expect "campaign: jobs=2 sweep passes" (Campaign_wl.sweep_failures ~tasks rows2 summary2 = 0);
  expect "campaign: jobs=1 and jobs=2 records agree except wall_ns"
    (Campaign_wl.strip_wall rows1 = Campaign_wl.strip_wall rows2);
  let flip (r : Qe_elect.Campaign.sweep_row) = { r with Qe_elect.Campaign.s_conforms = false } in
  List.iter
    (fun (what, rows, summary) ->
      expect ("campaign: rejects " ^ what)
        (Campaign_wl.sweep_failures ~tasks rows summary > 0))
    [
      ("a missing row", List.tl rows1, summary1);
      ("a non-conforming row", flip (List.hd rows1) :: List.tl rows1, summary1);
      ( "a quarantined task",
        List.tl rows1,
        { summary1 with Qe_elect.Campaign.h_quarantined = [ (0, "x") ] } );
      ("a wrong matrix size", rows1, { summary1 with Qe_elect.Campaign.h_tasks = tasks + 1 });
    ]

let run () =
  names_and_units ();
  benchmark_json ();
  determinism ();
  frontier_checker ();
  census_checker ();
  campaign_checks ();
  Printf.printf "%s: %d failure(s)\n" (if !failures = 0 then "check OK" else "check FAILED")
    !failures;
  !failures = 0

type raw = {
  labeling : int array;
  orbits : int array;
  generators : int array array;
  leaves : int;
  nodes : int;
  prune_orbit : int;
  prune_invariant : int;
  budget_exceeded : bool;
  fixpoints : int;
  splitters : int;
  queue_hwm : int;
  cells : int array;
}

external run_stub :
  int array ->
  int array ->
  int array ->
  int array ->
  int ->
  int array * int array * int array array * int array * int array
  = "qe_canon_c_run"

let run ~colors ~asrc ~adst ~acol ~max_leaves =
  let labeling, orbits, generators, stats, cells =
    run_stub colors asrc adst acol max_leaves
  in
  {
    labeling;
    orbits;
    generators;
    leaves = stats.(0);
    nodes = stats.(1);
    prune_orbit = stats.(2);
    prune_invariant = stats.(3);
    budget_exceeded = stats.(4) <> 0;
    fixpoints = stats.(5);
    splitters = stats.(6);
    queue_hwm = stats.(7);
    cells;
  }

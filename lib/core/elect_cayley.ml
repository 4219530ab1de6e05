module Protocol = Qe_runtime.Protocol
module Cayley_detect = Qe_symmetry.Cayley_detect
module Cache = Qe_symmetry.Artifact_cache

(* Both per-run map analyses are pure functions of the drawn map, so
   both are slots of the map instance's cache entry: recognition
   (which dominates the cost of an elect-cayley run) here, the
   translation verdict through {!Oracle.translation_impossible}. *)
let recognize_slot : Cayley_detect.outcome Cache.slot =
  Cache.slot ~kind:"cayley.recognize"

let main (ctx : Protocol.ctx) =
  let map = Mapping.explore ctx in
  let b = Mapping.bicolored map in
  match
    Cache.get recognize_slot b (fun () ->
        Cayley_detect.recognize (Qe_graph.Bicolored.graph b))
  with
  | Cayley_detect.Cayley _ ->
      if Oracle.translation_impossible b then
        (* Theorem 4.1: a placement-preserving translation exists, so an
           adversarial labeling with non-trivial label-equivalence classes
           exists, and election is impossible. Every agent reaches this
           same conclusion from its own map — no coordination needed. *)
        Protocol.Election_failed
      else Elect.run_on_map Elect.generic_plan ctx map
  | Cayley_detect.Not_cayley ->
      (* outside the theorem's class: behave as generic ELECT *)
      Elect.run_on_map Elect.generic_plan ctx map
  | Cayley_detect.Unknown msg ->
      Protocol.Aborted ("cayley recognition exceeded budget: " ^ msg)

let protocol =
  { Protocol.name = "elect-cayley"; quantitative = false; main }

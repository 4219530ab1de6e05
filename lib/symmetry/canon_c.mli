(** Low-level binding to the C canonical-labeling kernel
    ([canon_stubs.c]) — a faithful port of the OCaml refine+search
    kernel with a bliss-shaped interface (flat colored digraph in,
    canonical labeling + automorphism generators out).

    This module is deliberately dumb: flat arrays in, flat arrays out,
    no [Cdigraph], no telemetry. {!Canon.run_c} owns marshalling,
    certificate reconstruction and metric flushing, so this binding
    could be swapped for a real bliss without touching anything else.

    The runtime lock is released for the duration of the search (inputs
    are copied to C memory first), so a long canonical search on one
    domain never blocks the other domains' GC. *)

type raw = {
  labeling : int array;
      (** node [u]'s position in the canonical numbering (valid only
          when [budget_exceeded] is false) *)
  orbits : int array;  (** smallest node of [u]'s automorphism orbit *)
  generators : int array array;  (** in discovery order, oldest first *)
  leaves : int;
  nodes : int;
  prune_orbit : int;
  prune_invariant : int;
  budget_exceeded : bool;
      (** the search visited more than [max_leaves] leaves and stopped;
          mirror of {!Canon.Budget_exceeded} *)
  fixpoints : int;  (** refinement runs (root + one per explored child) *)
  splitters : int;  (** worklist pops, summed over all refinements *)
  queue_hwm : int;  (** worklist high-water mark over the whole run *)
  cells : int array;
      (** final cell count of each refinement run, in run order — the
          observations behind the [refine.cells] histogram *)
}

val run :
  colors:int array ->
  asrc:int array ->
  adst:int array ->
  acol:int array ->
  max_leaves:int ->
  raw
(** [colors] has one node color per node; [asrc]/[adst]/[acol] are the
    arc list (equal lengths, endpoints in range — the caller
    guarantees it, as {!Cdigraph} already validated; values in the
    range {!Canon.run_c} checks). *)

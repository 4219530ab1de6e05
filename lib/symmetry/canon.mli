(** Canonical labeling of colored digraphs, by individualization–refinement
    with automorphism and node-invariant pruning (a small nauty).

    Lemma 3.1 of the paper orders bi-colored digraphs by the minimum
    adjacency-matrix word over all [n!] numberings. That brute-force order
    is only feasible for tiny graphs; this module computes an equivalent
    isomorphism-invariant certificate (deterministic, equal exactly on
    isomorphic digraphs), so its lexicographic order is a valid instance of
    the total order [≺] the protocol needs. The brute-force reference lives
    in {!Brute} and the two are cross-checked in tests.

    The kernel exists twice: {!run_c}, a C port that is the production
    kernel ({!run}), and {!run_ocaml}, the pure-OCaml reference it is
    checked against. They use the same orderings everywhere
    ([canon_stubs.c], bound through {!Canon_c}) and must agree
    bit-for-bit on certificate, labeling, generators, orbits and search
    statistics, which [qelect selftest] and the test suite enforce.

    Internally the search compares leaves as packed int arrays
    (stringified once at the API boundary) and cuts subtrees whose
    per-level cell-size invariant already exceeds the best path's — see
    DESIGN.md §7 for why both pruning rules preserve canonicity. *)

exception Budget_exceeded
(** Raised when the search visits more leaves than allowed. *)

type result = {
  certificate : string;
      (** Canonical certificate: equal iff digraphs are isomorphic. *)
  canonical_labeling : int array;
      (** [canonical_labeling.(u)] is node [u]'s position in the canonical
          numbering. *)
  generators : int array list;
      (** Automorphisms discovered during the search; they generate the
          full automorphism group. *)
  orbits : int array;
      (** [orbits.(u)] is the smallest node in [u]'s automorphism orbit. *)
  leaves_visited : int;
}

val run : ?max_leaves:int -> Cdigraph.t -> result
(** Full search with the production kernel, {!run_c}. [max_leaves]
    defaults to 200_000.

    Telemetry: when an ambient sink is installed
    ({!Qe_obs.Sink.with_ambient}), each call records counters
    [canon.runs], [canon.nodes] (search-tree nodes), [canon.leaves],
    [canon.prune.orbit] and [canon.prune.invariant] (subtrees cut by
    each pruning rule), [canon.generators], histogram
    [canon.leaves_per_run] and latency [canon.run_latency]. The C
    kernel tallies the same quantities inside the stub (including the
    [refine.*] counters the OCaml path records from {!Refine}), so
    non-latency snapshots are kernel-independent. The tallies are
    flushed even when the search dies with {!Budget_exceeded}, so
    aborted searches are visible too.
    @raise Budget_exceeded if the tree is bigger than the budget.
    @raise Invalid_argument as {!run_c}. *)

val run_ocaml : ?max_leaves:int -> Cdigraph.t -> result
(** The pure-OCaml reference kernel: the same results and telemetry as
    {!run_c}, without its range limits. Tests, [qelect selftest] and
    the kernel benchmark compare {!run_c} against it. *)

val run_c : ?max_leaves:int -> Cdigraph.t -> result
(** The C kernel ({!Canon_c}). The certificate string is rebuilt on the
    OCaml side by replaying the leaf packing on the returned labeling.
    @raise Invalid_argument if a node or arc color exceeds [2^31 - 1],
    [n + m] does too, or [n^2 * kcol] (kcol = largest arc color + 1)
    exceeds [max_int] — values the kernel cannot represent exactly. *)

val certificate : ?max_leaves:int -> Cdigraph.t -> string
val canonical_form : ?max_leaves:int -> Cdigraph.t -> Cdigraph.t
(** The digraph relabeled canonically; isomorphic digraphs yield equal
    ([Cdigraph.equal]) forms. *)

val isomorphic : ?max_leaves:int -> Cdigraph.t -> Cdigraph.t -> bool
(** Isomorphism test via certificates (node and arc color values must be
    drawn from the same intended palettes on both sides). *)

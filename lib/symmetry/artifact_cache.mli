(** One cache entry per instance for the symmetry artifacts.

    Every sweep record used to recompute the whole symmetry stack —
    {!Classes.compute}, the oracle verdicts — per (instance, strategy,
    seed), even though all of it is a pure function of the bicolored
    instance. This module is a process-wide, domain-safe cache mapping
    each instance to {e one} entry. The entry holds one lazily filled
    cell per artifact kind, a {!slot}: the equivalence classes
    ([classes]), the canonical fingerprint ([certificate]), and the
    slots its clients register at module initialisation
    ([oracle.predict], [oracle.translation], [cayley.recognize]). Values
    derived cheaply from a cell (the class gcd, the ELECT plan) are not
    cached on their own.

    {b Two levels.} The key is looked up first in a per-domain,
    lock-free hashtable in domain-local storage ({b L1}); on an L1 miss,
    in one of 32 [Mutex]-protected shards ({b L2}), where a missing entry
    is simply added, and the entry is copied into the caller's L1 on the
    way out. Every accessor does exactly one keyed lookup plus one cell
    read. {e Single-flight} lives in the cell: the first reader of an
    empty cell computes it, and concurrent readers of that cell block
    until it is settled.

    {b Keys.} An entry is keyed by the instance itself: the key holds
    the {!Qe_graph.Bicolored.t} by reference plus an order-independent
    O(n + m) digest of (n, black mask, multiset of darts [u -> dst])
    read straight off the CSR arrays.
    The digest is derived at most once per value and parked on it
    ({!Qe_graph.Bicolored.key_digest}); it only picks the bucket. Every
    L1/L2 hit then runs an exact, allocation-free equality check —
    physical equality, else identical [off]/[dst] slices and black mask,
    else (port orders differ) a per-node multiset comparison — so a
    digest collision can never return a wrong artifact. Two keys are
    equal exactly when their {!exact_key} certificates are: same n, same
    node colors, same arc multiset ({e numbering-sensitive} on purpose,
    which keeps every numbering-dependent byproduct — [canon.*] /
    [refine.*] counters, class node ids — bit-identical to the uncached
    computation). They do {e not} capture all cross-seed redundancy: the
    engine seeds each agent's port presentation order from the run seed
    ([Engine.presentation_order]), so entries keyed by what an agent
    sees (its drawn map) miss once per new seed and stay resident until
    {!clear}. A key keeps its instance alive until {!clear}.

    {b Metric transparency.} A miss runs the computation under a private
    scratch sink and stores the resulting kernel-metric delta in the
    cell; every read — hit or miss — replays that delta into the
    caller's ambient sink via {!Qe_obs.Metrics.apply}. Cached and
    uncached sweeps therefore produce identical metric snapshots, modulo
    the cache's own [cache.hit.<kind>] / [cache.l1.hit.<kind>] /
    [cache.miss.<kind>] / [cache.single_flight_wait] counters (stripped
    from stored deltas so replays never inject stale cache counters).
    Exceptions (e.g. {!Canon.Budget_exceeded}) are deterministic for a
    given key, so they are cached and re-raised like values. *)

(** {1 Global switch} *)

val set_enabled : bool -> unit
(** Disable ([false]) or re-enable the cache process-wide. While
    disabled, {!get} calls the computation directly — no scratch sink,
    no counters: exactly the pre-cache behavior. Backs
    [qelect sweep|chaos --no-cache]. *)

val enabled : unit -> bool

val clear : unit -> unit
(** Drop every entry (stats are kept; see {!reset_stats}). The calling
    domain's L1 is emptied at once, so no instance stays reachable from
    it; other domains' L1s are invalidated lazily — a global generation
    is bumped and each flushes its table on its next lookup. A
    computation racing [clear] still returns to the readers that reached
    its cell before the clear, but its value is never served after it.
    Safe to call concurrently with lookups. *)

(** {1 Slots} *)

type 'a slot
(** One artifact kind: a typed cell of every entry. [kind] names the
    telemetry counters ([cache.hit.<kind>], [cache.miss.<kind>]) and the
    {!stats} row. *)

val slot : kind:string -> 'a slot
(** Register a slot; do it once, at module toplevel.
    @raise Invalid_argument if [kind] is already taken, or once the
    cache has been used (any {!get} or {!clear}: entries are sized by
    the slot list). *)

val get : 'a slot -> Qe_graph.Bicolored.t -> (unit -> 'a) -> 'a
(** [get s b f] returns [s]'s cell of the entry for [b] (see {b Keys}),
    computing it with [f] (single-flight across domains) on first use —
    including a raised exception, which is re-raised on every later
    read. Hit latencies include deriving the key. Do not read a cell
    from its own [f] (it would wait on itself); reading other slots of
    the same entry is fine and is how [oracle.predict] layers on the
    others. *)

(** {1 Statistics} *)

type stat = {
  kind : string;
  hits : int;
      (** total over both levels (includes single-flight waiters);
          [hits - l1_hits] is the shared-shard (L2) hit count *)
  l1_hits : int;
      (** subset of [hits] whose entry came from a per-domain L1,
          pooled across every domain that ever looked anything up *)
  misses : int;
  single_flight_waits : int;
  l1_latency : Qe_obs.Metrics.sample;
      (** hit-latency histogram ({!Qe_obs.Metrics.Hist} over
          {!Qe_obs.Metrics.latency_buckets}) of this slot's L1 hits,
          pooled across domains — feed it {!Qe_obs.Metrics.quantile} *)
  l2_latency : Qe_obs.Metrics.sample;
      (** same for L2 hits; a waiter's latency includes its
          single-flight wait *)
}

val stats : unit -> stat list
(** One row per slot, sorted by [kind]; each {!get} counts once on its
    slot's row. Process-global counts since the last {!reset_stats} —
    unlike the [cache.*] sink counters, these are tallied even when no
    ambient sink is installed (a hit is one sample in a per-domain
    latency histogram, so the lock-free L1 path stays free of shared
    writes). *)

val reset_stats : unit -> unit

val metrics_snapshot : unit -> Qe_obs.Metrics.snapshot
(** The process-global cache counters and hit-latency histograms as a
    sorted snapshot ([cache.hit.<kind>], [cache.l1.hit.<kind>],
    [cache.miss.<kind>], [cache.<kind>.l1.hit_latency],
    [cache.<kind>.l2.hit_latency], [cache.single_flight_wait]) — a
    ready-made source for {!Qe_obs.Expose}. *)

val hit_rate : stat list -> float
(** Pooled [hits / (hits + misses)] over the rows; [0.] when idle. *)

(** {1 Keys and cached artifacts} *)

val exact_key : Qe_graph.Bicolored.t -> string
(** The identity certificate of the instance's bicolored digraph: equal
    iff same graph numbering and same placement. No search, but it builds
    a {!Cdigraph}, sorts every arc and writes a string several bytes per
    arc — the reference semantics of instance keys, not a key itself. *)

val key_derivations : unit -> int
(** Process-global count of instance digests derived so far (each
    {!Qe_graph.Bicolored.t} value is digested at most once). *)

val fingerprint : Qe_graph.Bicolored.t -> string
(** Canonical instance fingerprint: the {!Canon} certificate of the
    bicolored digraph joined with the black-node orbit signature (sorted
    sizes of the orbits containing home-bases). Equal exactly on
    isomorphic instances. Cached (slot ["certificate"]). *)

val fingerprint_uncached : Qe_graph.Bicolored.t -> string
(** The same computation with no caching at all — the differential
    harness uses it so a cache hit can never mask a kernel
    divergence. *)

val classes : Qe_graph.Bicolored.t -> Classes.t
(** Cached {!Classes.compute} (slot ["classes"], default leaf budget). *)

(** {1 Test support} *)

module For_testing : sig
  val with_digest : int -> Qe_graph.Bicolored.t -> Qe_graph.Bicolored.t
  (** [with_digest d b] is a fresh copy of [b] whose key digest is forced
      to [d]. Copies of two different instances then land on the same
      bucket, which lets a test check that the exact comparison keeps
      their artifacts apart. *)
end

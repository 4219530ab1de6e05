(** Experiment driver: the standard instance suite and batch runners used
    by the benches, the CLI and the integration tests.

    Every runner below is one path, task matrix → executor → sinks: the
    matrix is built once per mode in canonical order (sweep: instance →
    strategy → seed; chaos: seed → instance → strategy → plan), a single
    private executor runs it on {!Qe_par.Pool} — plain, or with each
    task wrapped by {!Qe_par.Supervisor} — and feeds the results to the
    [live] callback, the metric snapshots, the chaos trace and the
    checkpoint journal. *)

type instance = {
  name : string;
  family : string;  (** "cycle", "hypercube", ... *)
  cayley : bool;  (** is the topology a Cayley graph (ground truth) *)
  graph : Qe_graph.Graph.t;
  black : int list;
}

val instance :
  name:string -> family:string -> cayley:bool -> Qe_graph.Graph.t ->
  black:int list -> instance

val bicolored : instance -> Qe_graph.Bicolored.t

val zoo : unit -> instance list
(** The standard suite: rings, paths, trees, stars, wheels, complete
    graphs, hypercubes, tori, circulants, Petersen, random graphs — with
    symmetric and symmetry-breaking placements. All small enough for the
    exact oracles. *)

val cayley_zoo : unit -> instance list
(** The Cayley-only sweep used by the Theorem 4.1 experiment. *)

type record = {
  inst : instance;
  protocol_name : string;
  strategy_name : string;
  seed : int;
  outcome : Qe_runtime.Engine.outcome;
  elected : bool;
  expected_elected : bool;
  conforms : bool;
  gcd : int;
  prediction : Oracle.prediction;
  agents : int;
  nodes : int;
  edges : int;
  moves : int;
  accesses : int;
  turns : int;
  wall_ns : int;  (** monotonic wall time of the run *)
}

val strategies : (string * Qe_runtime.Engine.strategy) list
(** The scheduler matrix: round-robin, random, lifo, fifo-mailbox,
    synchronous. *)

val run_one :
  ?strategy:string * Qe_runtime.Engine.strategy ->
  ?obs:Qe_obs.Sink.t ->
  ?seed:int ->
  expected_elected:bool ->
  instance ->
  Qe_runtime.Protocol.t ->
  record
(** One execution; [expected_elected] is the theory's prediction for this
    protocol on this instance. [obs] is forwarded to
    {!Qe_runtime.Engine.run}. *)

val elect_expected : instance -> bool
(** Theorem 3.1: ELECT elects iff the class gcd is 1. *)

val sweep :
  ?seeds:int list ->
  ?strategies:(string * Qe_runtime.Engine.strategy) list ->
  ?jobs:int ->
  ?live:(Qe_obs.Metrics.snapshot -> unit) ->
  expected:(instance -> bool) ->
  Qe_runtime.Protocol.t ->
  instance list ->
  record list
(** Full matrix: instances x strategies x seeds.

    [live] is the scrape hook: when given, every run executes under a
    private fully-observed sink (engine [?obs] + ambient) and [live] is
    called with the run's snapshot — {e including} wall-clock
    [*_latency] histograms — as soon as it completes. It is called from
    pool domains, concurrently: the callback must be domain-safe
    (e.g. fold into an accumulator under a mutex, as
    [qelect --metrics-port] does). Records are unchanged by
    observation, so the determinism contract below is unaffected.

    [jobs] (default 1) runs the matrix on a {!Qe_par.Pool} of that many
    domains; [jobs:0] resolves to {!Qe_par.Pool.default_jobs} (the CLI's
    [-j 0], see {!Qe_par.Pool.resolve_jobs}). The record list is {e bit-identical} at any [jobs]: tasks
    are laid out in canonical sweep order, every run derives its RNG
    from its own seed (never from scheduling), and results are collected
    by task index. [jobs:1] bypasses the pool entirely. Instance sizes
    (nodes + edges) are passed to the pool as scheduling weights, so a
    heavyweight instance gets a queue to itself.

    When the {!Qe_symmetry.Artifact_cache} is enabled (the default),
    every sweep first prewarms the per-instance oracle artifacts once,
    so the per-(strategy, seed) runs hit the cache instead of
    recomputing the symmetry stack — observably transparent: records
    and metric snapshots are identical with the cache disabled, modulo
    the [cache.*] counters. *)

type obs_report = {
  per_instance : (string * Qe_obs.Metrics.snapshot) list;
      (** one snapshot per instance (all strategies and seeds pooled), in
          sweep order *)
  total : Qe_obs.Metrics.snapshot;
      (** {!Qe_obs.Metrics.merge} of the per-instance snapshots: counters
          and histograms summed, gauges maxed *)
}

val observed_sweep :
  ?seeds:int list ->
  ?strategies:(string * Qe_runtime.Engine.strategy) list ->
  ?jobs:int ->
  ?live:(Qe_obs.Metrics.snapshot -> unit) ->
  expected:(instance -> bool) ->
  Qe_runtime.Protocol.t ->
  instance list ->
  record list * obs_report
(** {!sweep} with telemetry: each instance's runs share a fresh
    {!Qe_obs.Sink.t}, installed both as [Engine.run ~obs] and as the
    (domain-local) ambient sink, so engine counters {e and} any
    [refine.*]/[canon.*] kernel work triggered by the runs are captured
    together.

    [jobs] parallelizes at {e instance} granularity — the sink-sharing
    unit — so records, per-instance snapshots and the merged total are
    bit-identical at any [jobs] ([jobs:0] = auto, as in {!sweep}).
    Wall-clock [*_latency] histograms are recorded into the sinks but
    {e stripped} from [per_instance] and [total] (they could never be
    bit-identical); [live] (domain-safe callback, as in {!sweep})
    receives each instance's {e unstripped} snapshot on completion. *)

val conformance_rate : record list -> int * int
(** (conforming runs, total runs). *)

val csv_header : string
(** The sweep CSV header used by [qelect sweep]; [wall_ns] is the last
    column. Golden-tested — treat the column order as a public schema. *)

val csv_row : record -> string
(** One CSV line per {!record}, matching {!csv_header}'s column order. *)

(** {1 Chaos campaigns}

    Fault-plan sweeps over the instance suite, asserting the safety
    invariants that must survive the adversary:

    - {b never two certified leaders} — the engine never reports
      [Elected] unless exactly one agent returned [Leader], and never
      [Declared_unsolvable] with any [Leader] verdict. Faults {e can}
      drive the protocol itself into divergent verdicts (an amnesiac
      crash-restart can mint a duplicate node identity and corrupt the
      maps) — the engine's obligation is to surface such runs as
      [Inconsistent], never to certify them as a success;
    - {b zero-fault transparency} — a run in which no fault actually
      fired must conform to the oracle exactly like a plain run;
    - {b crash termination} — crash-only plans on solvable Cayley
      instances must still terminate (crash-restart is amnesia, not
      death: the fault budget guarantees a fault-free suffix). *)

type chaos_violation =
  | Two_leaders_certified of {
      outcome : Qe_runtime.Engine.outcome;
      verdicts : (Qe_color.Color.t * Qe_runtime.Protocol.verdict) list;
    }
      (** safety: the engine certified a success outcome ([Elected] /
          [Declared_unsolvable]) that contradicts the verdict set —
          e.g. claimed an election while two agents returned [Leader].
          Fault-induced divergence must always surface as
          [Inconsistent], never be silently accepted. *)
  | Zero_fault_divergence of Qe_runtime.Engine.outcome
      (** a run in which no fault fired must conform to the oracle *)
  | Crash_run_stuck of Qe_runtime.Engine.outcome
      (** a crash-only run on a solvable Cayley instance must terminate *)

val pp_chaos_violation : Format.formatter -> chaos_violation -> unit

type chaos_record = {
  c_inst : instance;
  c_strategy : string;
  c_plan_kind : string;  (** "chaos" or "crash-only" *)
  c_plan : Qe_fault.Plan.t;
  c_outcome : Qe_runtime.Engine.outcome;
  c_faults : (Qe_fault.Kind.t * int) list;
  c_leaders : int;  (** number of [Leader] verdicts *)
  c_violations : chaos_violation list;  (** [[]] = this run is clean *)
  c_turns : int;
}

type chaos_report = {
  c_records : chaos_record list;
  c_runs : int;
  c_faults_fired : int;
  c_by_kind : (Qe_fault.Kind.t * int) list;
  c_outcomes : (string * int) list;
      (** outcome label -> run count, most frequent first *)
  c_zero_fault_runs : int;
  c_violating : chaos_record list;  (** records with violations *)
  c_metrics : Qe_obs.Metrics.snapshot;
      (** merged engine/fault metrics over every run of the sweep, in
          canonical order ([[]] when no [obs] sink was attached). The
          [fault.injected.*] counters here must equal the sums of the
          records' [c_faults] — the stress tests enforce it. *)
  c_jobs : int;
      (** the job count the sweep actually ran with ([jobs:0]
          resolved) — scaling numbers are meaningless without it *)
  c_cores : int;  (** [Domain.recommended_domain_count ()] at run time *)
}

val outcome_label : Qe_runtime.Engine.outcome -> string
(** Short stable label ("elected", "deadlock", "timeout-livelock", ...)
    for summary tables. *)

val default_chaos_watchdog : Qe_fault.Watchdog.t
(** turn budget 500k, livelock window 120k — generous for the zoo, tight
    enough to kill a wedged run. *)

val chaos_sweep :
  ?seeds:int ->
  ?strategies:(string * Qe_runtime.Engine.strategy) list ->
  ?watchdog:Qe_fault.Watchdog.t ->
  ?obs:Qe_obs.Sink.t ->
  ?jobs:int ->
  ?live:(Qe_obs.Metrics.snapshot -> unit) ->
  expected:(instance -> bool) ->
  Qe_runtime.Protocol.t ->
  instance list ->
  chaos_report
(** The chaos matrix: for each seed in [0..seeds-1] (default 8), each
    instance, each strategy, run both {!Qe_fault.Plan.chaos} and
    {!Qe_fault.Plan.crash_only} with that seed under [watchdog], and
    check every safety invariant on every run.

    [jobs] parallelizes at run granularity ([jobs:0] = auto, as in
    {!sweep}; the resolved value is reported as [c_jobs]). Records,
    aggregates and
    [c_metrics] are bit-identical at any [jobs] (fault decisions come
    from the plan's private seeded streams; the stock watchdogs are
    turn-based, so outcomes don't depend on wall time) — wall-clock
    [*_latency] histograms are therefore stripped from [c_metrics],
    though they stay in the trace's metric lines and in what [live]
    sees. The trace has one shape at every [jobs]: each run writes to a
    private sink, its lines are replayed to [obs] in canonical run
    order minus the per-run snapshots, then the batch's [pool.batch]
    per-domain span lanes (when [obs] is streaming and the batch ran on
    domains), then one merged (unstripped) snapshot. [live] (domain-safe callback, as in {!sweep}) receives
    each run's private sink reading. A [Timeout] in one task is an
    ordinary outcome and never disturbs the other domains. *)

(** {1 Hardened campaigns}

    The self-healing variants behind [qelect sweep/chaos
    --checkpoint/--resume]: the same task matrix and executor as
    {!sweep} / {!chaos_sweep}, with each task wrapped by
    {!Qe_par.Supervisor} (per-task outcomes, deadline/retry/backoff,
    quarantine, worker replacement) on the same work-stealing pool.
    Every completed task is journaled to a crash-safe {!Checkpoint},
    and a resumed run replays the journal and executes only the missing
    indices. Because each task is deterministic per index, the final
    output is identical whether the sweep ran once or was [kill -9]ed
    and resumed arbitrarily often, at any job count (modulo [wall_ns],
    which is wall clock by definition). *)

type sweep_row = {
  s_idx : int;  (** position in the canonical task matrix *)
  s_csv : string;  (** {!csv_row} of the record *)
  s_conforms : bool;
  s_replayed : bool;  (** [true]: restored from the checkpoint *)
}

type hardened_summary = {
  h_tasks : int;  (** matrix size *)
  h_replayed : int;  (** tasks skipped thanks to the checkpoint *)
  h_ran : int;  (** tasks executed (and settled) this run *)
  h_quarantined : (int * string) list;
      (** tasks that exhausted their attempts: (index, "inst/strat/seed"
          label). Quarantined tasks yield no row and are never
          journaled, so a later [--resume] retries them. *)
  h_retries : int;
  h_timeouts : int;
  h_replaced : int;  (** worker domains written off and replaced *)
  h_degraded : bool;  (** the batch fell back to inline execution *)
}

val sweep_hardened :
  ?seeds:int list ->
  ?strategies:(string * Qe_runtime.Engine.strategy) list ->
  ?jobs:int ->
  ?live:(Qe_obs.Metrics.snapshot -> unit) ->
  ?supervise:Qe_par.Supervisor.policy ->
  ?harness_chaos:Qe_par.Harness_chaos.t ->
  ?checkpoint:string ->
  ?resume:bool ->
  expected:(instance -> bool) ->
  Qe_runtime.Protocol.t ->
  instance list ->
  sweep_row list * hardened_summary
(** {!sweep} under supervision. Rows come back in canonical matrix
    order, replayed and fresh interleaved; a quarantined task
    contributes no row (callers should exit non-zero — see
    [qelect]'s exit code 8). [checkpoint] names the journal;
    [resume] (default false) replays it first — the journal's header
    must describe this exact matrix or the load fails loudly.
    [harness_chaos] injects faults into the {e runner} (tests and the
    resilience bench only). [supervise] defaults to
    {!Qe_par.Supervisor.policy}[ ()]: 3 attempts, no deadline. *)

val chaos_sweep_hardened :
  ?seeds:int ->
  ?strategies:(string * Qe_runtime.Engine.strategy) list ->
  ?watchdog:Qe_fault.Watchdog.t ->
  ?jobs:int ->
  ?live:(Qe_obs.Metrics.snapshot -> unit) ->
  ?supervise:Qe_par.Supervisor.policy ->
  ?harness_chaos:Qe_par.Harness_chaos.t ->
  ?checkpoint:string ->
  ?resume:bool ->
  expected:(instance -> bool) ->
  Qe_runtime.Protocol.t ->
  instance list ->
  chaos_report * hardened_summary
(** {!chaos_sweep} under supervision with a checkpoint. The report's
    aggregate fields ([c_runs], [c_by_kind], [c_outcomes], ...) are
    computed over the {e merged} view — journal replays plus fresh
    runs, in canonical order — so a resumed sweep prints the same
    summary as an uninterrupted one. [c_records] holds only the fresh
    records; runs with violations are never journaled (they re-run, and
    re-report, on resume) so [c_violating] is complete either way.
    [c_metrics] is [[]] (no trace sink on the hardened path — the CLI
    refuses [--trace-out] together with [--checkpoint]). *)

(** A fixed-size domain pool with size-aware work stealing — the one
    scheduler of the process: plain batches, supervised batches
    ({!Supervisor} wraps each task in its attempt loop and runs on
    {!run}) and deadline-watched batches ({!watched}) all claim work
    through the same LPT queues and stealing. Every batch spawns its
    own participant domains and joins them at its end, so no domain
    idles between batches.

    The pool exists for one job shape: embarrassingly parallel sweeps
    whose results must be {e bit-identical} to the sequential run. The
    contract that makes this work:

    - {b index-addressed results.} {!map} writes the result of item [i]
      into slot [i] of the output array, whatever domain computed it and
      in whatever order items were claimed. Output order is the input
      order, always.
    - {b no hidden task state.} The pool hands a task nothing but its
      index and item. Per-task isolation (a private [Random.State]
      derived from the sweep seed and the item's {e index}, a private
      {!Qe_obs.Sink.t}) is the caller's job — never derive anything
      from submission or completion order.
    - {b failure containment.} A task that raises does not poison the
      batch: remaining items still run, the pool stays usable, and
      {!map} re-raises the exception of the {e smallest failing index}
      (so even error reporting is deterministic). Structured outcomes
      such as [Engine.Timeout] are ordinary results, not exceptions —
      a watchdog firing in one domain never disturbs the others.

    {b Scheduling.} Each participant (the batch's [jobs - 1] spawned
    domains plus the caller) owns a queue of indices assigned up front by
    weighted LPT (largest weight first to the least-loaded queue; a
    round-robin deal when no [weight] is given). A participant drains
    its own queue off a private atomic cursor, then {e steals} from the
    others until every queue is empty. The assignment is a pure function
    of [(length, weights, jobs)] and results are index-addressed, so
    scheduling stays irrelevant to everything the caller observes.

    {b Telemetry.} Each batch adds [pool.tasks], [pool.batches],
    [pool.steal] (indices run by a non-owner) and [pool.idle_ns]
    (summed per-participant gap between running dry and the batch
    barrier) to the caller's ambient {!Qe_obs.Sink}, and to the
    process-wide {!totals}. Per-task wall time and per-participant idle
    tails additionally feed the [pool.task_latency] /
    [pool.idle_latency] histograms (ambient sink and process-wide
    {!metrics_snapshot}), and with an ambient sink each batch closes
    with one [pool.batch] span tree per participant — its tasks in
    start order (stolen ones flagged) and its idle tail, rooted with a
    [domain] attribute so the Chrome-trace exporter can lay them out as
    per-domain lanes. All of it is recorded after the batch barrier on
    the caller's domain: nothing is added to a task's own path beyond
    two clock reads. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] capped at 16 — the pool is for
    instance-level parallelism, not for oversubscribing the machine. *)

val resolve_jobs : int -> int
(** A [-j] value as the CLI and the campaigns read it: [0] means "ask
    the machine" ({!default_jobs}), anything else is clamped to
    [>= 1]. *)

val create : ?jobs:int -> unit -> t
(** A pool of [jobs] participants (default {!default_jobs}; clamped to
    [1, 64]). Each batch spawns its own [jobs - 1] domains and joins
    them when it ends — the caller's domain is the remaining
    participant — so [jobs:1] never spawns anything and {!map} runs the
    plain sequential loop. *)

val jobs : t -> int

val map : t -> ?weight:(int -> 'a -> int) -> f:(int -> 'a -> 'b) -> 'a array -> 'b array
(** [map t ~f arr] computes [|f 0 arr.(0); f 1 arr.(1); ...|], farming
    items out to the pool's domains. Returns when every item has run.
    If tasks raised, re-raises the exception of the smallest failing
    index after the whole batch has finished. Not reentrant: one batch
    at a time per pool (nested or concurrent [map] on the same pool is
    a programming error and raises [Invalid_argument]).

    [weight i x] is a relative cost estimate for item [i] (clamped to
    [>= 1]; e.g. nodes + edges of the instance's graph). It shapes the
    initial queue assignment only — correctness and determinism never
    depend on it, and stealing mops up whatever it mispredicts.

    Empty input returns [[||]] immediately; a single item (or a 1-job
    pool) runs in the caller's domain without touching the pool, and a
    batch never spawns more domains than it has items (as {!run}). *)

val shutdown : t -> unit
(** Retire the pool (no domain outlives a batch, so there is nothing to
    join). Idempotent; the pool is unusable after. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, and [shutdown] (also on exception). *)

val run : ?jobs:int -> ?weight:(int -> 'a -> int) -> f:(int -> 'a -> 'b) -> 'a array -> 'b array
(** One-shot convenience: [jobs:1] (the default) runs the sequential
    loop with no pool and no domains at all; otherwise a transient pool
    of [min jobs (Array.length arr)] workers is created for the call
    and shut down after — so short inputs never spawn idle domains, and
    an empty input spawns nothing. *)

(** {1 Process-wide scheduler totals}

    Like {!Qelect_symmetry.Artifact_cache.stats}: accumulated across
    every pool of the process (the [pool.*] sink counters only exist
    when an ambient sink is installed; these are always tallied). *)

type totals = {
  tasks : int;  (** items run through {!map} (parallel batches only) *)
  batches : int;  (** {!map} calls that engaged the pool *)
  steals : int;  (** items run by a participant that didn't own them *)
  idle_ns : int;  (** summed drained-to-barrier gap over participants *)
}

val totals : unit -> totals

val reset_totals : unit -> unit
(** Zero the counters and drop the latency histograms. *)

val metrics_snapshot : unit -> Qe_obs.Metrics.snapshot
(** {!totals} as sorted [pool.*] counters, plus the process-wide
    [pool.task_latency] / [pool.idle_latency] histograms — a ready-made
    source for {!Qe_obs.Expose}. *)

(** {1 Supervision hooks}

    What {!Supervisor} needs from the scheduler beyond {!run}: per-attempt
    claims and a deadline monitor. Not meant for other callers. *)

val attempt : (unit -> 'r) -> 'r
(** [attempt k] runs one attempt of the current task. Outside a
    {!watched} batch it is just [k ()]. Inside one it stamps the
    attempt's start for the monitor and takes a claim token; if the
    monitor timed the attempt out meanwhile, the result is discarded and
    the participant unwinds (its queue already belongs to a
    replacement). *)

val watched :
  jobs:int ->
  ?weight:(int -> 'a -> int) ->
  deadline_ns:int ->
  max_replacements:int ->
  on_overrun:(int -> started:int -> now:int -> unit -> 'b) ->
  f:(int -> 'a -> 'b) ->
  'a array ->
  'b array * int * bool
(** {!run} with a per-attempt wall-clock deadline. The [jobs]
    participants ([min jobs length], at most 64) are all fresh domains;
    the caller is the monitor. It sleeps until the earliest in-flight
    attempt (see {!attempt}) could overrun or the last task settles,
    and times an overrun attempt out: its claim is invalidated, and the
    participant is abandoned — a fresh domain takes over its queue id
    and first settles task [i] by running its continuation
    [on_overrun i ~started ~now] (the next attempt, or the final
    report). After
    [max_replacements] replacements the caller takes over the queue
    itself and runs what remains inline. Returns the results, the
    number of replacement domains spawned, and whether the batch
    degraded to inline execution. An abandoned domain that has not
    exited is never joined. *)

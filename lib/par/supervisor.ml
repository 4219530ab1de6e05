(* Supervised batch execution: a per-task wrapper on the pool.

   The pool's contract ("a task never misbehaves") is inverted here:
   every task settles to its own outcome, failures are retried on a
   seeded deterministic backoff schedule and finally quarantined. The
   wrapper is the attempt loop below; it runs on [Pool.run], or on
   [Pool.watched] when a deadline is set — there the pool's monitor
   times overrun attempts out and hands the task's continuation (built
   by [fail] here) to the participant replacing the wedged one. *)

module Metrics = Qe_obs.Metrics
module Sink = Qe_obs.Sink
module Span = Qe_obs.Span
module Export = Qe_obs.Export
module Clock = Qe_obs.Clock
module J = Qe_obs.Jsonl

type 'a outcome = Done of 'a | Failed of exn | Timed_out

type 'a report = { outcome : 'a outcome; attempts : int; quarantined : bool }

let value r = match r.outcome with Done v -> Some v | _ -> None

type policy = {
  deadline_ns : int option;
  max_attempts : int;
  backoff_base_ns : int;
  backoff_factor : float;
  backoff_max_ns : int;
  jitter : float;
  seed : int;
  max_replacements : int;
}

let policy ?deadline_ns ?(max_attempts = 3) ?(backoff_base_ns = 1_000_000)
    ?(backoff_factor = 2.0) ?(backoff_max_ns = 1_000_000_000) ?(jitter = 0.5)
    ?(seed = 0) ?(max_replacements = 4) () =
  {
    deadline_ns = Option.map (max 1) deadline_ns;
    max_attempts = max 1 max_attempts;
    backoff_base_ns = max 0 backoff_base_ns;
    backoff_factor = (if backoff_factor < 1.0 then 1.0 else backoff_factor);
    backoff_max_ns = max 0 backoff_max_ns;
    jitter = (if jitter < 0. then 0. else if jitter > 1. then 1. else jitter);
    seed;
    max_replacements = max 0 max_replacements;
  }

(* Pure: the wait before [attempt] of [task] depends on nothing but the
   policy — reruns and different job counts reproduce the schedule
   exactly. The jitter RNG is reseeded per decision (like
   [Harness_chaos.decide]) so concurrency cannot reorder draws. *)
let backoff_ns p ~task ~attempt =
  if attempt <= 1 then 0
  else begin
    let nominal =
      Float.min
        (float_of_int p.backoff_base_ns
        *. (p.backoff_factor ** float_of_int (attempt - 2)))
        (float_of_int p.backoff_max_ns)
    in
    if p.jitter = 0. then int_of_float nominal
    else begin
      let st = Random.State.make [| 0x5afe; p.seed; task; attempt |] in
      let factor =
        1.0 -. p.jitter +. Random.State.float st (2.0 *. p.jitter)
      in
      int_of_float (nominal *. factor)
    end
  end

(* ---------- process-wide supervision totals ----------

   One atomic per [pool.*] counter, in metric-name order. *)

type totals = {
  supervised : int;
  retries : int;
  timeouts : int;
  quarantined : int;
  replaced : int;
  degraded : int;
  chaos_injected : int;
}

let names =
  [| "pool.chaos.injected"; "pool.degraded"; "pool.quarantine"; "pool.retry";
     "pool.supervised"; "pool.timeout"; "pool.worker.replaced" |]

let g = Array.map (fun _ -> Atomic.make 0) names

let totals () =
  let v k = Atomic.get g.(k) in
  {
    chaos_injected = v 0;
    degraded = v 1;
    quarantined = v 2;
    retries = v 3;
    supervised = v 4;
    timeouts = v 5;
    replaced = v 6;
  }

let reset_totals () = Array.iter (fun a -> Atomic.set a 0) g

let metrics_snapshot () =
  Array.to_list
    (Array.mapi (fun k n -> (n, Metrics.Counter (Atomic.get g.(k)))) names)

let why_of_exn = function
  | Harness_chaos.Killed _ -> "chaos-kill"
  | Harness_chaos.Wedged _ -> "chaos-wedge"
  | e -> Printexc.to_string e

(* Batch telemetry, folded into the globals and the ambient sink once,
   on the caller, after the batch. Retries and quarantines are read off
   the reports; the [pool.retry] spans are logged per index, so they
   come out in task order. *)
let flush_telemetry ~injected ~timeouts ~replaced ~degraded reports logs =
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 reports in
  let deltas =
    [|
      injected;
      Bool.to_int degraded;
      sum (fun (r : _ report) -> Bool.to_int r.quarantined);
      sum (fun (r : _ report) -> r.attempts - 1);
      Array.length reports;
      timeouts;
      replaced;
    |]
  in
  Array.iteri (fun k d -> ignore (Atomic.fetch_and_add g.(k) d)) deltas;
  Option.iter
    (fun s ->
      Array.iteri
        (fun k d ->
          if d > 0 then
            Metrics.add (Metrics.counter s.Sink.metrics names.(k)) d)
        deltas;
      Array.iter
        (List.iter (fun root ->
             Span.add_root s.Sink.spans root;
             Sink.emit s (Export.Span_tree root)))
        (Array.map List.rev logs))
    (Sink.ambient ())

let map ?(policy = policy ()) ?chaos ?(jobs = 1) ?weight ~f arr =
  let len = Array.length arr in
  if len = 0 then [||]
  else begin
    let chaos =
      match chaos with
      | Some c when Harness_chaos.enabled c -> Some c
      | _ -> None
    in
    let wedge_cap_ns =
      match chaos with Some c -> c.Harness_chaos.wedge_cap_ns | None -> 0
    in
    let lat = Harness_chaos.latch () in
    let injected = Atomic.make 0 in
    let logs = Array.make len [] in
    (* the attempt each task has in flight, for the deadline monitor *)
    let current = Array.make len 1 in
    (* the one attempt loop: chaos decision, the attempt (a claim on a
       watched batch), then settle, or back off and go again *)
    let rec run i attempt =
      current.(i) <- attempt;
      let act =
        match chaos with
        | None -> Harness_chaos.Pass
        | Some c -> Harness_chaos.decide c ~task:i ~attempt
      in
      if act <> Harness_chaos.Pass then Atomic.incr injected;
      let t0 = Clock.now_ns () in
      let res =
        Pool.attempt (fun () ->
            try
              Harness_chaos.run_action lat act ~task:i ~attempt ~wedge_cap_ns;
              Ok (f i arr.(i))
            with e -> Error e)
      in
      match res with
      | Ok v -> { outcome = Done v; attempts = attempt; quarantined = false }
      | Error e ->
          fail i attempt (why_of_exn e) (Failed e) ~t0 ~t1:(Clock.now_ns ()) ()
    (* log the failed attempt; the continuation settles the task, or
       backs off and runs its next attempt *)
    and fail i attempt why outcome ~t0 ~t1 =
      let last = attempt >= policy.max_attempts in
      let bo =
        if last then 0 else backoff_ns policy ~task:i ~attempt:(attempt + 1)
      in
      let attrs =
        [ ("task", J.Int i); ("attempt", J.Int attempt); ("why", J.String why);
          ("backoff_ns", J.Int bo) ]
      in
      logs.(i) <-
        { Span.name = "pool.retry"; start_ns = t0; dur_ns = t1 - t0; attrs;
          children = [] }
        :: logs.(i);
      if last then fun () -> { outcome; attempts = attempt; quarantined = true }
      else fun () ->
        if bo > 0 then Unix.sleepf (float_of_int bo /. 1e9);
        run i (attempt + 1)
    in
    let f i _ = run i 1 in
    let timeouts = ref 0 in
    let reports, replaced, degraded =
      match policy.deadline_ns with
      | None -> (Pool.run ~jobs ?weight ~f arr, 0, false)
      | Some deadline_ns ->
          (* the monitor calls [on_overrun] on the caller's domain *)
          Pool.watched ~jobs ?weight ~deadline_ns
            ~max_replacements:policy.max_replacements
            ~on_overrun:(fun i ~started ~now ->
              incr timeouts;
              fail i current.(i) "timeout" Timed_out ~t0:started ~t1:now)
            ~f arr
    in
    (* free any wedged chaos attempts so abandoned domains can unwind *)
    Harness_chaos.release lat;
    flush_telemetry ~injected:(Atomic.get injected) ~timeouts:!timeouts
      ~replaced ~degraded reports logs;
    reports
  end

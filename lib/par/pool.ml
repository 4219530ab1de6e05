(* Domains chewing on one batch at a time — the only claim loop of the
   process.

   Scheduling is size-aware and self-balancing (each participant owns a
   queue of indices, assigned largest-weight-first, and steals from the
   others when its own runs dry), determinism is structural: results
   land in the slot of their input index and errors are reported by
   smallest index, so nothing the caller can observe depends on which
   domain ran what, or when. Supervised batches run on the same loop;
   with a deadline the caller turns monitor (see [watched]). *)

module Metrics = Qe_obs.Metrics
module Sink = Qe_obs.Sink
module Span = Qe_obs.Span
module Export = Qe_obs.Export
module Clock = Qe_obs.Clock
module J = Qe_obs.Jsonl

type batch = {
  run : int -> int -> unit;
      (* [run i self]: stores its own result/error; never raises (but
         [Abandoned], on a watched batch). [self] is the participant id,
         recorded for the trace lanes. *)
  queues : int array array;  (* queues.(w): indices owned by participant w *)
  pos : int Atomic.t array;  (* next unclaimed slot of queues.(w) *)
  steals : int Atomic.t;  (* indices run by a non-owner *)
  drained : int array;  (* ns timestamp at which participant w ran dry *)
}

let default_jobs () = max 1 (min (Domain.recommended_domain_count ()) 16)
let resolve_jobs jobs = if jobs = 0 then default_jobs () else max 1 jobs

(* ---------- process-wide scheduler totals ----------

   Campaign entry points run on transient pools, so per-pool counters
   would be gone before a bench could read them. These accumulate across
   every pool of the process (like [Artifact_cache.stats]); the same
   numbers are also added to the ambient sink as [pool.*] counters at
   the end of each batch, on the caller's domain. *)

let g_tasks = Atomic.make 0
let g_batches = Atomic.make 0
let g_steals = Atomic.make 0
let g_idle_ns = Atomic.make 0

(* process-wide latency distributions (task run time, per-participant
   idle tails), folded in once per batch on the caller's domain — the
   mutex is never on a task's path *)
let g_reg = ref (Metrics.create ())
let g_reg_m = Mutex.create ()

type totals = { tasks : int; batches : int; steals : int; idle_ns : int }

let totals () =
  {
    tasks = Atomic.get g_tasks;
    batches = Atomic.get g_batches;
    steals = Atomic.get g_steals;
    idle_ns = Atomic.get g_idle_ns;
  }

let reset_totals () =
  List.iter
    (fun g -> Atomic.set g 0)
    [ g_tasks; g_batches; g_steals; g_idle_ns ];
  Mutex.protect g_reg_m (fun () -> g_reg := Metrics.create ())

let metrics_snapshot () =
  let t = totals () in
  let counters =
    [
      ("pool.batches", Metrics.Counter t.batches);
      ("pool.idle_ns", Metrics.Counter t.idle_ns);
      ("pool.steal", Metrics.Counter t.steals);
      ("pool.tasks", Metrics.Counter t.tasks);
    ]
  in
  Metrics.merge counters
    (Mutex.protect g_reg_m (fun () -> Metrics.snapshot !g_reg))

(* ---------- size-aware assignment ----------

   Largest-processing-time-first: indices sorted by decreasing weight
   (ties by index) are dealt one at a time to the least-loaded queue
   (ties to the lowest id). With uniform weights this degrades to a
   round-robin deal; with honest weights one torus6x6 lands alone in a
   queue instead of serializing a chunk of small instances behind it.
   The deal is a pure function of (len, weights, jobs) — scheduling
   stays irrelevant to the results either way, this only shrinks the
   idle tail stealing has to mop up. *)

let assign ~jobs ~weights len =
  let order = Array.init len Fun.id in
  Array.sort
    (fun a b ->
      if weights.(a) <> weights.(b) then compare weights.(b) weights.(a)
      else compare a b)
    order;
  let load = Array.make jobs 0 in
  let rev_queues = Array.make jobs [] in
  Array.iter
    (fun i ->
      let w = ref 0 in
      for k = 1 to jobs - 1 do
        if load.(k) < load.(!w) then w := k
      done;
      rev_queues.(!w) <- i :: rev_queues.(!w);
      load.(!w) <- load.(!w) + weights.(i))
    order;
  Array.map (fun l -> Array.of_list (List.rev l)) rev_queues

(* ---------- claiming and stealing ----------

   Each queue has its own atomic cursor: the owner claims off it
   uncontended; thieves hit it only once the owner's work is the only
   work left. A queue never refills, so one sweep over every victim
   (draining each to empty before moving on) proves there is nothing
   left to run — an idle participant costs one failed fetch_and_add per
   queue, it never spins. *)

let chew b ~self =
  let take w =
    let q = b.queues.(w) in
    let i = Atomic.fetch_and_add b.pos.(w) 1 in
    if i < Array.length q then Some q.(i) else None
  in
  let rec drain_own () =
    match take self with
    | Some i ->
        b.run i self;
        drain_own ()
    | None -> ()
  in
  drain_own ();
  let parts = Array.length b.queues in
  let stolen = ref 0 in
  for off = 1 to parts - 1 do
    let v = (self + off) mod parts in
    let draining = ref true in
    while !draining do
      match take v with
      | Some i ->
          incr stolen;
          b.run i self
      | None -> draining := false
    done
  done;
  if !stolen > 0 then ignore (Atomic.fetch_and_add b.steals !stolen);
  (* written before the participant's domain is joined (or, for the
     caller, on its own domain), so the post-batch read is synchronized *)
  b.drained.(self) <- Clock.now_ns ()

(* ---------- attempt claims (watched batches) ----------

   On a watched batch every attempt of task [i] stamps its start into
   [t_beg.(i)] and publishes a fresh claim token in [tok.(i)] ([0] = no
   attempt in flight). The attempt's result counts only if the token is
   still its own when it returns; the monitor times an attempt out by
   swapping its token for [0], so exactly one side wins and a late
   result unwinds its (abandoned) participant with [Abandoned]. *)

exception Abandoned

type watch = {
  tok : int Atomic.t array;
  next_tok : int Atomic.t;
  t_beg : int array;
  runner : int array;  (* participant running task i *)
  left : int Atomic.t;  (* tasks not yet settled *)
  wake : Unix.file_descr * Unix.file_descr;  (* one byte when left = 0 *)
}

let current : (watch * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let attempt k =
  match Domain.DLS.get current with
  | None -> k ()
  | Some (w, i) ->
      let c = Atomic.fetch_and_add w.next_tok 1 in
      w.t_beg.(i) <- Clock.now_ns ();
      Atomic.set w.tok.(i) c;
      let r = k () in
      if Atomic.compare_and_set w.tok.(i) c 0 then r else raise Abandoned

(* ---------- one batch, whoever drives it ----------

   Every batch gets participants of its own, spawned for it and joined
   after it. Per-task bookkeeping on the way in, telemetry and result
   collection after the join. [drive b task] runs [b] to completion;
   [task i self body] runs [body] as task [i] on participant [self],
   which is how a watched batch hands a timed-out task's next attempt
   to the participant replacing its runner. *)

let exec ~parts ?weight ?watch ~f arr drive =
  let len = Array.length arr in
  let results = Array.make len None in
  let errors = Array.make len None in
  (* per-task wall-clock envelope and runner id, for the latency
     histograms and the per-domain trace lanes; the post-barrier
     synchronization makes the plain stores safe to read below *)
  let t_beg =
    match watch with Some w -> w.t_beg | None -> Array.make len 0
  in
  let t_fin = Array.make len 0 in
  let runner =
    match watch with Some w -> w.runner | None -> Array.make len (-1)
  in
  let task i self body =
    t_beg.(i) <- Clock.now_ns ();
    runner.(i) <- self;
    Option.iter (fun w -> Domain.DLS.set current (Some (w, i))) watch;
    (match body () with
    | v -> results.(i) <- Some v
    | exception Abandoned -> raise Abandoned
    | exception e -> errors.(i) <- Some e);
    t_fin.(i) <- Clock.now_ns ();
    Option.iter
      (fun w ->
        Domain.DLS.set current None;
        if Atomic.fetch_and_add w.left (-1) = 1 then
          ignore (Unix.write_substring (snd w.wake) "." 0 1))
      watch
  in
  let weights =
    match weight with
    | None -> Array.make len 1
    | Some w -> Array.init len (fun i -> max 1 (w i arr.(i)))
  in
  let b =
    {
      run = (fun i self -> task i self (fun () -> f i arr.(i)));
      queues = assign ~jobs:parts ~weights len;
      pos = Array.init parts (fun _ -> Atomic.make 0);
      steals = Atomic.make 0;
      drained = Array.make parts 0;
    }
  in
  let t_pub = Clock.now_ns () in
  drive b task;
  (* the barrier is the moment the last participant ran dry; joining
     the domains afterwards is teardown, not idling *)
  let t_end = Array.fold_left max t_pub b.drained in
  (* per-participant gap between running dry and the batch barrier: the
     imbalance stealing could not hide *)
  let tail w = if b.drained.(w) > 0 then max 0 (t_end - b.drained.(w)) else 0 in
  let idle = Array.fold_left ( + ) 0 (Array.init parts tail) in
  let steals = Atomic.get b.steals in
  let counts =
    [ ("pool.tasks", g_tasks, len); ("pool.batches", g_batches, 1);
      ("pool.steal", g_steals, steals); ("pool.idle_ns", g_idle_ns, idle) ]
  in
  List.iter (fun (_, g, n) -> ignore (Atomic.fetch_and_add g n)) counts;
  let observe_latencies m =
    let ht = Metrics.latency m "pool.task_latency" in
    let hi = Metrics.latency m "pool.idle_latency" in
    for i = 0 to len - 1 do
      Metrics.observe ht (t_fin.(i) - t_beg.(i))
    done;
    for w = 0 to parts - 1 do
      if tail w > 0 then Metrics.observe hi (tail w)
    done
  in
  Mutex.protect g_reg_m (fun () -> observe_latencies !g_reg);
  Option.iter
    (fun s ->
      let m = s.Sink.metrics in
      List.iter
        (fun (name, _, n) -> Metrics.add (Metrics.counter m name) n)
        counts;
      observe_latencies m;
      (* one [pool.batch] span tree per participant: its tasks in start
         order (stolen ones flagged), then the idle tail it spent blocked
         on the barrier — the per-domain lanes of the Chrome-trace
         export *)
      let owner = Array.make len 0 in
      Array.iteri (fun w q -> Array.iter (fun i -> owner.(i) <- w) q) b.queues;
      let span name start_ns dur_ns attrs children =
        { Span.name; start_ns; dur_ns; attrs; children }
      in
      for w = 0 to parts - 1 do
        let is =
          List.filter (fun i -> runner.(i) = w) (List.init len Fun.id)
          |> List.stable_sort (fun a c -> compare t_beg.(a) t_beg.(c))
        in
        let stolen i = owner.(i) <> w in
        let tasks =
          List.map
            (fun i ->
              span "pool.task" t_beg.(i) (t_fin.(i) - t_beg.(i))
                [ ("idx", J.Int i); ("stolen", J.Bool (stolen i)) ] [])
            is
        in
        let idle_span =
          if tail w > 0 then [ span "pool.idle" b.drained.(w) (tail w) [] [] ]
          else []
        in
        let root =
          span "pool.batch" t_pub (t_end - t_pub)
            [ ("domain", J.Int w); ("tasks", J.Int (List.length is));
              ("stolen", J.Int (List.length (List.filter stolen is))) ]
            (tasks @ idle_span)
        in
        Span.add_root s.Sink.spans root;
        Sink.emit s (Export.Span_tree root)
      done)
    (Sink.ambient ());
  Array.iter (function Some e -> raise e | None -> ()) errors;
  Array.map Option.get results

(* A plain batch: [parts - 1] fresh domains plus the caller, all
   chewing; joining them is the batch barrier. *)
let spawn_and_chew b _task =
  let domains =
    List.init
      (Array.length b.queues - 1)
      (fun p -> Domain.spawn (fun () -> chew b ~self:(p + 1)))
  in
  chew b ~self:0;
  List.iter Domain.join domains

let run ?(jobs = 1) ?weight ~f arr =
  let len = Array.length arr in
  if jobs <= 1 || len <= 1 then Array.mapi f arr
  else
    (* never spawn more domains than there are items to run *)
    exec ~parts:(min (min jobs 64) len) ?weight ~f arr spawn_and_chew

type t = { jobs : int; busy : bool Atomic.t; stopped : bool Atomic.t }

let create ?jobs () =
  let jobs =
    match jobs with None -> default_jobs () | Some j -> max 1 (min j 64)
  in
  { jobs; busy = Atomic.make false; stopped = Atomic.make false }

let jobs t = t.jobs

let map t ?weight ~f arr =
  if t.jobs = 1 || Array.length arr <= 1 then Array.mapi f arr
  else if Atomic.get t.stopped then invalid_arg "Pool.map: pool is shut down"
  else if not (Atomic.compare_and_set t.busy false true) then
    invalid_arg "Pool.map: pool is already running a batch"
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set t.busy false)
      (fun () -> run ~jobs:t.jobs ?weight ~f arr)

let shutdown t = Atomic.set t.stopped true

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ---------- watched batches (deadlines) ----------

   Every participant is a fresh domain of its own and the caller is the
   monitor: it sleeps until the earliest in-flight attempt could
   overrun (or the last task settles — the [wake] pipe makes the sleep
   a timed wait, never a polling nap), times overrun attempts out,
   writes their participants off and puts a fresh domain on each
   abandoned queue id, starting with the timed-out task's next attempt.
   Past [max_replacements] the caller takes the queue over itself and
   runs what remains inline. OCaml domains cannot be killed: an
   abandoned domain is joined only if it has already exited. *)

let watched ~jobs ?weight ~deadline_ns ~max_replacements ~on_overrun ~f arr =
  let len = Array.length arr in
  let parts = max 1 (min (min jobs 64) len) in
  let wake = Unix.pipe ~cloexec:true () in
  let w =
    {
      tok = Array.init len (fun _ -> Atomic.make 0);
      next_tok = Atomic.make 1;
      t_beg = Array.make len 0;
      runner = Array.make len (-1);
      left = Atomic.make len;
      wake;
    }
  in
  let replaced = ref 0 and degraded = ref false in
  let drive b task =
    let occupant = Array.make parts None in
    let abandoned = ref [] in
    let participate p first =
      try
        Option.iter (fun (i, k) -> task i p k) first;
        chew b ~self:p
      with Abandoned -> ()
    in
    let occupy p first =
      let exited = Atomic.make false in
      let body () = participate p first; Atomic.set exited true in
      occupant.(p) <- Some (Domain.spawn body, exited)
    in
    for p = 0 to parts - 1 do
      occupy p None
    done;
    let overrun i ~started ~now =
      let p = w.runner.(i) in
      Option.iter (fun d -> abandoned := d :: !abandoned) occupant.(p);
      occupant.(p) <- None;
      let first = Some (i, on_overrun i ~started ~now) in
      if !replaced < max_replacements then begin
        incr replaced;
        occupy p first
      end
      else begin
        degraded := true;
        participate p first
      end
    in
    while Atomic.get w.left > 0 do
      let now = Clock.now_ns () in
      let next = ref (now + deadline_ns) in
      for i = 0 to len - 1 do
        let c = Atomic.get w.tok.(i) in
        if c > 0 then begin
          let started = w.t_beg.(i) in
          if now - started <= deadline_ns then
            next := min !next (started + deadline_ns + 1)
          else if Atomic.compare_and_set w.tok.(i) c 0 then
            overrun i ~started ~now
        end
      done;
      let dt = float_of_int (!next - Clock.now_ns ()) /. 1e9 in
      if dt > 0. && Atomic.get w.left > 0 then
        try ignore (Unix.select [ fst wake ] [] [] dt)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Array.iter (Option.iter (fun (d, _) -> Domain.join d)) occupant;
    List.iter
      (fun (d, exited) -> if Atomic.get exited then Domain.join d)
      !abandoned
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close (fst wake);
      Unix.close (snd wake))
    (fun () ->
      let results = exec ~parts ?weight ~watch:w ~f arr drive in
      (results, !replaced, !degraded))

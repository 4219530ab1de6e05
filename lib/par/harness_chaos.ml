(* Harness-level fault plans: seeded, schedule-independent decisions. *)

module Clock = Qe_obs.Clock

type t = {
  seed : int;
  kill_rate : float;
  delay_rate : float;
  delay_ns : int;
  wedge_rate : float;
  wedge_cap_ns : int;
}

exception Killed of { task : int; attempt : int }
exception Wedged of { task : int; attempt : int }

let none =
  {
    seed = 0;
    kill_rate = 0.;
    delay_rate = 0.;
    delay_ns = 0;
    wedge_rate = 0.;
    wedge_cap_ns = 0;
  }

let clamp01 r = if r < 0. then 0. else if r > 1. then 1. else r

let make ?(kill_rate = 0.) ?(delay_rate = 0.) ?(delay_ns = 5_000_000)
    ?(wedge_rate = 0.) ?(wedge_cap_ns = 2_000_000_000) ~seed () =
  {
    seed;
    kill_rate = clamp01 kill_rate;
    delay_rate = clamp01 delay_rate;
    delay_ns = max 0 delay_ns;
    wedge_rate = clamp01 wedge_rate;
    wedge_cap_ns = max 0 wedge_cap_ns;
  }

let enabled t = t.kill_rate > 0. || t.delay_rate > 0. || t.wedge_rate > 0.

let summary t =
  Printf.sprintf "seed %d: kill=%.3f delay=%.3f(%dns) wedge=%.3f(cap %dns)"
    t.seed t.kill_rate t.delay_rate t.delay_ns t.wedge_rate t.wedge_cap_ns

type action = Pass | Kill | Delay of int | Wedge

(* One private RNG per decision, reseeded from (seed, task, attempt):
   the draw can never depend on which domain asks, or in what order.
   Each kind gets its own draw so enabling one kind never shifts
   another's stream. *)
let decide t ~task ~attempt =
  if not (enabled t) then Pass
  else begin
    let st = Random.State.make [| 0x9e1e; t.seed; task; attempt |] in
    let kill = Random.State.float st 1.0 < t.kill_rate in
    let delay = Random.State.float st 1.0 < t.delay_rate in
    let wedge = Random.State.float st 1.0 < t.wedge_rate in
    if kill then Kill
    else if delay then Delay t.delay_ns
    else if wedge then Wedge
    else Pass
  end

(* ---------- the release latch ---------- *)

type latch = bool Atomic.t

let latch () = Atomic.make false
let release l = Atomic.set l true

(* Block until released or the cap expires, in short slices — a wedge
   simulates a hung domain; a few ms of wake-up granularity is
   irrelevant to what it tests. *)
let park l ~cap_ns =
  let deadline = Clock.now_ns () + cap_ns in
  while (not (Atomic.get l)) && Clock.now_ns () < deadline do
    Unix.sleepf 0.002
  done

let run_action latch action ~task ~attempt ~wedge_cap_ns =
  match action with
  | Pass -> ()
  | Kill -> raise (Killed { task; attempt })
  | Delay ns -> if ns > 0 then Unix.sleepf (float_of_int ns /. 1e9)
  | Wedge ->
      park latch ~cap_ns:wedge_cap_ns;
      raise (Wedged { task; attempt })

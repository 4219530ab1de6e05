(* The symmetry artifact cache (Qe_symmetry.Artifact_cache).

   Contracts under test:
   - keys: exact keys are numbering-sensitive, canonical fingerprints are
     numbering-blind (equal exactly on isomorphic instances); instance
     keys are equal exactly when exact_key strings are, survive forced
     digest collisions, are derived once per value, and are released by
     clear;
   - slots: one computation per (slot, instance), exceptions cached and
     re-raised, per-slot stats, and a warm accessor costs one lookup;
   - single-flight: 8 domains racing one cold cell produce exactly one
     miss and one execution of the thunk; a clear racing a computation
     keeps its value from being served afterwards;
   - transparency: sweeps (elect and elect-cayley) with the cache on and
     off produce the same records, and observed sweeps the same metric
     snapshots modulo the cache.* counters, at -j 1 and -j 4;
   - satellite regressions: Oracle.predict computes the classes exactly
     once (the classes.compute call-count metric), and Elect plans carry
     a node_class index consistent with the class lists. *)

module Graph = Qe_graph.Graph
module Bicolored = Qe_graph.Bicolored
module Families = Qe_graph.Families
module Engine = Qe_runtime.Engine
module Campaign = Qe_elect.Campaign
module Oracle = Qe_elect.Oracle
module Elect = Qe_elect.Elect
module Cache = Qe_symmetry.Artifact_cache
module Metrics = Qe_obs.Metrics
module Sink = Qe_obs.Sink

let elect = Qe_elect.Elect.protocol

(* Test slots. Every slot is registered before the cache's first lookup,
   so they all live at toplevel. *)
let key_slot : int Cache.slot = Cache.slot ~kind:"test.key"
let basic_slot : int Cache.slot = Cache.slot ~kind:"test.basic"
let err_slot : unit Cache.slot = Cache.slot ~kind:"test.error"
let hammer_slot : int Cache.slot = Cache.slot ~kind:"test.hammer"
let l1_slot : int Cache.slot = Cache.slot ~kind:"test.l1"
let race_slot : int Cache.slot = Cache.slot ~kind:"test.race"
let backend_slot : string Cache.slot = Cache.slot ~kind:"test.backend"

(* small distinct instances to key test slots by: n isolated nodes *)
let isolated n = Bicolored.make (Graph.of_edges ~n []) ~black:[ 0 ]

(* the whole binary runs with the cache in whatever state earlier tests
   left it; every test that toggles the switch restores it *)
let with_cache_enabled on f =
  let before = Cache.enabled () in
  Cache.set_enabled on;
  Fun.protect ~finally:(fun () -> Cache.set_enabled before) f

let stat_of kind =
  match List.find_opt (fun s -> s.Cache.kind = kind) (Cache.stats ()) with
  | Some s -> s
  | None -> Alcotest.failf "no stats row for kind %s" kind

(* ---------- keys ---------- *)

(* C6 under a shuffled numbering: same abstract instance, different
   identity certificate *)
let c6_antipodal () = Bicolored.make (Families.cycle 6) ~black:[ 0; 3 ]

let c6_antipodal_relabeled () =
  let p = [| 3; 1; 4; 0; 5; 2 |] in
  let edges = List.init 6 (fun i -> (p.(i), p.((i + 1) mod 6))) in
  Bicolored.make (Graph.of_edges ~n:6 edges) ~black:[ p.(0); p.(3) ]

let test_keys () =
  let b = c6_antipodal () and b' = c6_antipodal_relabeled () in
  Alcotest.(check bool)
    "exact keys are numbering-sensitive" false
    (Cache.exact_key b = Cache.exact_key b');
  Alcotest.(check string) "fingerprints are numbering-blind"
    (Cache.fingerprint b) (Cache.fingerprint b');
  let adjacent = Bicolored.make (Families.cycle 6) ~black:[ 0; 1 ] in
  Alcotest.(check bool)
    "different placements, different fingerprints" false
    (Cache.fingerprint b = Cache.fingerprint adjacent);
  Alcotest.(check bool)
    "exact_key is cheap and deterministic" true
    (Cache.exact_key b = Cache.exact_key (c6_antipodal ()))

(* ---------- instance keys vs the exact_key reference ---------- *)

(* An instance key must be equal exactly when the exact_key certificates
   are. Observed through the real lookup path: after [clear], [x] fills
   a fresh entry and [y] either hits it (keys equal) or computes its
   own. *)
let shares x y =
  Cache.clear ();
  ignore (Cache.get key_slot x (fun () -> 1) : int);
  Cache.get key_slot y (fun () -> 2) = 1

(* (n, edges, blacks): multigraphs with loops and parallel edges, not
   necessarily connected *)
let random_spec st =
  let n = 1 + Random.State.int st 6 in
  let edges =
    List.init (Random.State.int st 10) (fun _ ->
        (Random.State.int st n, Random.State.int st n))
  in
  let black =
    List.filter (fun _ -> Random.State.bool st) (List.init n Fun.id)
  in
  (n, edges, if black = [] then [ Random.State.int st n ] else black)

let shuffle st l =
  List.map (fun x -> (Random.State.bits st, x)) l
  |> List.sort compare |> List.map snd

(* A second spec related to the first the way real keys meet: the same
   edges in another order or orientation (other port orders), a
   renumbering, a flipped colour, an extra loop or parallel edge, one
   more node, or an unrelated draw. *)
let variant st ((n, edges, black) as spec) =
  let node () = Random.State.int st n in
  match Random.State.int st 8 with
  | 0 -> spec
  | 1 ->
      let flip (u, v) = if Random.State.bool st then (v, u) else (u, v) in
      (n, List.map flip (shuffle st edges), black)
  | 2 ->
      let p = Array.of_list (shuffle st (List.init n Fun.id)) in
      ( n,
        List.map (fun (u, v) -> (p.(u), p.(v))) edges,
        List.map (Array.get p) black )
  | 3 ->
      let u = node () in
      let black' =
        if List.mem u black then List.filter (( <> ) u) black else u :: black
      in
      (n, edges, if black' = [] then [ (u + 1) mod n ] else black')
  | 4 ->
      let u = node () in
      (n, shuffle st ((u, u) :: edges), black)
  | 5 -> (
      match edges with
      | [] -> (n, [ (node (), node ()) ], black)
      | e :: _ -> (n, shuffle st (e :: edges), black))
  | 6 -> (n + 1, edges, black)
  | _ -> random_spec st

let of_spec (n, edges, black) =
  Bicolored.make (Graph.of_edges ~n edges) ~black

let prop_key_equality_is_exact_key_equality =
  QCheck.Test.make ~name:"instance key equal <=> exact_key equal" ~count:500
    QCheck.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let spec = random_spec st in
      let spec' = variant st spec in
      let b = of_spec spec in
      let b' =
        (* every fifth pair shares one graph value, as the placements of
           one zoo graph do *)
        if seed mod 5 = 0 then
          let _, _, black = variant st spec in
          if List.for_all (fun u -> u < Graph.n (Bicolored.graph b)) black
          then Bicolored.make (Bicolored.graph b) ~black
          else of_spec spec'
        else of_spec spec'
      in
      with_cache_enabled true @@ fun () ->
      shares b b' = (Cache.exact_key b = Cache.exact_key b'))

(* Different instances forced onto one digest must each get their own
   artifact — from this domain's L1 and from the shared L2 alike — while
   an equal instance under the same digest shares the entry. The four
   distinct ones differ only in the mask, only in the arcs (same degree
   sequence), and only in n. *)
let test_digest_collision () =
  with_cache_enabled true @@ fun () ->
  Cache.clear ();
  Cache.reset_stats ();
  let forced = Cache.For_testing.with_digest 42 in
  let c6_plus_isolated =
    Graph.of_edges ~n:7 (List.init 6 (fun i -> (i, (i + 1) mod 6)))
  in
  let two_triangles =
    Graph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ]
  in
  let distinct =
    List.map forced
      [
        c6_antipodal ();
        Bicolored.make (Families.cycle 6) ~black:[ 0; 1 ];
        Bicolored.make two_triangles ~black:[ 0; 3 ];
        Bicolored.make c6_plus_isolated ~black:[ 0; 3 ];
      ]
  in
  (* C6 again, edges listed backwards: other port orders, same arcs *)
  let c6_backwards =
    forced
      (Bicolored.make
         (Graph.of_edges ~n:6
            (List.rev (List.init 6 (fun i -> ((i + 1) mod 6, i)))))
         ~black:[ 0; 3 ])
  in
  let get x v = Cache.get key_slot x (fun () -> v) in
  let own = List.mapi (fun i _ -> i + 1) distinct in
  Alcotest.(check (list int)) "each instance computes its own artifact" own
    (List.mapi (fun i x -> get x (i + 1)) distinct);
  Alcotest.(check (list int)) "L1 hits keep them apart" own
    (List.map (fun x -> get x 0) distinct);
  Alcotest.(check int) "an equal instance on the same digest shares" 1
    (get c6_backwards 0);
  let worker =
    Domain.spawn (fun () -> List.rev_map (fun x -> get x 0) distinct)
  in
  Alcotest.(check (list int)) "L2 hits keep them apart" (List.rev own)
    (Domain.join worker);
  let s = stat_of "test.key" in
  Alcotest.(check int) "one miss per distinct instance" 4 s.Cache.misses;
  Alcotest.(check int) "every other lookup hits" 9 s.Cache.hits

let test_predict_derives_digest_once () =
  with_cache_enabled true @@ fun () ->
  Cache.clear ();
  let b = Bicolored.make (Families.petersen ()) ~black:[ 0; 1 ] in
  let before = Cache.key_derivations () in
  ignore (Oracle.predict b : Oracle.prediction);
  Alcotest.(check int) "cold predict: one digest for every slot" 1
    (Cache.key_derivations () - before);
  ignore (Oracle.predict b : Oracle.prediction);
  ignore (Elect.make_plan b : Elect.plan);
  Alcotest.(check int) "warm lookups on the same value derive none" 1
    (Cache.key_derivations () - before)

(* Keys hold their instance; [clear] must let it go at once, without
   waiting for this domain's next lookup to flush its L1. *)
let test_clear_releases_instance () =
  with_cache_enabled true @@ fun () ->
  Cache.clear ();
  let w = Weak.create 1 in
  let[@inline never] fill () =
    let b = Bicolored.make (Families.cycle 64) ~black:[ 0; 5 ] in
    Weak.set w 0 (Some b);
    ignore (Oracle.predict b : Oracle.prediction);
    ignore (Elect.make_plan b : Elect.plan)
  in
  fill ();
  Gc.full_major ();
  Alcotest.(check bool) "cached entries keep the instance alive" true
    (Weak.check w 0);
  Cache.clear ();
  Gc.full_major ();
  Alcotest.(check bool) "clear released it" false (Weak.check w 0)

(* ---------- slot basics ---------- *)

let test_slot_basics () =
  with_cache_enabled true @@ fun () ->
  Cache.clear ();
  Cache.reset_stats ();
  let a = isolated 1 and bb = isolated 2 in
  let computes = ref 0 in
  let get x =
    Cache.get basic_slot x (fun () ->
        incr computes;
        Graph.n (Bicolored.graph x))
  in
  Alcotest.(check int) "first call computes" 1 (get a);
  Alcotest.(check int) "second call hits" 1 (get a);
  Alcotest.(check int) "distinct key computes" 2 (get bb);
  Alcotest.(check int) "one compute per key" 2 !computes;
  let s = stat_of "test.basic" in
  Alcotest.(check int) "misses" 2 s.Cache.misses;
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "the repeat hit came from this domain's L1" 1
    s.Cache.l1_hits;
  Cache.clear ();
  Alcotest.(check int) "clear drops entries" 1 (get a);
  Alcotest.(check int) "recompute after clear" 3 !computes;
  Alcotest.(check bool) "duplicate kind rejected" true
    (try
       ignore (Cache.slot ~kind:"test.basic" : int Cache.slot);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "a slot registered after the first lookup: rejected"
    true
    (try
       ignore (Cache.slot ~kind:"test.late" : int Cache.slot);
       false
     with Invalid_argument _ -> true)

let test_disabled_bypasses () =
  with_cache_enabled false @@ fun () ->
  Cache.reset_stats ();
  let computes = ref 0 in
  let get () =
    Cache.get basic_slot (isolated 3) (fun () ->
        incr computes;
        0)
  in
  ignore (get ());
  ignore (get ());
  Alcotest.(check int) "disabled cache recomputes every call" 2 !computes;
  let s = stat_of "test.basic" in
  Alcotest.(check int) "no hits while disabled" 0 s.Cache.hits;
  Alcotest.(check int) "no misses while disabled" 0 s.Cache.misses

exception Boom

let test_exception_caching () =
  with_cache_enabled true @@ fun () ->
  Cache.clear ();
  let b = isolated 1 in
  let computes = ref 0 in
  let get () =
    Cache.get err_slot b (fun () ->
        incr computes;
        raise Boom)
  in
  Alcotest.check_raises "first call raises" Boom get;
  Alcotest.check_raises "hit re-raises the cached exception" Boom get;
  Alcotest.(check int) "the failing thunk ran once" 1 !computes

(* A warm accessor is one keyed lookup plus one cell read: exactly one
   hit, summed over every slot's row, and no miss. *)
let test_warm_accessors_one_lookup () =
  with_cache_enabled true @@ fun () ->
  Cache.clear ();
  let b = Bicolored.make (Families.petersen ()) ~black:[ 0; 1 ] in
  let totals () =
    List.fold_left
      (fun (h, m) (r : Cache.stat) -> (h + r.Cache.hits, m + r.Cache.misses))
      (0, 0) (Cache.stats ())
  in
  List.iter
    (fun (name, f) ->
      f () (* cold *);
      let h0, m0 = totals () in
      f ();
      let h1, m1 = totals () in
      Alcotest.(check int) (name ^ ": one hit") 1 (h1 - h0);
      Alcotest.(check int) (name ^ ": no miss") 0 (m1 - m0))
    [
      ("Oracle.predict",
       fun () -> ignore (Oracle.predict b : Oracle.prediction));
      ("Oracle.gcd_classes", fun () -> ignore (Oracle.gcd_classes b : int));
      ("Elect.make_plan", fun () -> ignore (Elect.make_plan b : Elect.plan));
    ]

(* ---------- single-flight across domains ---------- *)

let test_single_flight_hammer () =
  with_cache_enabled true @@ fun () ->
  Cache.clear ();
  Cache.reset_stats ();
  let domains = 8 in
  let shared = isolated 1 in
  let arrivals = Atomic.make 0 in
  let computes = Atomic.make 0 in
  let body () =
    (* every domain announces itself before its lookup, and the one that
       wins the cell spins until all have: the other seven are
       guaranteed to resolve this cell while it is being computed or
       already settled — never by computing it themselves *)
    Atomic.incr arrivals;
    Cache.get hammer_slot shared (fun () ->
        Atomic.incr computes;
        while Atomic.get arrivals < domains do
          Domain.cpu_relax ()
        done;
        42)
  in
  let ds = List.init (domains - 1) (fun _ -> Domain.spawn body) in
  let mine = body () in
  let vals = mine :: List.map Domain.join ds in
  Alcotest.(check (list int))
    "every domain sees the one computed value"
    (List.init domains (fun _ -> 42))
    vals;
  Alcotest.(check int) "the thunk ran exactly once" 1 (Atomic.get computes);
  let s = stat_of "test.hammer" in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "seven hits" (domains - 1) s.Cache.hits;
  Alcotest.(check bool)
    "waits within [0, 7]" true
    (s.Cache.single_flight_waits >= 0
    && s.Cache.single_flight_waits <= domains - 1);
  Alcotest.(check int) "first-contact hits are all L2" 0 s.Cache.l1_hits

(* A clear while another domain computes a cell drops the entry: the
   computation still returns to its caller and to the reader already
   waiting on it, but the next lookup after the clear computes afresh
   instead of being served the pre-clear value. *)
let test_clear_during_compute () =
  with_cache_enabled true @@ fun () ->
  Cache.clear ();
  Cache.reset_stats ();
  let b = isolated 1 in
  let started = Atomic.make false and release = Atomic.make false in
  let latched () =
    Cache.get race_slot b (fun () ->
        Atomic.set started true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        1)
  in
  let computer = Domain.spawn latched in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let waiter = Domain.spawn latched in
  while (stat_of "test.race").Cache.single_flight_waits < 1 do
    Domain.cpu_relax ()
  done;
  Cache.clear ();
  Atomic.set release true;
  Alcotest.(check int) "the racing computation returns its value" 1
    (Domain.join computer);
  Alcotest.(check int) "and wakes its waiter" 1 (Domain.join waiter);
  Alcotest.(check int) "the next lookup after the clear recomputes" 2
    (Cache.get race_slot b (fun () -> 2));
  let s = stat_of "test.race" in
  Alcotest.(check int) "two misses" 2 s.Cache.misses;
  Alcotest.(check int) "one hit (the waiter)" 1 s.Cache.hits

(* ---------- L1 coherence across domains ---------- *)

let test_l1_coherence () =
  (* a value computed by one domain must be observed — never recomputed —
     by another, and each domain's repeat lookups must stay in its own
     L1. Every count below is deterministic:
       caller: compute (miss)            -> misses = 1
       worker: lookup 1 = L2 hit -> L1
               lookups 2,3 = L1 hits     -> hits += 3, l1 += 2
       caller: lookup    = L1 hit        -> hits += 1, l1 += 1 *)
  with_cache_enabled true @@ fun () ->
  Cache.clear ();
  Cache.reset_stats ();
  let shared = isolated 1 in
  let computes = Atomic.make 0 in
  let get () =
    Cache.get l1_slot shared (fun () ->
        Atomic.incr computes;
        1729)
  in
  Alcotest.(check int) "caller computes" 1729 (get ());
  let worker = Domain.spawn (fun () -> (get (), get (), get ())) in
  let a, b, c = Domain.join worker in
  Alcotest.(check (list int))
    "other domain observes the published value"
    [ 1729; 1729; 1729 ] [ a; b; c ];
  Alcotest.(check int) "caller L1 still warm" 1729 (get ());
  Alcotest.(check int) "the thunk ran exactly once" 1 (Atomic.get computes);
  let s = stat_of "test.l1" in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "four hits" 4 s.Cache.hits;
  Alcotest.(check int) "three from L1s (pooled across domains)" 3
    s.Cache.l1_hits;
  Alcotest.(check int) "exactly one shard (L2) lookup" 1
    (s.Cache.hits - s.Cache.l1_hits);
  (* clear invalidates every L1 lazily via the global generation *)
  Cache.clear ();
  Alcotest.(check int) "recompute after clear" 1729 (get ());
  Alcotest.(check int) "clear reached the caller's L1" 2
    (Atomic.get computes)

(* ---------- differential: cached vs --no-cache sweeps ---------- *)

let small_zoo () =
  List.filter
    (fun i ->
      List.mem i.Campaign.name
        [ "C5/adjacent"; "path4/asym"; "star3/leaves"; "K4/pair" ])
    (Campaign.zoo ())

let two_strategies =
  [ ("random", Engine.Random_fair 0); ("synchronous", Engine.Synchronous) ]

(* id-free normal form: everything except wall_ns and mint ids *)
let norm (r : Campaign.record) =
  ( ( r.Campaign.inst.Campaign.name,
      r.Campaign.strategy_name,
      r.Campaign.seed ),
    ( Engine.outcome_to_string r.Campaign.outcome,
      r.Campaign.elected,
      r.Campaign.conforms,
      r.Campaign.gcd ),
    (r.Campaign.moves, r.Campaign.accesses, r.Campaign.turns) )

let strip_cache snap =
  List.filter
    (fun (name, _) -> not (String.starts_with ~prefix:"cache." name))
    snap

(* ELECT reads the classes slot per agent run; elect-cayley also reads
   the cayley.recognize and oracle.translation slots of each drawn map *)
let prop_sweep_differential =
  QCheck.Test.make ~name:"cached sweep = --no-cache sweep (-j 1/4)" ~count:3
    QCheck.(pair (int_bound 1_000) (oneofl [ 1; 4 ]))
    (fun (seed, jobs) ->
      let seeds = [ seed; seed + 1 ] in
      List.for_all
        (fun proto ->
          let go () =
            Campaign.sweep ~seeds ~strategies:two_strategies ~jobs
              ~expected:Campaign.elect_expected proto (small_zoo ())
            |> List.map norm
          in
          let cached = with_cache_enabled true go in
          let uncached = with_cache_enabled false go in
          cached = uncached)
        [ elect; Qe_elect.Elect_cayley.protocol ])

let test_observed_sweep_differential () =
  let go jobs =
    Campaign.observed_sweep ~seeds:[ 0; 1 ] ~strategies:two_strategies ~jobs
      ~expected:Campaign.elect_expected elect (small_zoo ())
  in
  List.iter
    (fun jobs ->
      let rc, oc = with_cache_enabled true (fun () -> go jobs) in
      let ru, ou = with_cache_enabled false (fun () -> go jobs) in
      Alcotest.(check bool)
        (Printf.sprintf "same records at -j %d" jobs)
        true
        (List.map norm rc = List.map norm ru);
      Alcotest.(check bool)
        (Printf.sprintf "uncached snapshots carry no cache.* (-j %d)" jobs)
        true
        (List.for_all
           (fun (_, s) -> strip_cache s = s)
           ou.Campaign.per_instance);
      (* the cached run's snapshots must be the uncached ones plus only
         cache.* counters: metric-delta replay hides the memoization *)
      Alcotest.(check bool)
        (Printf.sprintf "same per-instance snapshots modulo cache.* (-j %d)"
           jobs)
        true
        (List.map (fun (k, s) -> (k, strip_cache s)) oc.Campaign.per_instance
        = ou.Campaign.per_instance);
      Alcotest.(check bool)
        (Printf.sprintf "same merged total modulo cache.* (-j %d)" jobs)
        true
        (strip_cache oc.Campaign.total = ou.Campaign.total))
    [ 1; 4 ]

let test_chaos_differential () =
  let go () =
    let r =
      Campaign.chaos_sweep ~seeds:1 ~strategies:two_strategies ~jobs:2
        ~expected:Campaign.elect_expected elect (small_zoo ())
    in
    ( List.map
        (fun (c : Campaign.chaos_record) ->
          ( c.Campaign.c_inst.Campaign.name,
            c.Campaign.c_strategy,
            c.Campaign.c_plan_kind,
            Engine.outcome_to_string c.Campaign.c_outcome,
            c.Campaign.c_leaders,
            c.Campaign.c_turns,
            List.length c.Campaign.c_violations ))
        r.Campaign.c_records,
      r.Campaign.c_outcomes,
      r.Campaign.c_faults_fired )
  in
  let cached = with_cache_enabled true go in
  let uncached = with_cache_enabled false go in
  Alcotest.(check bool) "chaos campaign unchanged by the cache" true
    (cached = uncached)

(* ---------- satellite regressions ---------- *)

(* Oracle.predict must compute the equivalence classes exactly once —
   the classes.compute counter is bumped by Classes.compute itself and
   (on hits) replayed by the cache, so it counts logical computations
   either way *)
let classes_computes f =
  let sink = Sink.create () in
  Sink.with_ambient sink f;
  match
    Metrics.find (Metrics.snapshot sink.Sink.metrics) "classes.compute"
  with
  | Some (Metrics.Counter n) -> n
  | _ -> 0

let test_predict_computes_classes_once () =
  let b = Bicolored.make (Families.wheel 6) ~black:[ 0; 2; 4 ] in
  with_cache_enabled false (fun () ->
      Alcotest.(check int) "uncached predict: one classes.compute" 1
        (classes_computes (fun () -> ignore (Oracle.predict b))));
  with_cache_enabled true (fun () ->
      Cache.clear ();
      Alcotest.(check int) "cold predict: one classes.compute" 1
        (classes_computes (fun () -> ignore (Oracle.predict b)));
      Alcotest.(check int) "warm predict replays the same single count" 1
        (classes_computes (fun () -> ignore (Oracle.predict b))))

let test_plan_node_class () =
  List.iter
    (fun (i : Campaign.instance) ->
      let b = Campaign.bicolored i in
      let plan = Elect.make_plan b in
      let n = Graph.n i.Campaign.graph in
      Alcotest.(check int)
        (i.Campaign.name ^ ": node_class covers every node")
        n
        (Array.length plan.Elect.node_class);
      Array.iteri
        (fun u c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: node %d in classes.(%d)" i.Campaign.name u c)
            true
            (List.mem u (List.nth plan.Elect.classes c)))
        plan.Elect.node_class)
    (small_zoo ())

(* Switching canonicalization backends mid-process must never serve a
   cached artifact computed under the other backend: every entry is
   keyed by the backend as well as the instance, so the first lookup
   under each backend is a miss, later ones hit that backend's own entry
   (the values stay equal: the kernels agree), and a slot whose value
   names the backend that computed it never sees the other's. *)
let test_backend_switch_invalidates () =
  let module Backend = Qe_symmetry.Canon_backend in
  let b = c6_antipodal () in
  let misses () = (stat_of "certificate").Cache.misses in
  let computed_under () = Cache.get backend_slot b Backend.tag in
  with_cache_enabled true (fun () ->
      Backend.with_backend Backend.Ocaml (fun () ->
          Cache.clear ();
          Cache.reset_stats ();
          let fp_ml = Cache.fingerprint b in
          Alcotest.(check int) "cold ocaml fingerprint: one miss" 1 (misses ());
          let fp_c =
            Backend.with_backend Backend.C (fun () -> Cache.fingerprint b)
          in
          Alcotest.(check string) "backends agree on the fingerprint" fp_ml
            fp_c;
          Alcotest.(check int)
            "switch recomputes instead of serving the ocaml entry" 2
            (misses ());
          let fp_ml' = Cache.fingerprint b in
          Alcotest.(check string) "ocaml entry unchanged" fp_ml fp_ml';
          Alcotest.(check int) "back under ocaml, the ocaml entry is served" 2
            (misses ());
          Alcotest.(check string) "under c, only the c entry is served" fp_c
            (Backend.with_backend Backend.C (fun () -> Cache.fingerprint b));
          Alcotest.(check int) "no further miss" 2 (misses ());
          Alcotest.(check (list string)) "no value crosses backends"
            [ "ocaml"; "c"; "ocaml"; "c" ]
            (List.map
               (fun id -> Backend.with_backend id computed_under)
               [ Backend.Ocaml; Backend.C; Backend.Ocaml; Backend.C ])))

let () =
  Alcotest.run "cache"
    [
      ( "keys",
        [
          Alcotest.test_case "exact vs fingerprint" `Quick test_keys;
          QCheck_alcotest.to_alcotest prop_key_equality_is_exact_key_equality;
          Alcotest.test_case "digest collision" `Quick test_digest_collision;
          Alcotest.test_case "predict derives one digest" `Quick
            test_predict_derives_digest_once;
          Alcotest.test_case "clear releases the instance" `Quick
            test_clear_releases_instance;
        ] );
      ( "memo",
        [
          Alcotest.test_case "basics + stats" `Quick test_slot_basics;
          Alcotest.test_case "disabled bypass" `Quick test_disabled_bypasses;
          Alcotest.test_case "exception caching" `Quick test_exception_caching;
          Alcotest.test_case "single-flight hammer (8 domains)" `Quick
            test_single_flight_hammer;
          Alcotest.test_case "L1 coherence across domains" `Quick
            test_l1_coherence;
          Alcotest.test_case "clear during a computation" `Quick
            test_clear_during_compute;
          Alcotest.test_case "warm accessors: one lookup" `Quick
            test_warm_accessors_one_lookup;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_sweep_differential;
          Alcotest.test_case "observed_sweep modulo cache.*" `Quick
            test_observed_sweep_differential;
          Alcotest.test_case "chaos_sweep" `Quick test_chaos_differential;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "predict computes classes once" `Quick
            test_predict_computes_classes_once;
          Alcotest.test_case "backend switch invalidates" `Quick
            test_backend_switch_invalidates;
          Alcotest.test_case "plan node_class index" `Quick
            test_plan_node_class;
        ] );
    ]

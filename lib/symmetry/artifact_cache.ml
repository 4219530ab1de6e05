module Metrics = Qe_obs.Metrics
module Sink = Qe_obs.Sink
module Span = Qe_obs.Span
module Export = Qe_obs.Export
module Clock = Qe_obs.Clock
module J = Qe_obs.Jsonl

(* ---------- global switch ---------- *)

let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* ---------- sink plumbing ---------- *)

let bump name =
  match Sink.ambient () with
  | None -> ()
  | Some s -> Metrics.incr (Metrics.counter s.Sink.metrics name)

let replay delta =
  if delta <> [] then
    match Sink.ambient () with
    | None -> ()
    | Some s -> Metrics.apply s.Sink.metrics delta

(* Stored deltas must never carry cache counters: a nested memo records
   its own cache.hit/miss into the outer computation's scratch sink, and
   replaying those on every outer hit would double-count them. *)
let strip_cache snap =
  List.filter
    (fun (name, _) -> not (String.starts_with ~prefix:"cache." name))
    snap

(* ---------- domain-private latency tallies ---------- *)

(* Hit latencies are tallied whether or not a sink is installed, so
   `--stats` and the scrape endpoint can quote quantiles for any run.
   Like the L1 hit cells, each domain owns a private tally (plain
   mutable fields, no sharing on the hot path); stats pool them with
   the same tolerance for racy reads as every other cache counter. *)
type lhist = {
  lh_counts : int array;  (* length = |latency_buckets| + 1 *)
  mutable lh_sum : int;
  mutable lh_count : int;
  mutable lh_lo : int;
  mutable lh_hi : int;
}

let lhist () =
  {
    lh_counts = Array.make (Array.length Metrics.latency_buckets + 1) 0;
    lh_sum = 0;
    lh_count = 0;
    lh_lo = 0;
    lh_hi = 0;
  }

let lh_observe lh v =
  let bounds = Metrics.latency_buckets in
  let nb = Array.length bounds in
  let idx =
    if v > bounds.(nb - 1) then nb
    else begin
      let lo = ref 0 and hi = ref (nb - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if bounds.(mid) < v then lo := mid + 1 else hi := mid
      done;
      !lo
    end
  in
  lh.lh_counts.(idx) <- lh.lh_counts.(idx) + 1;
  lh.lh_sum <- lh.lh_sum + v;
  if lh.lh_count = 0 then begin
    lh.lh_lo <- v;
    lh.lh_hi <- v
  end
  else begin
    if v < lh.lh_lo then lh.lh_lo <- v;
    if v > lh.lh_hi then lh.lh_hi <- v
  end;
  lh.lh_count <- lh.lh_count + 1

let lh_reset lh =
  Array.fill lh.lh_counts 0 (Array.length lh.lh_counts) 0;
  lh.lh_sum <- 0;
  lh.lh_count <- 0;
  lh.lh_lo <- 0;
  lh.lh_hi <- 0

let lh_sample lh =
  Metrics.Hist
    {
      bounds = Array.copy Metrics.latency_buckets;
      counts = Array.copy lh.lh_counts;
      sum = lh.lh_sum;
      count = lh.lh_count;
      lo = lh.lh_lo;
      hi = lh.lh_hi;
    }

(* pooled read across domains' private tallies *)
let lh_pool samples =
  List.fold_left
    (fun acc lh -> Metrics.merge acc [ ("h", lh_sample lh) ])
    [ ("h", lh_sample (lhist ())) ]
    samples
  |> fun merged ->
  match merged with [ (_, s) ] -> s | _ -> assert false

(* ---------- instance keys ---------- *)

module Graph = Qe_graph.Graph
module Bicolored = Qe_graph.Bicolored
module Csr = Qe_graph.Csr

(* A key names what a table entry is a function of: a string (the
   generic [memo]), a bicolored instance, or a bare graph. Instances and
   graphs are held by reference — the entry keeps them alive until
   [clear] — and compared exactly; the digest only picks the bucket.
   [scope] is [Canon_backend.tag ()] for canon-derived tables, [""]
   elsewhere. *)
type subject = Named of string | Instance of Bicolored.t | Structure of Graph.t
type key = { digest : int; scope : string; subject : subject }

(* 63-bit finalizer (xorshift-multiply, splitmix64 shape). *)
let mix x =
  let x = (x lxor (x lsr 31)) * 0x2545F4914F6CDD1D in
  let x = (x lxor (x lsr 29)) * 0x1D8E4E27C47D124F in
  x lxor (x lsr 32)

(* Order-independent digest of (n, multiset of darts u -> dst): a sum of
   mixed dart codes, so neither port order nor edge order moves it.
   One pass over the CSR, no allocation. *)
let dart_digest (c : Csr.t) =
  let n = c.Csr.n and off = c.Csr.off and dst = c.Csr.dst in
  let acc = ref (mix n) in
  for u = 0 to n - 1 do
    let base = (u * n) + 1 in
    for a = off.(u) to off.(u + 1) - 1 do
      acc := !acc + mix (base + dst.(a))
    done
  done;
  mix !acc

let graph_digest g =
  match Graph.key_digest g with
  | Some d -> d
  | None ->
      let d = dart_digest (Graph.csr g) in
      Graph.set_key_digest g d;
      d

let derivations = Atomic.make 0
let key_derivations () = Atomic.get derivations

let instance_digest b =
  match Bicolored.key_digest b with
  | Some d -> d
  | None ->
      Atomic.incr derivations;
      let g = Bicolored.graph b in
      let mask = ref 0 in
      for u = 0 to Graph.n g - 1 do
        if Bicolored.is_black b u then mask := !mask + mix (lnot u)
      done;
      let d = mix (graph_digest g + mix !mask) in
      Bicolored.set_key_digest b d;
      d

(* Per-domain counting scratch for the multiset comparison; all zeros
   between uses. *)
let scratch : int array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

(* Does node [u] carry the same multiset of dart targets in both CSRs?
   Degrees are already known equal. Identical slices answer at once;
   otherwise count [a]'s targets up and [b]'s down — with equal sizes,
   no count below zero means all counts are zero. *)
let same_targets (a : Csr.t) (b : Csr.t) u =
  let lo = a.Csr.off.(u) and hi = a.Csr.off.(u + 1) in
  let da = a.Csr.dst and db = b.Csr.dst in
  let i = ref lo in
  while !i < hi && da.(!i) = db.(!i) do incr i done;
  !i >= hi
  ||
  let cell = Domain.DLS.get scratch in
  if Array.length !cell < a.Csr.n then cell := Array.make a.Csr.n 0;
  let cnt = !cell in
  for j = lo to hi - 1 do
    cnt.(da.(j)) <- cnt.(da.(j)) + 1
  done;
  let ok = ref true in
  for j = lo to hi - 1 do
    let d = db.(j) in
    cnt.(d) <- cnt.(d) - 1;
    if cnt.(d) < 0 then ok := false
  done;
  for j = lo to hi - 1 do
    cnt.(da.(j)) <- 0;
    cnt.(db.(j)) <- 0
  done;
  !ok

(* Exactly the equality of [Cdigraph.certificate_of_identity] on the
   arc part: same n and, node by node, the same multiset of darts. *)
let same_darts (a : Csr.t) (b : Csr.t) =
  a == b
  || a.Csr.n = b.Csr.n
     &&
     let n = a.Csr.n in
     let u = ref 0 in
     while !u <= n && a.Csr.off.(!u) = b.Csr.off.(!u) do incr u done;
     !u > n
     &&
     let u = ref 0 in
     while !u < n && same_targets a b !u do incr u done;
     !u >= n

let same_mask x y =
  let n = Graph.n (Bicolored.graph x) in
  Graph.n (Bicolored.graph y) = n
  &&
  let u = ref 0 in
  while !u < n && Bicolored.is_black x !u = Bicolored.is_black y !u do
    incr u
  done;
  !u >= n

let same_graph x y = x == y || same_darts (Graph.csr x) (Graph.csr y)

let same_subject a b =
  match (a, b) with
  | Named x, Named y -> String.equal x y
  | Instance x, Instance y ->
      x == y
      || same_mask x y && same_graph (Bicolored.graph x) (Bicolored.graph y)
  | Structure x, Structure y -> same_graph x y
  | _ -> false

module Keyed = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.digest = b.digest && String.equal a.scope b.scope
    && same_subject a.subject b.subject

  let hash k = k.digest land max_int
end)

let named s = { digest = Hashtbl.hash s; scope = ""; subject = Named s }

let instance_key ?(scope = "") b =
  { digest = instance_digest b; scope; subject = Instance b }

let structure_key g =
  { digest = graph_digest g; scope = ""; subject = Structure g }

(* ---------- sharded single-flight tables ---------- *)

let num_shards = 32 (* power of two: shard = hash land (num_shards - 1) *)

(* Bumped by [clear]; every per-domain L1 checks it on entry and flushes
   lazily on mismatch, so [clear] never has to reach into other domains'
   local state. *)
let generation = Atomic.make 0

type 'a entry =
  | Ready of ('a, exn) result * Metrics.snapshot
      (** value (or deterministic failure) + the kernel-metric delta its
          computation recorded, replayed on every lookup *)
  | In_flight of flight

and flight = {
  fl_m : Mutex.t;
  fl_cv : Condition.t;
  mutable fl_done : bool;
}

type 'a shard = { m : Mutex.t; tbl : 'a entry Keyed.t }

(* Domain-local first level: a plain hashtable of settled entries, no
   mutex anywhere on its path. Populated from L2 hits and own computes;
   never holds an In_flight. [l1_hits] is this domain's private cell,
   registered in the owning table so stats can pool across domains
   without putting a shared counter on the hot path. *)
type 'a l1 = {
  mutable l1_gen : int;
  l1_tbl : (('a, exn) result * Metrics.snapshot) Keyed.t;
  l1_hits : int Atomic.t;
  l1_lat : lhist;  (* this domain's L1 hit latencies *)
  l2_lat : lhist;  (* this domain's L2 hit latencies (incl. waits) *)
}

type 'a table = {
  kind : string;
  shards : 'a shard array;
  hits : int Atomic.t;  (* L2 hits only; stats add the pooled L1 cells *)
  misses : int Atomic.t;
  waits : int Atomic.t;
  l1_key : 'a l1 Domain.DLS.key;
  l1_cells : (int Atomic.t * lhist * lhist) list ref;
      (* one triple (hit cell, L1 tally, L2 tally) per domain *)
  l1_cells_m : Mutex.t;
}

type stat = {
  kind : string;
  hits : int;
  l1_hits : int;
  misses : int;
  single_flight_waits : int;
  l1_latency : Metrics.sample;
  l2_latency : Metrics.sample;
}

(* Registry of every table, type-erased to the operations clear/stats/
   reset need. Guarded by its own mutex: tables are created at
   module-init time, but [clear]/[stats] may race with domain spawn. *)
type reg_entry = {
  r_kind : string;
  r_clear : unit -> unit;
  r_stat : unit -> stat;
  r_reset : unit -> unit;
}

let registry : reg_entry list ref = ref []
let registry_m = Mutex.create ()

let create_table ~kind () =
  let l1_cells = ref [] in
  let l1_cells_m = Mutex.create () in
  let l1_key =
    (* runs on a domain's first lookup in this table: fresh local
       hashtable, hit cell registered for pooled stats (cells of dead
       domains stay registered — their hits remain part of the
       process-global story, like every other cache counter) *)
    Domain.DLS.new_key (fun () ->
        let cell = Atomic.make 0 in
        let l1_lat = lhist () and l2_lat = lhist () in
        Mutex.lock l1_cells_m;
        l1_cells := (cell, l1_lat, l2_lat) :: !l1_cells;
        Mutex.unlock l1_cells_m;
        { l1_gen = -1; l1_tbl = Keyed.create 64; l1_hits = cell;
          l1_lat; l2_lat })
  in
  let t =
    {
      kind;
      shards =
        Array.init num_shards (fun _ ->
            { m = Mutex.create (); tbl = Keyed.create 16 });
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      waits = Atomic.make 0;
      l1_key;
      l1_cells;
      l1_cells_m;
    }
  in
  let clear_t () =
    Array.iter
      (fun s ->
        Mutex.lock s.m;
        (* drop only settled entries: a racing computer will still
           publish its Ready over the In_flight it owns *)
        Keyed.filter_map_inplace
          (fun _ e -> match e with Ready _ -> None | In_flight _ -> Some e)
          s.tbl;
        Mutex.unlock s.m)
      t.shards;
    (* the calling domain's L1 is emptied now rather than on its next
       lookup, so a cleared cache keeps no instance reachable from it *)
    Keyed.reset (Domain.DLS.get t.l1_key).l1_tbl
  in
  let cells () =
    Mutex.lock t.l1_cells_m;
    let cs = !(t.l1_cells) in
    Mutex.unlock t.l1_cells_m;
    cs
  in
  let stat_t () =
    let cs = cells () in
    let l1 = List.fold_left (fun acc (c, _, _) -> acc + Atomic.get c) 0 cs in
    {
      kind = t.kind;
      hits = Atomic.get t.hits + l1;
      l1_hits = l1;
      misses = Atomic.get t.misses;
      single_flight_waits = Atomic.get t.waits;
      l1_latency = lh_pool (List.map (fun (_, a, _) -> a) cs);
      l2_latency = lh_pool (List.map (fun (_, _, b) -> b) cs);
    }
  in
  let reset_t () =
    Atomic.set t.hits 0;
    Atomic.set t.misses 0;
    Atomic.set t.waits 0;
    List.iter
      (fun (c, a, b) ->
        Atomic.set c 0;
        lh_reset a;
        lh_reset b)
      (cells ())
  in
  Mutex.lock registry_m;
  let dup = List.exists (fun e -> e.r_kind = kind) !registry in
  if dup then begin
    Mutex.unlock registry_m;
    invalid_arg ("Artifact_cache.create_table: duplicate kind " ^ kind)
  end;
  registry :=
    { r_kind = kind; r_clear = clear_t; r_stat = stat_t; r_reset = reset_t }
    :: !registry;
  Mutex.unlock registry_m;
  t

let with_registry f =
  Mutex.lock registry_m;
  let entries = !registry in
  Mutex.unlock registry_m;
  f entries

let clear () =
  with_registry (List.iter (fun e -> e.r_clear ()));
  (* other domains' L1s flush themselves on their next lookup *)
  Atomic.incr generation
let reset_stats () = with_registry (List.iter (fun e -> e.r_reset ()))

let stats () =
  with_registry (List.map (fun e -> e.r_stat ()))
  |> List.sort (fun a b -> String.compare a.kind b.kind)

let hit_rate rows =
  let h = List.fold_left (fun a r -> a + r.hits) 0 rows in
  let m = List.fold_left (fun a r -> a + r.misses) 0 rows in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let metrics_snapshot () =
  let rows = stats () in
  let waits =
    List.fold_left (fun a r -> a + r.single_flight_waits) 0 rows
  in
  List.concat_map
    (fun r ->
      [
        ("cache.hit." ^ r.kind, Metrics.Counter r.hits);
        ("cache.l1.hit." ^ r.kind, Metrics.Counter r.l1_hits);
        ("cache.miss." ^ r.kind, Metrics.Counter r.misses);
        ("cache." ^ r.kind ^ ".l1.hit_latency", r.l1_latency);
        ("cache." ^ r.kind ^ ".l2.hit_latency", r.l2_latency);
      ])
    rows
  @ [ ("cache.single_flight_wait", Metrics.Counter waits) ]
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let publish shard key fl res delta =
  Mutex.lock shard.m;
  Keyed.replace shard.tbl key (Ready (res, delta));
  Mutex.unlock shard.m;
  Mutex.lock fl.fl_m;
  fl.fl_done <- true;
  Condition.broadcast fl.fl_cv;
  Mutex.unlock fl.fl_m

(* L1/L2 hits become timestamped trace events only when the sink opted
   in (run --trace-out): they carry wall-clock attrs and no sequence
   number, so determinism-checked streams must not see them. *)
let hit_event kind level t_ns =
  match Sink.ambient () with
  | Some s when s.Sink.cache_events && s.Sink.on_line <> None ->
      Sink.emit s
        (Export.Event
           {
             seq = 0;
             name = "cache." ^ level ^ ".hit";
             attrs = [ ("kind", J.String kind); ("t_ns", J.Int t_ns) ];
           })
  | _ -> ()

(* [derive] builds the key inside the timed region, so hit latencies
   include the key's cost. *)
let memo_by t derive compute =
  if not (enabled ()) then compute ()
  else begin
    let t0 = Clock.now_ns () in
    let key = derive () in
    (* L1: this domain's private table — no lock, no shared write on a
       hit beyond the domain's own stat cell. The warm path of a sweep
       lives entirely here. *)
    let l1 = Domain.DLS.get t.l1_key in
    let gen = Atomic.get generation in
    if l1.l1_gen <> gen then begin
      Keyed.reset l1.l1_tbl;
      l1.l1_gen <- gen
    end;
    match Keyed.find_opt l1.l1_tbl key with
    | Some (res, delta) ->
        Atomic.incr l1.l1_hits;
        bump ("cache.hit." ^ t.kind);
        bump ("cache.l1.hit." ^ t.kind);
        replay delta;
        lh_observe l1.l1_lat (Clock.now_ns () - t0);
        hit_event t.kind "l1" t0;
        (match res with Ok v -> v | Error e -> raise e)
    | None ->
        (* L2: shared shards, single-flight on a genuine cold miss. Any
           settled entry found here is copied into the L1 so this domain
           never takes the shard lock for this key again. *)
        let shard = t.shards.(key.digest land (num_shards - 1)) in
        let rec lookup () =
          Mutex.lock shard.m;
          match Keyed.find_opt shard.tbl key with
          | Some (Ready (res, delta)) ->
              Mutex.unlock shard.m;
              Keyed.replace l1.l1_tbl key (res, delta);
              Atomic.incr t.hits;
              bump ("cache.hit." ^ t.kind);
              replay delta;
              (* includes any single-flight wait this lookup sat through *)
              lh_observe l1.l2_lat (Clock.now_ns () - t0);
              hit_event t.kind "l2" t0;
              (match res with Ok v -> v | Error e -> raise e)
          | Some (In_flight fl) ->
              Mutex.unlock shard.m;
              Atomic.incr t.waits;
              bump "cache.single_flight_wait";
              let wait () =
                Mutex.lock fl.fl_m;
                while not fl.fl_done do
                  Condition.wait fl.fl_cv fl.fl_m
                done;
                Mutex.unlock fl.fl_m
              in
              (match Sink.ambient () with
              | None -> wait ()
              | Some s ->
                  let w0 = Clock.now_ns () in
                  Span.with_span
                    ~attrs:[ ("kind", J.String t.kind) ]
                    s.Sink.spans "cache.wait" wait;
                  Metrics.observe
                    (Metrics.latency s.Sink.metrics "cache.wait_latency")
                    (Clock.now_ns () - w0));
              lookup ()
          | None ->
              let fl =
                { fl_m = Mutex.create (); fl_cv = Condition.create ();
                  fl_done = false }
              in
              Keyed.replace shard.tbl key (In_flight fl);
              Mutex.unlock shard.m;
              Atomic.incr t.misses;
              bump ("cache.miss." ^ t.kind);
              (* compute under a scratch sink so the kernel delta can be
                 stored and replayed on every future hit — metric
                 placement is then identical to the uncached
                 computation *)
              let scratch = Sink.create () in
              let res =
                match Sink.with_ambient scratch compute with
                | v -> Ok v
                | exception e -> Error e
              in
              let delta =
                strip_cache (Metrics.snapshot scratch.Sink.metrics)
              in
              publish shard key fl res delta;
              Keyed.replace l1.l1_tbl key (res, delta);
              replay delta;
              (match res with Ok v -> v | Error e -> raise e)
        in
        lookup ()
  end

let memo t ~key compute = memo_by t (fun () -> named key) compute
let memo_instance t b compute = memo_by t (fun () -> instance_key b) compute
let memo_graph t g compute = memo_by t (fun () -> structure_key g) compute

(* ---------- keys and cached artifacts ---------- *)

(* Slow reference: instance keys are equal exactly when these
   certificate strings are, which the tests check. *)
let exact_key b = Cdigraph.certificate_of_identity (Cdigraph.of_bicolored b)
let graph_key g = Cdigraph.certificate_of_identity (Cdigraph.of_graph g)

(* Canon-derived artifacts are additionally scoped by the selected
   canonicalization backend: the values are supposed to be
   backend-independent (selftest's whole job is proving that), but the
   cache must never be the thing hiding a divergence. Belt and braces:
   scoped keys here, plus a [clear] hook on every backend switch (below)
   for the downstream tables — oracle verdicts, ELECT plans — keyed on
   the bare instance. *)
let memo_scoped t b compute =
  memo_by t (fun () -> instance_key ~scope:(Canon_backend.tag ()) b) compute

let () = Canon_backend.on_switch clear

let classes_tbl : Classes.t table = create_table ~kind:"classes" ()
let fingerprint_tbl : string table = create_table ~kind:"certificate" ()

let classes b =
  memo_scoped classes_tbl b (fun () -> Classes.compute b)

let fingerprint_uncached b =
  let r = Canon.run (Cdigraph.of_bicolored b) in
  (* black-node orbit signature: sorted sizes of the orbits that
     contain home-bases, an isomorphism invariant of the placement *)
  let reps =
    List.sort_uniq compare
      (List.map (fun u -> r.Canon.orbits.(u)) (Qe_graph.Bicolored.blacks b))
  in
  let size_of rep =
    let n = Array.length r.Canon.orbits in
    let c = ref 0 in
    for u = 0 to n - 1 do
      if r.Canon.orbits.(u) = rep then incr c
    done;
    !c
  in
  let sig_ = List.sort compare (List.map size_of reps) in
  r.Canon.certificate ^ "#black-orbits:"
  ^ String.concat "," (List.map string_of_int sig_)

let fingerprint b =
  memo_scoped fingerprint_tbl b (fun () -> fingerprint_uncached b)

module For_testing = struct
  let with_digest d b =
    let b' = Bicolored.make (Bicolored.graph b) ~black:(Bicolored.blacks b) in
    Bicolored.set_key_digest b' d;
    b'
end

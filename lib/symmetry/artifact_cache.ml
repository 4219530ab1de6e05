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

(* Both take the ambient sink, read once per lookup. *)
let bump sink name =
  match sink with
  | None -> ()
  | Some s -> Metrics.incr (Metrics.counter s.Sink.metrics name)

let replay sink delta =
  match sink with
  | Some s when delta <> [] -> Metrics.apply s.Sink.metrics delta
  | _ -> ()

(* Stored deltas must never carry cache counters: a nested memo records
   its own cache.hit/miss into the outer computation's scratch sink, and
   replaying those on every outer hit would double-count them. *)
let strip_cache snap =
  List.filter
    (fun (name, _) -> not (String.starts_with ~prefix:"cache." name))
    snap

(* ---------- instance keys ---------- *)

module Graph = Qe_graph.Graph
module Bicolored = Qe_graph.Bicolored
module Csr = Qe_graph.Csr

(* An entry is a function of the instance and of the canonicalization
   backend that computes its canon-derived artifacts. The values are
   supposed to be backend-independent (selftest's whole job is proving
   that), but the cache must never be the thing hiding a divergence, so
   every entry is scoped by the backend. The instance is held by
   reference — the entry keeps it alive until [clear] — and compared
   exactly; the digest only picks the bucket. *)
type key = { digest : int; backend : Canon_backend.id; inst : Bicolored.t }

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

(* The dart part is parked on the graph, so the placements of one graph
   share it. *)
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

let same_instance x y =
  x == y
  || same_mask x y
     &&
     let g = Bicolored.graph x and h = Bicolored.graph y in
     g == h || same_darts (Graph.csr g) (Graph.csr h)

module Keyed = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.digest = b.digest && a.backend = b.backend && same_instance a.inst b.inst

  let hash k = k.digest land max_int
end)

(* ---------- slots ---------- *)

(* A slot's process-global counters and the names of its counters and
   histograms, built once here rather than on every lookup. *)
type counters = {
  c_kind : string;
  c_hit : string;
  c_l1_hit : string;
  c_miss : string;
  c_l1_lat : string;
  c_l2_lat : string;
  c_misses : int Atomic.t;
  c_waits : int Atomic.t;
}

type 'a slot = {
  id : 'a Type.Id.t;
  index : int;  (* the slot's cell in every entry *)
  c : counters;
}

(* Slots, newest first, and the registries of every domain that ever
   looked anything up (those of dead domains stay registered — their
   hits remain part of the process-global story). The first L1 (made by
   a domain's first [get] or [clear]) freezes the slot list: entries and
   L1s are sized by it. *)
let registry : counters list ref = ref []
let domain_regs : Metrics.registry list ref = ref []
let frozen = ref false
let registry_m = Mutex.create ()

let slot ~kind =
  Mutex.lock registry_m;
  let problem =
    if List.exists (fun c -> c.c_kind = kind) !registry then
      Some "duplicate kind "
    else if !frozen then Some "registered after the cache was used: "
    else None
  in
  let index = List.length !registry in
  let c =
    {
      c_kind = kind;
      c_hit = "cache.hit." ^ kind;
      c_l1_hit = "cache.l1.hit." ^ kind;
      c_miss = "cache.miss." ^ kind;
      c_l1_lat = "cache." ^ kind ^ ".l1.hit_latency";
      c_l2_lat = "cache." ^ kind ^ ".l2.hit_latency";
      c_misses = Atomic.make 0;
      c_waits = Atomic.make 0;
    }
  in
  if problem = None then registry := c :: !registry;
  Mutex.unlock registry_m;
  match problem with
  | Some p -> invalid_arg ("Artifact_cache.slot: " ^ p ^ kind)
  | None -> { id = Type.Id.make (); index; c }

(* ---------- entries, the shared L2 and the per-domain L1 ---------- *)

let num_shards = 32 (* power of two: shard = hash land (num_shards - 1) *)

(* Bumped by [clear]; every per-domain L1 checks it on entry and flushes
   lazily on mismatch, so [clear] never has to reach into other domains'
   local state. *)
let generation = Atomic.make 0

(* One lazily filled cell per slot. A settled cell holds the value (or
   deterministic failure) with the kernel-metric delta its computation
   recorded, replayed on every read, tagged with its slot's type
   witness. *)
type cell =
  | Empty
  | Computing of flight
  | Ready : 'a Type.Id.t * ('a, exn) result * Metrics.snapshot -> cell

and flight = { fl_m : Mutex.t; fl_cv : Condition.t; mutable fl_done : bool }

type entry = cell Atomic.t array

(* Creating an entry costs nothing, so a shard is a plain find-or-add
   under its lock; single-flight lives in the cells. *)
type shard = { m : Mutex.t; tbl : entry Keyed.t }

let shards =
  Array.init num_shards (fun _ ->
      { m = Mutex.create (); tbl = Keyed.create 16 })

(* Domain-local first level: key -> entry, no mutex anywhere on its path.
   Populated on the way out of L2. Every hit lands one sample in the
   per-slot latency histogram of its level, which is therefore also the
   hit count. The histograms live in a private registry, so the L1 path
   stays free of shared writes; stats merge the registries with the same
   tolerance for racy reads as every other cache counter. *)
type l1 = {
  mutable gen : int;
  tbl : entry Keyed.t;
  l1_lat : Metrics.histogram array;  (* by slot index *)
  l2_lat : Metrics.histogram array;  (* includes any single-flight wait *)
}

let l1_key : l1 Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock registry_m;
      frozen := true;
      let reg = Metrics.create () in
      let hists name =
        Array.of_list
          (List.rev_map (fun c -> Metrics.latency reg (name c)) !registry)
      in
      let l1_lat = hists (fun c -> c.c_l1_lat)
      and l2_lat = hists (fun c -> c.c_l2_lat) in
      domain_regs := reg :: !domain_regs;
      Mutex.unlock registry_m;
      { gen = -1; tbl = Keyed.create 64; l1_lat; l2_lat })

let clear () =
  Array.iter
    (fun s ->
      Mutex.lock s.m;
      Keyed.reset s.tbl;
      Mutex.unlock s.m)
    shards;
  (* the calling domain's L1 is emptied now rather than on its next
     lookup, so a cleared cache keeps no instance reachable from it;
     other domains' L1s flush themselves on their next lookup *)
  Keyed.reset (Domain.DLS.get l1_key).tbl;
  Atomic.incr generation

(* ---------- statistics ---------- *)

type stat = {
  kind : string;
  hits : int;
  l1_hits : int;
  misses : int;
  single_flight_waits : int;
  l1_latency : Metrics.sample;
  l2_latency : Metrics.sample;
}

let with_registry f =
  Mutex.lock registry_m;
  let slots = !registry and regs = !domain_regs in
  Mutex.unlock registry_m;
  f slots regs

let no_latency =
  Metrics.Hist
    {
      bounds = Metrics.latency_buckets;
      counts = Array.make (Array.length Metrics.latency_buckets + 1) 0;
      sum = 0;
      count = 0;
      lo = 0;
      hi = 0;
    }

let stats () =
  with_registry (fun slots regs ->
      let snap =
        List.fold_left
          (fun acc r -> Metrics.merge acc (Metrics.snapshot r))
          [] regs
      in
      let hist name =
        Option.value (Metrics.find snap name) ~default:no_latency
      in
      let count = function Metrics.Hist h -> h.count | _ -> 0 in
      List.map
        (fun c ->
          let l1_latency = hist c.c_l1_lat and l2_latency = hist c.c_l2_lat in
          let l1_hits = count l1_latency in
          {
            kind = c.c_kind;
            hits = l1_hits + count l2_latency;
            l1_hits;
            misses = Atomic.get c.c_misses;
            single_flight_waits = Atomic.get c.c_waits;
            l1_latency;
            l2_latency;
          })
        slots)
  |> List.sort (fun a b -> String.compare a.kind b.kind)

let reset_stats () =
  with_registry (fun slots regs ->
      List.iter
        (fun c ->
          Atomic.set c.c_misses 0;
          Atomic.set c.c_waits 0)
        slots;
      List.iter Metrics.reset regs)

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

(* ---------- lookups ---------- *)

(* L1/L2 hits become timestamped trace events only when the sink opted
   in (run --trace-out): they carry wall-clock attrs and no sequence
   number, so determinism-checked streams must not see them. *)
let hit_event sink c ~from_l1 t_ns =
  match sink with
  | Some s when s.Sink.cache_events && s.Sink.on_line <> None ->
      Sink.emit s
        (Export.Event
           {
             seq = 0;
             name = (if from_l1 then "cache.l1.hit" else "cache.l2.hit");
             attrs = [ ("kind", J.String c.c_kind); ("t_ns", J.Int t_ns) ];
           })
  | _ -> ()

let wait_for sink kind fl =
  let wait () =
    Mutex.lock fl.fl_m;
    while not fl.fl_done do
      Condition.wait fl.fl_cv fl.fl_m
    done;
    Mutex.unlock fl.fl_m
  in
  match sink with
  | None -> wait ()
  | Some s ->
      let w0 = Clock.now_ns () in
      Span.with_span ~attrs:[ ("kind", J.String kind) ] s.Sink.spans
        "cache.wait" wait;
      Metrics.observe
        (Metrics.latency s.Sink.metrics "cache.wait_latency")
        (Clock.now_ns () - w0)

let unwrap = function Ok v -> v | Error e -> raise e

(* Read [s]'s cell of entry [e]. [from_l1] says the entry came from this
   domain's L1, which makes a settled cell an L1 hit; a cell settled by a
   flight this lookup waited on is an L2 hit whose latency includes the
   wait. An empty cell is claimed by compare-and-set: the winner computes
   under a scratch sink so the kernel delta can be stored and replayed on
   every future read — metric placement is then identical to the
   uncached computation. A [clear] that races the computation drops the
   entry, so its value only reaches the readers already holding it. *)
let rec read : type a.
    a slot -> l1 -> int -> from_l1:bool -> entry -> (unit -> a) -> a =
 fun s l1 t0 ~from_l1 e compute ->
  let cell = e.(s.index) in
  match Atomic.get cell with
  | Ready (id, res, delta) -> (
      match Type.Id.provably_equal s.id id with
      | None -> invalid_arg "Artifact_cache: cell of another slot"
      | Some Type.Equal ->
          let sink = Sink.ambient () in
          if Option.is_some sink then begin
            bump sink s.c.c_hit;
            if from_l1 then bump sink s.c.c_l1_hit;
            replay sink delta
          end;
          Metrics.observe
            (if from_l1 then l1.l1_lat else l1.l2_lat).(s.index)
            (Clock.now_ns () - t0);
          hit_event sink s.c ~from_l1 t0;
          unwrap (res : (a, exn) result))
  | Computing fl ->
      let sink = Sink.ambient () in
      Atomic.incr s.c.c_waits;
      bump sink "cache.single_flight_wait";
      wait_for sink s.c.c_kind fl;
      read s l1 t0 ~from_l1:false e compute
  | Empty ->
      let fl =
        { fl_m = Mutex.create (); fl_cv = Condition.create (); fl_done = false }
      in
      if not (Atomic.compare_and_set cell Empty (Computing fl)) then
        read s l1 t0 ~from_l1 e compute
      else begin
        Atomic.incr s.c.c_misses;
        bump (Sink.ambient ()) s.c.c_miss;
        let scratch = Sink.create () in
        let res =
          match Sink.with_ambient scratch compute with
          | v -> Ok v
          | exception e -> Error e
        in
        let delta = strip_cache (Metrics.snapshot scratch.Sink.metrics) in
        Atomic.set cell (Ready (s.id, res, delta));
        Mutex.lock fl.fl_m;
        fl.fl_done <- true;
        Condition.broadcast fl.fl_cv;
        Mutex.unlock fl.fl_m;
        replay (Sink.ambient ()) delta;
        unwrap res
      end

(* One keyed lookup — this domain's L1, else the shared shard, whose
   entry is copied into the L1 on the way out — then one cell read. The
   key is built inside the timed region, so hit latencies include its
   cost. *)
let get s b compute =
  if not (enabled ()) then compute ()
  else begin
    let t0 = Clock.now_ns () in
    let key =
      {
        digest = instance_digest b;
        backend = Canon_backend.current ();
        inst = b;
      }
    in
    let l1 = Domain.DLS.get l1_key in
    let gen = Atomic.get generation in
    if l1.gen <> gen then begin
      Keyed.reset l1.tbl;
      l1.gen <- gen
    end;
    match Keyed.find l1.tbl key with
    | e -> read s l1 t0 ~from_l1:true e compute
    | exception Not_found ->
        let shard = shards.(key.digest land (num_shards - 1)) in
        Mutex.lock shard.m;
        let e =
          match Keyed.find shard.tbl key with
          | e -> e
          | exception Not_found ->
              let e =
                Array.init (Array.length l1.l1_lat) (fun _ -> Atomic.make Empty)
              in
              Keyed.add shard.tbl key e;
              e
        in
        Mutex.unlock shard.m;
        Keyed.add l1.tbl key e;
        read s l1 t0 ~from_l1:false e compute
  end

(* ---------- keys and cached artifacts ---------- *)

(* Slow reference: instance keys are equal exactly when these
   certificate strings are, which the tests check. *)
let exact_key b = Cdigraph.certificate_of_identity (Cdigraph.of_bicolored b)

let classes_slot : Classes.t slot = slot ~kind:"classes"
let fingerprint_slot : string slot = slot ~kind:"certificate"
let classes b = get classes_slot b (fun () -> Classes.compute b)

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

let fingerprint b = get fingerprint_slot b (fun () -> fingerprint_uncached b)

module For_testing = struct
  let with_digest d b =
    let b' = Bicolored.make (Bicolored.graph b) ~black:(Bicolored.blacks b) in
    Bicolored.set_key_digest b' d;
    b'
end

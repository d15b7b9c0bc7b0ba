(* Closure-threaded compiled dispatch: every packed state specialized
   into a preapplied OCaml closure that tests its successor PCs with
   straight-line compares and tail-calls the successor's closure
   directly — no slot lookup, no tier ladder, no per-step image
   indirection.

   The compiled image is a pure function of the packed image it was
   built from (any TEAPK1/2/3 layout), and replay through it is
   observationally identical to stepping the image with {!Packed.step}:
   the per-step simulated-cycle charges are captured into each closure
   at build time from the same tables the step consults (the image's
   [edge_cost]/[miss_cost], {!Packed.resolution_costs}, and the fusion
   overlay's [fecost]), so cycles stay a pure function of the replayed
   stream.

   The batch-loop state — cursor, batch bound, cycle accumulator, plus
   the two loop-invariant arrays and the replayer's rare-path record —
   is threaded through every closure as arguments
   [(r, addrs, counts, i, stop, cycles)], so the fast paths touch no
   mutable record at all. [counts] is the replayer's counter array
   ({!Packed.n_counters}): each step bumps exactly one counter — the
   edge it took, an index captured at build time, or on the hash path
   its source's hash-hit or hash-miss counter — so the dispatch tiers
   are read off the counters at report time, never counted here. The
   remaining accounting is derived:
   [total] is the batch's instruction sum (a pure prefix sum computed
   once per [run]), [covered] is [total] minus the instructions of the
   rare steps that land in NTE (accumulated in [r] only on the
   hash-miss and NTE-edge paths), and enters/exits only move on those
   same NTE boundaries. Threading keeps every per-step quantity in
   registers at the cost of one arity check per indirect jump.

   Batch bounding: every closure's first act is [i >= stop], and chain
   matchers never compare past [stop], so a run that would cross a
   batch boundary halts at it and resumes (from the carried state) on
   the next [run] — exactly the property that keeps a trace file
   streamed in batches bit-identical to one whole-array run.

   A compiled image is an immutable value: the closures capture only
   arrays that never change after the build, and everything a batch
   writes lives in the caller's [counts] and [r]. One image therefore
   serves any number of replayers, on any number of domains at once. *)

(* Rare-path accumulators and batch-return slots, one record per
   replayer; the hot paths never touch it. *)
type rare = {
  mutable ins : int array; (* read only on NTE-landing steps *)
  mutable halt : int; (* final slot, written when i >= stop *)
  mutable halt_cycles : int; (* threaded cycle sum, written at halt *)
  mutable uncovered : int; (* insns of steps that landed in NTE *)
  mutable enters : int;
  mutable exits : int;
  mutable g_hits : int;
  mutable g_miss : int;
  mutable fused_steps : int;
  mutable hprobe : Tea_telemetry.Metrics.histogram option;
}

let rare () =
  {
    ins = [||];
    halt = Automaton.nte;
    halt_cycles = 0;
    uncovered = 0;
    enters = 0;
    exits = 0;
    g_hits = 0;
    g_miss = 0;
    fused_steps = 0;
    hprobe = None;
  }

type node = rare -> int array -> int array -> int -> int -> int -> unit
(* r -> addrs -> counts -> i -> stop -> cycles *)

type t = {
  base : Packed.t;
  nodes : node array; (* one dispatch closure per slot *)
  n_closures : int;
  degree_hist : (int * int) list; (* (fan-out degree, states), sorted *)
  fallback_states : int; (* degree > scan_cap: minihash fallback *)
  chained_states : int; (* states fronted by a fused-chain matcher *)
  region_states : int; (* states compiled into the straight-line region *)
}

(* Everything one batch accumulated, as integer deltas the replayer
   folds into its own totals (the same additive algebra snapshots
   merge by). *)
type delta = {
  d_state : int;
  d_covered : int;
  d_total : int;
  d_enters : int;
  d_exits : int;
  d_g_hits : int;
  d_g_miss : int;
  d_fused_steps : int;
  d_cycles : int;
}

(* Degrees up to this are dispatched by inline compares / a short
   linear scan; beyond it a per-state open-addressing minihash keyed on
   the successor PC finds the edge in O(1) compares. The simulated
   charge is the edge's either way — the minihash is a wall-clock
   optimization, invisible to the cost model. *)
let scan_cap = 8

let base t = t.base
let n_closures t = t.n_closures
let degree_histogram t = t.degree_hist
let fallback_states t = t.fallback_states
let chained_states t = t.chained_states
let region_states t = t.region_states

let of_packed packed =
  let raw = Packed.to_raw packed in
  let offsets = raw.Packed.offsets in
  let labels = raw.Packed.labels in
  let targets = raw.Packed.targets in
  let keys = raw.Packed.hash_keys in
  let vals = raw.Packed.hash_vals in
  let mask = Array.length keys - 1 in
  let n_slots = Array.length offsets - 1 in
  let orig_of = raw.Packed.orig_of in
  (* counter indices ({!Packed.n_counters}): edges by flat-layout id,
     then hash hits, then hash misses, by original source state id *)
  let eo = Array.init (Array.length labels) (Packed.edge_orig packed) in
  let hits0 = Array.length labels in
  let nte = Automaton.nte in
  let edge_cost, miss_cost = Packed.resolution_costs packed in
  let nodes : node array =
    Array.make (max 1 n_slots) (fun _ _ _ _ _ _ -> ())
  in
  (* Shared cross-trace dispatch: the span missed (or was empty), so
     probe the global trace-head hash — the same fall-back tier
     {!Packed.step} ends in, with the same charges. All the
     NTE-boundary accounting (uncovered, enters, exits) lives here and
     in the NTE-edge actions; the hot paths never touch [r]. [hc] is
     the source's hash-hit counter; its hash-miss counter is [n_slots]
     above, and the source is NTE iff [hc = hits0] (NTE is pinned to
     original id 0). Callers add the source's span-miss charge to
     [cycles], so every argument stays in a register. *)
  let dispatch_hash hc pc r addrs counts i stop cycles =
    let cycles = cycles + Packed.cost_hash_base in
    let idx = ref (Packed.hash_pc mask pc) in
    let found = ref (-2) in
    let probes = ref 0 in
    while !found = -2 do
      incr probes;
      let k = Array.unsafe_get keys !idx in
      if k = pc then found := Array.unsafe_get vals !idx
      else if k < 0 then found := -1
      else idx := (!idx + 1) land mask
    done;
    let cycles = cycles + (!probes * Packed.cost_hash_probe) in
    (match r.hprobe with
    | None -> ()
    | Some h -> Tea_telemetry.Metrics.observe h !probes);
    if !found >= 0 then begin
      let next = !found in
      r.g_hits <- r.g_hits + 1;
      if hc = hits0 then r.enters <- r.enters + 1;
      Array.unsafe_set counts hc (1 + Array.unsafe_get counts hc);
      (Array.unsafe_get nodes next) r addrs counts (i + 1) stop cycles
    end
    else begin
      r.g_miss <- r.g_miss + 1;
      let mi = hc + n_slots in
      Array.unsafe_set counts mi (1 + Array.unsafe_get counts mi);
      r.uncovered <- r.uncovered + Array.unsafe_get r.ins i;
      if hc <> hits0 then r.exits <- r.exits + 1;
      (Array.unsafe_get nodes nte) r addrs counts (i + 1) stop
        (cycles + Transition.cost_nte_miss)
    end
  in
  (* One resolved in-span edge: account (source, target, cost and edge
     counter are all compile-time constants of the closure) and jump to
     the target's closure. Specialized on the NTE-ness of both ends so
     the common in-trace edge touches no rare-path state. *)
  let edge_action src e : node =
    let tgt = targets.(e) and cost = edge_cost.(e) and oe = eo.(e) in
    if tgt <> nte then
      if src <> nte then fun r addrs counts i stop cycles ->
        Array.unsafe_set counts oe (1 + Array.unsafe_get counts oe);
        (Array.unsafe_get nodes tgt) r addrs counts (i + 1) stop (cycles + cost)
      else fun r addrs counts i stop cycles ->
        r.enters <- r.enters + 1;
        Array.unsafe_set counts oe (1 + Array.unsafe_get counts oe);
        (Array.unsafe_get nodes tgt) r addrs counts (i + 1) stop (cycles + cost)
    else fun r addrs counts i stop cycles ->
      r.uncovered <- r.uncovered + Array.unsafe_get r.ins i;
      if src <> nte then r.exits <- r.exits + 1;
      Array.unsafe_set counts oe (1 + Array.unsafe_get counts oe);
      (Array.unsafe_get nodes tgt) r addrs counts (i + 1) stop (cycles + cost)
  in
  let n_closures = ref 0 in
  let deg_hist = Hashtbl.create 16 in
  let fallback = ref 0 in
  (* Per-degree dispatch shapes. Span order is the interpreted probe
     order — hot-prefix-first on repacked images, label-sorted on flat
     ones — so the compare chain tests the profile-hot successor
     first. *)
  let make_base s : node =
    incr n_closures;
    let lo = offsets.(s) and hi = offsets.(s + 1) in
    let deg = hi - lo in
    let mc = miss_cost.(s) and hc = hits0 + orig_of.(s) in
    let miss pc r addrs counts i stop cycles =
      dispatch_hash hc pc r addrs counts i stop (cycles + mc)
    in
    if deg = 0 then fun r addrs counts i stop cycles ->
      if i >= stop then begin
        r.halt <- s;
        r.halt_cycles <- cycles
      end
      else begin
        let pc = Array.unsafe_get addrs i in
        miss pc r addrs counts i stop cycles
      end
    else if deg <= scan_cap then begin
      (* short linear scan over captured span copies, in span (profile)
         order. In-trace fan-out-1/2 states run in the region below, so
         this serves NTE-touching spans, degrees 3..8, and a chain
         member's fall-through, which always misses its one edge. *)
      let labs = Array.sub labels lo deg in
      let acts = Array.init deg (fun k -> edge_action s (lo + k)) in
      fun r addrs counts i stop cycles ->
        if i >= stop then begin
          r.halt <- s;
          r.halt_cycles <- cycles
        end
        else begin
          let pc = Array.unsafe_get addrs i in
          let k = ref 0 in
          while !k < deg && Array.unsafe_get labs !k <> pc do incr k done;
          if !k < deg then (Array.unsafe_get acts !k) r addrs counts i stop cycles
          else miss pc r addrs counts i stop cycles
        end
    end
    else begin
      (* high fan-out: per-state minihash over (label -> edge index),
         first occurrence wins so the hot prefix keeps priority *)
      incr fallback;
      let seen = Hashtbl.create (2 * deg) in
      for k = deg - 1 downto 0 do
        (* walked backwards so earlier span positions overwrite later
           ones: on a duplicate label the first occurrence (the hot
           prefix) wins, matching the linear-scan order *)
        Hashtbl.replace seen labels.(lo + k) k
      done;
      let pairs =
        Hashtbl.fold (fun l k acc -> (l, k) :: acc) seen []
        |> List.sort (fun (_, a) (_, b) -> Int.compare a b)
      in
      let hkeys, hvals = Packed.build_hash pairs deg in
      let hmask = Array.length hkeys - 1 in
      let acts = Array.init deg (fun k -> edge_action s (lo + k)) in
      fun r addrs counts i stop cycles ->
        if i >= stop then begin
          r.halt <- s;
          r.halt_cycles <- cycles
        end
        else begin
          let pc = Array.unsafe_get addrs i in
          let idx = ref (Packed.hash_pc hmask pc) in
          let found = ref (-2) in
          while !found = -2 do
            let k = Array.unsafe_get hkeys !idx in
            if k = pc then found := Array.unsafe_get hvals !idx
            else if k < 0 then found := -1
            else idx := (!idx + 1) land hmask
          done;
          if !found >= 0 then
            (Array.unsafe_get acts !found) r addrs counts i stop cycles
          else miss pc r addrs counts i stop cycles
        end
    end
  in
  let fchain, fedge =
    match Packed.fusion_of packed with
    | Some f ->
        (* each chain edge restates its member's one-edge span, so its
           counter is that edge's *)
        let fedge = Array.make (Array.length f.Packed.fsig) 0 in
        Array.iteri
          (fun s c ->
            if c >= 0 then
              fedge.(f.Packed.foff.(c) + f.Packed.fpos.(s)) <- eo.(offsets.(s)))
          f.Packed.fchain;
        (f.Packed.fchain, fedge)
    | None -> ([||], [||])
  in
  (* Straight-line region compilation. The subgraph of in-trace states
     with fan-out 1 or 2 whose successors are all in-trace — the
     monomorphic and bimodal-branch shapes — is flattened into shared
     tables (one or two label/target/counter-and-cost triples per slot,
     the edge counter index and its cost packed into one int so a step
     loads no more than it did before edges were counted; [npc] marks
     slots outside the region), and every member state's closure is a
     region runner: a tight loop that tests the current PC against the
     slot's successor labels with straight-line compares and steps
     through the tables, keeping cursor, slot and cycle sum in
     registers. Control leaves the region only at genuine boundaries —
     a PC neither label matches (straight to the trace-head hash: the
     whole span was just compared), a higher-fan-out or chain-fronted
     slot (one indirect jump to its closure), or the batch bound. A
     bimodal state that alternates successors (the listscan pattern)
     stays in the loop on both arms, where a matcher betting on one
     static hot path would mispredict and pay an indirect jump every
     other step. *)
  let npc = min_int in
  let r_l0 = Array.make (max 1 n_slots) npc in
  let r_t0 = Array.make (max 1 n_slots) 0 in
  let r_ec0 = Array.make (max 1 n_slots) 0 in
  let r_l1 = Array.make (max 1 n_slots) npc in
  let r_t1 = Array.make (max 1 n_slots) 0 in
  let r_ec1 = Array.make (max 1 n_slots) 0 in
  (* a 1- or 2-edge span charges at most 2 per resolution *)
  let ec e = (eo.(e) lsl 8) lor edge_cost.(e) in
  let region_members = ref 0 in
  for s = 0 to n_slots - 1 do
    let lo = offsets.(s) and hi = offsets.(s + 1) in
    let deg = hi - lo in
    let chainf = Array.length fchain > 0 && fchain.(s) >= 0 in
    if
      s <> nte
      && (not chainf)
      && deg >= 1
      && deg <= 2
      && targets.(lo) <> nte
      && labels.(lo) <> npc
      && (deg = 1 || (targets.(lo + 1) <> nte && labels.(lo + 1) <> npc))
    then begin
      incr region_members;
      r_l0.(s) <- labels.(lo);
      r_t0.(s) <- targets.(lo);
      r_ec0.(s) <- ec lo;
      if deg = 2 then begin
        r_l1.(s) <- labels.(lo + 1);
        r_t1.(s) <- targets.(lo + 1);
        r_ec1.(s) <- ec (lo + 1)
      end
    end
  done;
  let make_region s : node =
    incr n_closures;
    fun r addrs counts i stop cycles ->
      let cur = ref s and j = ref i and cy = ref cycles in
      let live = ref true in
      while !live && !j < stop do
        let c = !cur in
        let pc = Array.unsafe_get addrs !j in
        if pc = Array.unsafe_get r_l0 c then begin
          let ec0 = Array.unsafe_get r_ec0 c in
          cy := !cy + (ec0 land 0xff);
          let e0 = ec0 lsr 8 in
          Array.unsafe_set counts e0 (1 + Array.unsafe_get counts e0);
          cur := Array.unsafe_get r_t0 c;
          incr j
        end
        else if pc = Array.unsafe_get r_l1 c then begin
          let ec1 = Array.unsafe_get r_ec1 c in
          cy := !cy + (ec1 land 0xff);
          let e1 = ec1 lsr 8 in
          Array.unsafe_set counts e1 (1 + Array.unsafe_get counts e1);
          cur := Array.unsafe_get r_t1 c;
          incr j
        end
        else live := false
      done;
      if !j >= stop then begin
        r.halt <- !cur;
        r.halt_cycles <- !cy
      end
      else begin
        let c = !cur in
        let pc = Array.unsafe_get addrs !j in
        if Array.unsafe_get r_l0 c <> npc then
          (* a region slot whose whole span just missed: exactly the
             interpreted span miss — on to the trace-head hash *)
          dispatch_hash
            (hits0 + Array.unsafe_get orig_of c)
            pc r addrs counts !j stop
            (!cy + Array.unsafe_get miss_cost c)
        else (Array.unsafe_get nodes c) r addrs counts !j stop !cy
      end
  in
  let chained = ref 0 in
  (* Fused chains compile to a single matcher closure per member state:
     the incoming PC run is compared against the chain signature and
     accounted in bulk (cyclic chains fast-forward whole iterations at
     O(cycle length)); a zero-length match falls through to the state's
     ordinary compiled dispatch. Chain targets are all in-trace by the
     fusion overlay's validation, so matched runs add nothing to the
     NTE-boundary accounting — only counts, cycles and the fused-step
     probe move. *)
  let make_chain s c (base_run : node) : node =
    incr n_closures;
    incr chained;
    match Packed.fusion_of packed with
    | None -> assert false
    | Some f ->
        let foff = f.Packed.foff in
        let fcyc = f.Packed.fcyc in
        let fsig = f.Packed.fsig in
        let ftgt = f.Packed.ftgt in
        let fecost = f.Packed.fecost in
        let lo = foff.(c) and hi = foff.(c + 1) in
        let p = f.Packed.fpos.(s) in
        if fcyc.(c) = 1 then begin
          let csum = ref 0 in
          for e = lo to hi - 1 do
            csum := !csum + fecost.(e)
          done;
          let csum = !csum in
          fun r addrs counts i stop cycles ->
            if i >= stop then begin
              r.halt <- s;
              r.halt_cycles <- cycles
            end
            else begin
              let j = ref i and q = ref (lo + p) in
              while
                !j < stop
                && Array.unsafe_get addrs !j = Array.unsafe_get fsig !q
              do
                incr j;
                incr q;
                if !q = hi then q := lo
              done;
              let m = !j - i in
              if m = 0 then base_run r addrs counts i stop cycles
              else begin
                let cycles = ref cycles in
                let l = hi - lo in
                let full =
                  if m < l then 0 else if m - l < l then 1 else m / l
                in
                let rem = m - (full * l) in
                if full > 0 then begin
                  cycles := !cycles + (full * csum);
                  for e = lo to hi - 1 do
                    let oe = Array.unsafe_get fedge e in
                    Array.unsafe_set counts oe
                      (full + Array.unsafe_get counts oe)
                  done
                end;
                let e = ref (lo + p) in
                for _ = 1 to rem do
                  cycles := !cycles + Array.unsafe_get fecost !e;
                  let oe = Array.unsafe_get fedge !e in
                  Array.unsafe_set counts oe (1 + Array.unsafe_get counts oe);
                  incr e;
                  if !e = hi then e := lo
                done;
                r.fused_steps <- r.fused_steps + m;
                let last = if !q = lo then hi - 1 else !q - 1 in
                (Array.unsafe_get nodes (Array.unsafe_get ftgt last))
                  r addrs counts !j stop !cycles
              end
            end
        end
        else
          fun r addrs counts i stop cycles ->
            if i >= stop then begin
              r.halt <- s;
              r.halt_cycles <- cycles
            end
            else begin
              let j = ref i and q = ref (lo + p) in
              while
                !q < hi && !j < stop
                && Array.unsafe_get addrs !j = Array.unsafe_get fsig !q
              do
                incr j;
                incr q
              done;
              let m = !j - i in
              if m = 0 then base_run r addrs counts i stop cycles
              else begin
                let cycles = ref cycles in
                for e = lo + p to lo + p + m - 1 do
                  cycles := !cycles + Array.unsafe_get fecost e;
                  let oe = Array.unsafe_get fedge e in
                  Array.unsafe_set counts oe (1 + Array.unsafe_get counts oe)
                done;
                r.fused_steps <- r.fused_steps + m;
                (Array.unsafe_get nodes
                   (Array.unsafe_get ftgt (lo + p + m - 1)))
                  r addrs counts !j stop !cycles
              end
            end
  in
  for s = 0 to n_slots - 1 do
    let deg = offsets.(s + 1) - offsets.(s) in
    Hashtbl.replace deg_hist deg
      (1 + Option.value ~default:0 (Hashtbl.find_opt deg_hist deg));
    nodes.(s) <-
      (if Array.length fchain > 0 && fchain.(s) >= 0 then
         make_chain s fchain.(s) (make_base s)
       else if r_l0.(s) <> npc then make_region s
       else make_base s)
  done;
  let degree_hist =
    Hashtbl.fold (fun d n acc -> (d, n) :: acc) deg_hist []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  {
    base = packed;
    nodes;
    n_closures = !n_closures;
    degree_hist;
    fallback_states = !fallback;
    chained_states = !chained;
    region_states = !region_members;
  }

let run t r ~state ~counts ?(off = 0) addrs ins ~len =
  (* the closures index [counts] unchecked *)
  if Array.length counts <> Packed.n_counters t.base then
    invalid_arg "Compiled.run: counter array does not match the image";
  r.ins <- ins;
  r.halt <- state;
  r.halt_cycles <- 0;
  r.uncovered <- 0;
  r.enters <- 0;
  r.exits <- 0;
  r.g_hits <- 0;
  r.g_miss <- 0;
  r.fused_steps <- 0;
  (r.hprobe <-
     (match Tea_telemetry.Probe.metrics () with
     | None -> None
     | Some m ->
         Some (Tea_telemetry.Metrics.histogram m "packed.hash_probe_len")));
  (* the batch's instruction sum: [total] outright, and the base
     [covered] the NTE-landing steps subtract from *)
  let total = ref 0 in
  for k = off to off + len - 1 do
    total := !total + Array.unsafe_get ins k
  done;
  let total = !total in
  (Array.unsafe_get t.nodes state) r addrs counts off (off + len) 0;
  let d =
    {
      d_state = r.halt;
      d_covered = total - r.uncovered;
      d_total = total;
      d_enters = r.enters;
      d_exits = r.exits;
      d_g_hits = r.g_hits;
      d_g_miss = r.g_miss;
      d_fused_steps = r.fused_steps;
      d_cycles = r.halt_cycles;
    }
  in
  (* drop batch references so the record never pins a caller's arrays *)
  r.ins <- [||];
  r.hprobe <- None;
  d

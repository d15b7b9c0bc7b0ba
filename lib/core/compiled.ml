(* Compiled dispatch: one table-driven transition loop for every state
   no fused chain fronts, plus one bulk-accounting matcher closure per
   chain member — no slot-to-closure shapes, no tier ladder, no per-step
   image indirection.

   The compiled image is a pure function of the packed image it was
   built from (any TEAPK1/2/3 layout), and replay through it is
   observationally identical to stepping the image with {!Packed.step}:
   the per-step simulated-cycle charges are read from the same tables
   the step consults (the image's [edge_cost]/[miss_cost],
   {!Packed.resolution_costs}, and the fusion overlay's [fecost]), so
   cycles stay a pure function of the replayed stream.

   The batch-loop state — current slot, cursor, batch bound, cycle
   accumulator, plus the two loop-invariant arrays and the replayer's
   rare-path record — is threaded through every jump as arguments
   [(s, r, addrs, counts, i, stop, cycles)], so the fast paths touch no
   mutable record at all. [counts] is the replayer's counter array
   ({!Packed.n_counters}): each step bumps exactly one counter — the
   edge it took, or on the hash path its source's hash-hit or hash-miss
   counter — so the dispatch tiers are read off the counters at report
   time, never counted here. The remaining accounting is derived:
   [total] is the batch's instruction sum (a pure prefix sum computed
   once per [run]), [covered] is [total] minus the instructions of the
   rare steps that land in NTE (accumulated in [r] only on the
   hash-miss and NTE-edge paths), and enters/exits only move on those
   same NTE boundaries.

   Batch bounding: the loop and every matcher stop at [stop], and
   chain matchers never compare past it, so a run that would cross a
   batch boundary halts at it and resumes (from the carried state) on
   the next [run] — exactly the property that keeps a trace file
   streamed in batches bit-identical to one whole-array run.

   A compiled image is an immutable value: the loop and the matchers
   capture only arrays that never change after the build, and
   everything a batch writes lives in the caller's [counts] and [r].
   One image therefore serves any number of replayers, on any number of
   domains at once. *)

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

type node = int -> rare -> int array -> int array -> int -> int -> int -> unit
(* s -> r -> addrs -> counts -> i -> stop -> cycles *)

type t = {
  base : Packed.t;
  nodes : node array; (* per slot: its chain matcher, else the loop *)
  n_closures : int;
  degree_hist : (int * int) list; (* (fan-out degree, states), sorted *)
  chained_states : int; (* states fronted by a fused-chain matcher *)
  region_states : int; (* states the loop resolves by inline compares *)
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

let base t = t.base
let n_closures t = t.n_closures
let degree_histogram t = t.degree_hist
let chained_states t = t.chained_states
let region_states t = t.region_states

(* A static block: the marker {!of_packed}'s compares hold for "no
   label". *)
let no_label = "no label"

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
  let chains = Packed.fusion_of packed in
  let fchain =
    match chains with
    | Some f -> f.Packed.fchain
    | None -> Array.make n_slots (-1)
  in
  (* The register-resident compares. In-trace states with fan-out 1 or
     2 whose successors are all in-trace — the monomorphic and
     bimodal-branch shapes — get their one or two label/target/
     counter-and-cost triples in shared tables (the edge counter index
     and its cost packed into one int so a step loads no more than it
     did before edges were counted); [npc] marks every other slot. A
     bimodal state that alternates successors (the listscan pattern)
     stays in the loop on both arms, where a matcher betting on one
     static hot path would mispredict every other step. Every int can
     be a block address (a stream's deltas may run below zero), so [npc]
     is no int: a pointer, which no tagged int compares equal to, while
     the compares stay single word compares. *)
  let npc : int = Obj.magic no_label in
  let r_l0 = Array.make n_slots npc in
  let r_t0 = Array.make n_slots 0 in
  let r_ec0 = Array.make n_slots 0 in
  let r_l1 = Array.make n_slots npc in
  let r_t1 = Array.make n_slots 0 in
  let r_ec1 = Array.make n_slots 0 in
  (* a 1- or 2-edge span charges at most 2 per resolution *)
  let ec e = (eo.(e) lsl 8) lor edge_cost.(e) in
  let region_members = ref 0 in
  for s = 0 to n_slots - 1 do
    let lo = offsets.(s) and hi = offsets.(s + 1) in
    let deg = hi - lo in
    if
      s <> nte
      && fchain.(s) < 0
      && deg >= 1
      && deg <= 2
      && targets.(lo) <> nte
      && (deg = 1 || targets.(lo + 1) <> nte)
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
  (* Where the loop's span scan starts once the compares missed: the
     whole span for every other slot, and past its end for a compared
     slot (the compares covered the whole span) or a chain member (its
     matcher just compared the one edge). Span order is the interpreted
     probe order — hot-prefix-first on repacked images, label-sorted on
     flat ones. *)
  let scan =
    Array.init n_slots (fun s ->
        if r_l0.(s) <> npc || fchain.(s) >= 0 then offsets.(s + 1)
        else offsets.(s))
  in
  let nodes : node array = Array.make n_slots (fun _ _ _ _ _ _ _ -> ()) in
  (* The transition loop: the paper's two-level lookup — the current
     state's edges, then the global trace-head hash, else NTE — for
     every slot no chain fronts. [loop] is its hot half: a compared
     slot's span resolves by one or two inline compares, with slot,
     cursor and cycle sum in registers. Any other slot (fan-out 0,
     spans touching NTE, fan-out 3 and up), and a compared slot whose
     compares missed, takes one [cold] step: scan the rest of the span
     in span order, else probe the trace-head hash, with the same
     charges as {!Packed.step}; then straight back into [loop]. The two
     halves reach each other by direct tail calls, so neither pays an
     indirect jump, and [cold]'s temporaries never push [loop]'s
     variables out of registers. All the NTE-boundary accounting
     (uncovered, enters, exits) lives in [cold]; the compares never
     touch [r]. Control leaves only for a chain-fronted slot (one
     indirect jump to its matcher) or at the batch bound; a matcher's
     zero-length fall-through enters [cold] at its member's hash probe
     (its scan range is empty). *)
  let rec loop s r addrs counts i stop cycles =
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
    let c = !cur in
    if !live then begin
      r.halt <- c;
      r.halt_cycles <- !cy
    end
    else if Array.unsafe_get fchain c >= 0 then
      (Array.unsafe_get nodes c) c r addrs counts !j stop !cy
    else cold c r addrs counts !j stop !cy
  and cold c r addrs counts j stop cy =
    let pc = Array.unsafe_get addrs j in
    let hi = Array.unsafe_get offsets (c + 1) in
    let k = ref (Array.unsafe_get scan c) in
    while !k < hi && Array.unsafe_get labels !k <> pc do
      incr k
    done;
    if !k < hi then begin
      let e = !k in
      let tgt = Array.unsafe_get targets e in
      if tgt = nte then begin
        r.uncovered <- r.uncovered + Array.unsafe_get r.ins j;
        if c <> nte then r.exits <- r.exits + 1
      end
      else if c = nte then r.enters <- r.enters + 1;
      let oe = Array.unsafe_get eo e in
      Array.unsafe_set counts oe (1 + Array.unsafe_get counts oe);
      loop tgt r addrs counts (j + 1) stop (cy + Array.unsafe_get edge_cost e)
    end
    else begin
      let idx = ref (Packed.hash_pc mask pc) in
      let found = ref (-2) in
      let probes = ref 0 in
      while !found = -2 do
        incr probes;
        let key = Array.unsafe_get keys !idx in
        (* empty (-1) first, as {!Packed.step}: a negative PC misses *)
        if key < 0 then found := -1
        else if key = pc then found := Array.unsafe_get vals !idx
        else idx := (!idx + 1) land mask
      done;
      (match r.hprobe with
      | None -> ()
      | Some h -> Tea_telemetry.Metrics.observe h !probes);
      let cy =
        cy + Array.unsafe_get miss_cost c + Packed.cost_hash_base
        + (!probes * Packed.cost_hash_probe)
      in
      (* the source's hash-hit counter; its hash-miss counter is
         [n_slots] above *)
      let hc = hits0 + Array.unsafe_get orig_of c in
      if !found >= 0 then begin
        r.g_hits <- r.g_hits + 1;
        if c = nte then r.enters <- r.enters + 1;
        Array.unsafe_set counts hc (1 + Array.unsafe_get counts hc);
        loop !found r addrs counts (j + 1) stop cy
      end
      else begin
        r.g_miss <- r.g_miss + 1;
        let mi = hc + n_slots in
        Array.unsafe_set counts mi (1 + Array.unsafe_get counts mi);
        r.uncovered <- r.uncovered + Array.unsafe_get r.ins j;
        if c <> nte then r.exits <- r.exits + 1;
        loop nte r addrs counts (j + 1) stop (cy + Transition.cost_nte_miss)
      end
    end
  in
  (* Fused chains compile to a single matcher closure per member state:
     the incoming PC run is compared against the chain signature and
     accounted in bulk (cyclic chains fast-forward whole iterations at
     O(cycle length)); a zero-length match falls through to [cold].
     Chain targets are all in-trace by the fusion overlay's validation,
     so matched runs add nothing to the NTE-boundary accounting — only
     counts, cycles and the fused-step probe move. Each chain edge
     restates its member's one-edge span, so its counter is that
     edge's. *)
  let make_chain (f : Packed.fusion) fedge s : node =
    let foff = f.Packed.foff in
    let fsig = f.Packed.fsig in
    let ftgt = f.Packed.ftgt in
    let fecost = f.Packed.fecost in
    let c = fchain.(s) in
    let lo = foff.(c) and hi = foff.(c + 1) in
    let p = f.Packed.fpos.(s) in
    if f.Packed.fcyc.(c) = 1 then begin
      let csum = ref 0 in
      for e = lo to hi - 1 do
        csum := !csum + fecost.(e)
      done;
      let csum = !csum in
      fun _ r addrs counts i stop cycles ->
        if i >= stop then begin
          r.halt <- s;
          r.halt_cycles <- cycles
        end
        else begin
          let j = ref i and q = ref (lo + p) in
          while
            !j < stop && Array.unsafe_get addrs !j = Array.unsafe_get fsig !q
          do
            incr j;
            incr q;
            if !q = hi then q := lo
          done;
          let m = !j - i in
          if m = 0 then cold s r addrs counts i stop cycles
          else begin
            let cycles = ref cycles in
            let l = hi - lo in
            let full = if m < l then 0 else if m - l < l then 1 else m / l in
            let rem = m - (full * l) in
            if full > 0 then begin
              cycles := !cycles + (full * csum);
              for e = lo to hi - 1 do
                let oe = Array.unsafe_get fedge e in
                Array.unsafe_set counts oe (full + Array.unsafe_get counts oe)
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
            let tgt = Array.unsafe_get ftgt last in
            (Array.unsafe_get nodes tgt) tgt r addrs counts !j stop !cycles
          end
        end
    end
    else
      fun _ r addrs counts i stop cycles ->
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
          if m = 0 then cold s r addrs counts i stop cycles
          else begin
            let cycles = ref cycles in
            for e = lo + p to lo + p + m - 1 do
              cycles := !cycles + Array.unsafe_get fecost e;
              let oe = Array.unsafe_get fedge e in
              Array.unsafe_set counts oe (1 + Array.unsafe_get counts oe)
            done;
            r.fused_steps <- r.fused_steps + m;
            let tgt = Array.unsafe_get ftgt (lo + p + m - 1) in
            (Array.unsafe_get nodes tgt) tgt r addrs counts !j stop !cycles
          end
        end
  in
  Array.fill nodes 0 n_slots loop;
  let chained = ref 0 in
  Option.iter
    (fun (f : Packed.fusion) ->
      let fedge = Array.make (Array.length f.Packed.fsig) 0 in
      Array.iteri
        (fun s c ->
          if c >= 0 then begin
            fedge.(f.Packed.foff.(c) + f.Packed.fpos.(s)) <- eo.(offsets.(s));
            incr chained
          end)
        fchain;
      Array.iteri
        (fun s c -> if c >= 0 then nodes.(s) <- make_chain f fedge s)
        fchain)
    chains;
  let deg_hist = Hashtbl.create 16 in
  for s = 0 to n_slots - 1 do
    let deg = offsets.(s + 1) - offsets.(s) in
    Hashtbl.replace deg_hist deg
      (1 + Option.value ~default:0 (Hashtbl.find_opt deg_hist deg))
  done;
  let degree_hist =
    Hashtbl.fold (fun d n acc -> (d, n) :: acc) deg_hist []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  {
    base = packed;
    nodes;
    n_closures = 1 + !chained;
    degree_hist;
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
  (Array.unsafe_get t.nodes state) state r addrs counts off (off + len) 0;
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

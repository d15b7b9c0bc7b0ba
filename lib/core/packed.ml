type raw = {
  offsets : int array;
  labels : int array;
  targets : int array;
  state_trace : int array;
  state_tbb : int array;
  state_start : int array;
  state_insns : int array;
  hash_keys : int array;
  hash_vals : int array;
  hot_len : int array;
  orig_of : int array;
}

(* Chain-fusion overlay ({!Tea_opt.Fuse}): single-successor runs of the
   DFA collapsed into superstates. A slot [s] with [fchain.(s) = c >= 0]
   sits at position [fpos.(s)] of chain [c], whose expansion table is the
   pooled slice [foff.(c) .. foff.(c+1)) of [fsig] (the PC each forced
   step must see), [ftgt] (the state it lands in) and [fecost] (the
   simulated cycles the ordinary dispatch would charge for that exact
   resolution). [fcyc.(c) = 1] marks a chain whose last edge re-enters
   its first state — a loop the replayer may fast-forward through. The
   overlay is purely descriptive: {!step} ignores it, and
   {!with_fusion} validates that every chain edge restates an existing
   1-edge span verbatim, so a fused image can never replay differently
   from its unfused source. *)
type fusion = {
  fchain : int array;
  fpos : int array;
  foff : int array;
  fcyc : int array;
  fsig : int array;
  ftgt : int array;
  fecost : int array;
}

(* The arrays live directly in [t] (rather than behind a nested [raw]
   record) so the step path loads each one with a single indirection.

   A repacked image ([repacked = true]) additionally carries:
   - [hot_len]: per-slot length of the most-taken-first linear prefix of
     the span (the remainder stays label-sorted for binary search);
   - [edge_cost] / [miss_cost]: the simulated cycles the scan path would
     charge to resolve each edge / to miss the whole span, precomputed
     from the layout so the inline cache can charge them without scanning;
   - [orig_of] / [slot_of]: the slot <-> original-state-id permutation
     (reporting translates at the boundary; replay runs in slot space);
   - [ic_label]/[ic_target]/[ic_cost]: the per-state monomorphic inline
     cache, the packed analogue of DBT trace chaining. These three arrays
     are the only flat arrays mutated during replay, so {!dup} gives each
     sibling its own copies. *)
type t = {
  offsets : int array;
  labels : int array;
  targets : int array;
  state_trace : int array;
  state_tbb : int array;
  state_start : int array;
  state_insns : int array;
  hash_keys : int array;
  hash_vals : int array;
  hot_len : int array;
  orig_of : int array;
  slot_of : int array;
  edge_cost : int array; (* [||] unless repacked *)
  miss_cost : int array; (* [||] unless repacked *)
  ic_label : int array; (* [||] unless repacked; min_int = empty *)
  ic_target : int array;
  ic_cost : int array;
  fusion : fusion option; (* immutable overlay; shared by {!dup} *)
  repacked : bool;
  mask : int; (* Array.length hash_keys - 1 *)
  auto : Automaton.t option;
  st : Transition.stats;
  mutable total_cycles : int;
  mutable ic_hit_count : int;
  mutable ic_miss_count : int;
}

(* Cost constants. A binary-search halving is a compare plus a conditional
   move on cache-resident arrays (~1); the hash path pays the multiply +
   mask (~2) plus one probe compare per slot examined; an NTE miss does the
   same cold-code bookkeeping as the reference engine. A hot-prefix probe
   is the same compare as a halving, so it also costs [cost_search_step]. *)
let cost_search_step = 1

let cost_hash_base = 2

let cost_hash_probe = 1

(* The inline cache never fires on this label: real PCs are non-negative
   and -1 is the hash tombstone, so the empty IC slot sits below both. *)
let ic_empty = min_int

(* Fibonacci multiplicative hashing; the constant is SplitMix64's golden
   gamma truncated to OCaml's int range. Exported so every probe loop —
   insertion here, {!step}, {!head_of} and the compiled hash fallback —
   shares the one definition. *)
let[@inline] hash_pc mask pc = ((pc * 0x2545F4914F6CDD1D) lsr 24) land mask

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let insert_head keys vals mask addr state =
  let rec go i =
    if keys.(i) < 0 || keys.(i) = addr then begin
      keys.(i) <- addr;
      vals.(i) <- state
    end
    else go ((i + 1) land mask)
  in
  go (hash_pc mask addr)

(* Dedupe repeated head addresses before sizing the table: the last value
   wins (matching [insert_head]'s overwrite semantics) but insertion keeps
   first-occurrence order, so the probe-chain layout is independent of how
   many times an address was re-inserted. Sizing from the raw list length
   would over-size on duplicates — and under-fill relative to the load
   factor the size was chosen for. *)
let build_hash heads n_slots =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (addr, s) ->
      if addr < 0 then invalid_arg "Packed: negative head address";
      if s < 0 || s >= n_slots then invalid_arg "Packed: head out of range";
      if not (Hashtbl.mem tbl addr) then order := addr :: !order;
      Hashtbl.replace tbl addr s)
    heads;
  let distinct = List.rev !order in
  let size = pow2_at_least (max 8 (2 * List.length distinct)) 8 in
  let keys = Array.make size (-1) and vals = Array.make size 0 in
  List.iter
    (fun addr -> insert_head keys vals (size - 1) addr (Hashtbl.find tbl addr))
    distinct;
  (keys, vals)

(* Iterations of the branchless lower-bound loop over [m] labels: len
   shrinks by [len lsr 1] until it reaches 1 (= ceil(log2 m)). *)
let halvings m =
  let rec go len acc = if len <= 1 then acc else go (len - (len lsr 1)) (acc + 1) in
  go m 0

(* Precompute what the scan path charges so the inline cache (and the
   compiled closures) can charge a resolution with one table load:
   - a hot-prefix edge at position j costs its j+1 linear probes;
   - a tail edge costs the whole prefix (k probes) plus the binary search
     over the m tail labels (halvings m + 1);
   - a span miss costs the same full scan (prefix + search), after which
     the hash path charges its own costs on top. *)
let derive_costs offsets hot_len =
  let n_slots = Array.length offsets - 1 in
  let edge_cost = Array.make offsets.(n_slots) 0 in
  let miss_cost = Array.make n_slots 0 in
  for s = 0 to n_slots - 1 do
    let lo = offsets.(s) and hi = offsets.(s + 1) in
    let k = hot_len.(s) in
    let m = hi - lo - k in
    let tail = if m > 0 then halvings m + 1 else 0 in
    for j = 0 to k - 1 do
      edge_cost.(lo + j) <- (j + 1) * cost_search_step
    done;
    for e = lo + k to hi - 1 do
      edge_cost.(e) <- (k + tail) * cost_search_step
    done;
    miss_cost.(s) <- (k + tail) * cost_search_step
  done;
  (edge_cost, miss_cost)

let identity n = Array.init n (fun i -> i)

let make_t ~offsets ~labels ~targets ~state_trace ~state_tbb ~state_start
    ~state_insns ~hash_keys ~hash_vals ~hot_len ~orig_of ~auto ~repacked =
  let n_slots = Array.length offsets - 1 in
  let slot_of =
    if repacked then begin
      let a = Array.make n_slots 0 in
      Array.iteri (fun slot orig -> a.(orig) <- slot) orig_of;
      a
    end
    else orig_of (* identity; never mutated, safe to share *)
  in
  let edge_cost, miss_cost =
    if repacked then derive_costs offsets hot_len else ([||], [||])
  in
  {
    offsets;
    labels;
    targets;
    state_trace;
    state_tbb;
    state_start;
    state_insns;
    hash_keys;
    hash_vals;
    hot_len;
    orig_of;
    slot_of;
    edge_cost;
    miss_cost;
    ic_label = (if repacked then Array.make n_slots ic_empty else [||]);
    ic_target = (if repacked then Array.make n_slots (-1) else [||]);
    ic_cost = (if repacked then Array.make n_slots 0 else [||]);
    fusion = None;
    repacked;
    mask = Array.length hash_keys - 1;
    auto;
    st = Transition.fresh_stats ();
    total_cycles = 0;
    ic_hit_count = 0;
    ic_miss_count = 0;
  }

let freeze auto =
  let max_id = ref 0 in
  Automaton.iter_live (fun s _ -> if s > !max_id then max_id := s) auto;
  let n_slots = !max_id + 1 in
  let state_trace = Array.make n_slots (-1) in
  let state_tbb = Array.make n_slots 0 in
  let state_start = Array.make n_slots 0 in
  let state_insns = Array.make n_slots 0 in
  let offsets = Array.make (n_slots + 1) 0 in
  (* Single traversal: sort each state's edges once, cache the sorted
     lists, and reuse them for both the offsets count and the fill. *)
  let sorted_edges = Array.make n_slots [] in
  Automaton.iter_live
    (fun s info ->
      state_trace.(s) <- info.Automaton.trace_id;
      state_tbb.(s) <- info.Automaton.tbb_index;
      state_start.(s) <- info.Automaton.block_start;
      state_insns.(s) <- info.Automaton.n_insns;
      let edges =
        List.sort
          (fun (a, _) (b, _) -> Int.compare a b)
          (Automaton.edges_of auto s)
      in
      sorted_edges.(s) <- edges;
      offsets.(s + 1) <- List.length edges)
    auto;
  for i = 1 to n_slots do
    offsets.(i) <- offsets.(i) + offsets.(i - 1)
  done;
  let n_edges = offsets.(n_slots) in
  let labels = Array.make n_edges 0 and targets = Array.make n_edges 0 in
  Array.iteri
    (fun s edges ->
      List.iteri
        (fun i (label, dst) ->
          labels.(offsets.(s) + i) <- label;
          targets.(offsets.(s) + i) <- dst)
        edges)
    sorted_edges;
  let hash_keys, hash_vals = build_hash (Automaton.heads auto) n_slots in
  make_t ~offsets ~labels ~targets ~state_trace ~state_tbb ~state_start
    ~state_insns ~hash_keys ~hash_vals ~hot_len:(Array.make n_slots 0)
    ~orig_of:(identity n_slots) ~auto:(Some auto) ~repacked:false

(* The flat arrays are immutable after freeze; only the counter block —
   and, for repacked images, the inline-cache arrays — mutate during
   replay. Sharing those across domains would race, so a parallel driver
   gives each worker its own counters (and IC) over the same layout. *)
let dup t =
  {
    t with
    st = Transition.fresh_stats ();
    total_cycles = 0;
    ic_hit_count = 0;
    ic_miss_count = 0;
    ic_label =
      (if t.repacked then Array.make (Array.length t.ic_label) ic_empty
       else t.ic_label);
    ic_target =
      (if t.repacked then Array.make (Array.length t.ic_target) (-1)
       else t.ic_target);
    ic_cost =
      (if t.repacked then Array.make (Array.length t.ic_cost) 0 else t.ic_cost);
  }

let n_slots t = Array.length t.offsets - 1

let n_states t =
  Array.fold_left (fun acc tr -> if tr >= 0 then acc + 1 else acc) 0 t.state_trace

let n_edges t = Array.length t.labels

let n_heads t =
  Array.fold_left (fun acc k -> if k >= 0 then acc + 1 else acc) 0 t.hash_keys

let automaton t = t.auto

let stats t = t.st

let cycles t = t.total_cycles

let add_cycles t n = t.total_cycles <- t.total_cycles + n

let is_repacked t = t.repacked

let hot_edges t = Array.fold_left ( + ) 0 t.hot_len

let orig_state t s =
  if s >= 0 && s < Array.length t.orig_of then t.orig_of.(s) else s

let slot_of_state t s =
  if s >= 0 && s < Array.length t.slot_of then t.slot_of.(s) else s

let ic_hits t = t.ic_hit_count

let ic_misses t = t.ic_miss_count

let reset_counters t =
  t.total_cycles <- 0;
  t.ic_hit_count <- 0;
  t.ic_miss_count <- 0;
  if t.repacked then begin
    Array.fill t.ic_label 0 (Array.length t.ic_label) ic_empty;
    Array.fill t.ic_target 0 (Array.length t.ic_target) (-1);
    Array.fill t.ic_cost 0 (Array.length t.ic_cost) 0
  end;
  let st = t.st in
  st.Transition.steps <- 0;
  st.Transition.in_trace_hits <- 0;
  st.Transition.cache_hits <- 0;
  st.Transition.global_hits <- 0;
  st.Transition.global_misses <- 0

let state_insns t s =
  if s >= 0 && s < n_slots t then t.state_insns.(s) else 0

(* Pure lookup used by tests/tools; [step] inlines its own probe loop so
   the hot path charges costs without an option allocation. *)
let head_of t pc =
  let keys = t.hash_keys and mask = t.mask in
  let rec go i =
    let k = Array.unsafe_get keys i in
    if k = pc then Some (Array.unsafe_get t.hash_vals i)
    else if k < 0 then None
    else go ((i + 1) land mask)
  in
  if pc < 0 then None else go (hash_pc mask pc)

(* The hot path is written with tail-recursive helpers carrying their
   accumulators in arguments: without flambda a [ref] is a minor-heap
   allocation, and five of those per step cost more than the search itself.
   Each helper charges its simulated cycles into [total_cycles] at its
   terminal case, so the accounting is identical to the obvious loop. *)

(* Branchless lower-bound over a sorted span; charges one
   [cost_search_step] per halving plus one for the final compare. *)
let rec lower_bound t labels pc base len cost =
  if len <= 1 then begin
    t.total_cycles <- t.total_cycles + cost + cost_search_step;
    base
  end
  else
    let half = len lsr 1 in
    let base =
      if Array.unsafe_get labels (base + half) <= pc then base + half else base
    in
    lower_bound t labels pc base (len - half) (cost + cost_search_step)

(* Cost-free lower bound for repacked spans: the resolution cost comes
   from the precomputed [edge_cost]/[miss_cost] tables instead of being
   charged per halving. *)
let rec lower_bound_pure labels pc base len =
  if len <= 1 then base
  else
    let half = len lsr 1 in
    let base =
      if Array.unsafe_get labels (base + half) <= pc then base + half else base
    in
    lower_bound_pure labels pc base (len - half)

let rec scan_prefix labels pc i stop =
  if i >= stop then -1
  else if Array.unsafe_get labels i = pc then i
  else scan_prefix labels pc (i + 1) stop

(* Open-addressing probe; returns the head state or -1, charging one
   [cost_hash_probe] per slot examined (terminal slot included). *)
let rec probe t keys vals mask pc i cost =
  let k = Array.unsafe_get keys i in
  if k = pc then begin
    t.total_cycles <- t.total_cycles + cost;
    Array.unsafe_get vals i
  end
  else if k < 0 then begin
    t.total_cycles <- t.total_cycles + cost;
    -1
  end
  else probe t keys vals mask pc ((i + 1) land mask) (cost + cost_hash_probe)

(* Shared cold tail: hash the PC and probe for a trace head, charging the
   hash-path costs and bumping the cross-trace counters. [state] is the
   dispatch source, only used for tier attribution ([a]). *)
let step_hash t m a ~state pc =
  let st = t.st in
  t.total_cycles <- t.total_cycles + cost_hash_base;
  let c0 = t.total_cycles in
  let found =
    probe t t.hash_keys t.hash_vals t.mask pc (hash_pc t.mask pc)
      cost_hash_probe
  in
  (* [probe] charges [cost_hash_probe] (= 1) per slot examined, so the
     cycles delta is exactly the probe length. *)
  (match m with
  | None -> ()
  | Some m ->
      Tea_telemetry.Metrics.observe_value m "packed.hash_probe_len"
        ((t.total_cycles - c0) / cost_hash_probe));
  if found >= 0 then begin
    st.Transition.global_hits <- st.Transition.global_hits + 1;
    (match m with
    | None -> ()
    | Some m -> Tea_telemetry.Metrics.count m "packed.global_hit" 1);
    (match a with
    | None -> ()
    | Some a -> Tierstat.bump a ~tier:Tierstat.t_hash ~state);
    found
  end
  else begin
    st.Transition.global_misses <- st.Transition.global_misses + 1;
    (match m with
    | None -> ()
    | Some m -> Tea_telemetry.Metrics.count m "packed.global_miss" 1);
    (match a with
    | None -> ()
    | Some a -> Tierstat.bump a ~tier:Tierstat.t_miss ~state);
    t.total_cycles <- t.total_cycles + Transition.cost_nte_miss;
    Automaton.nte
  end

let step_flat t state pc =
  let st = t.st in
  st.Transition.steps <- st.Transition.steps + 1;
  let lo = Array.unsafe_get t.offsets state in
  let hi = Array.unsafe_get t.offsets (state + 1) in
  (* In-trace transition: lower-bound over the state's sorted span, then
     one equality check. *)
  let hit =
    if hi > lo then begin
      let b = lower_bound t t.labels pc lo (hi - lo) 0 in
      if Array.unsafe_get t.labels b = pc then Array.unsafe_get t.targets b
      else -1
    end
    else -1
  in
  (* [m] is [None] whenever telemetry is off, so the disabled per-step
     cost is one atomic load and the option matches below; same deal for
     the tier tally [a]. *)
  let m = Tea_telemetry.Probe.metrics () in
  let a = Tierstat.tally () in
  if hit >= 0 then begin
    st.Transition.in_trace_hits <- st.Transition.in_trace_hits + 1;
    (match m with
    | None -> ()
    | Some m -> Tea_telemetry.Metrics.count m "packed.in_trace_hit" 1);
    (match a with
    | None -> ()
    | Some a -> Tierstat.bump a ~tier:Tierstat.t_search ~state);
    hit
  end
  else step_hash t m a ~state pc

(* Repacked dispatch: monomorphic inline cache, then the most-taken-first
   linear prefix, then binary search over the sorted tail, then the hash
   path. An IC hit charges exactly the [edge_cost] the scan charged when
   the entry was filled — for a fixed layout that cost is a function of
   (state, pc) alone, so simulated cycles are independent of IC history
   and sharded replay stays bit-identical to sequential. Only the
   [ic_hit]/[ic_miss] telemetry split observes the cache itself. *)
let step_hot t state pc =
  let st = t.st in
  st.Transition.steps <- st.Transition.steps + 1;
  let m = Tea_telemetry.Probe.metrics () in
  let a = Tierstat.tally () in
  if Array.unsafe_get t.ic_label state = pc then begin
    st.Transition.in_trace_hits <- st.Transition.in_trace_hits + 1;
    t.ic_hit_count <- t.ic_hit_count + 1;
    t.total_cycles <- t.total_cycles + Array.unsafe_get t.ic_cost state;
    (match m with
    | None -> ()
    | Some m ->
        Tea_telemetry.Metrics.count m "packed.ic_hit" 1;
        Tea_telemetry.Metrics.count m "packed.in_trace_hit" 1);
    (match a with
    | None -> ()
    | Some a -> Tierstat.bump a ~tier:Tierstat.t_ic ~state);
    Array.unsafe_get t.ic_target state
  end
  else begin
    t.ic_miss_count <- t.ic_miss_count + 1;
    (match m with
    | None -> ()
    | Some m -> Tea_telemetry.Metrics.count m "packed.ic_miss" 1);
    let lo = Array.unsafe_get t.offsets state in
    let hi = Array.unsafe_get t.offsets (state + 1) in
    let k = Array.unsafe_get t.hot_len state in
    let e =
      let e = scan_prefix t.labels pc lo (lo + k) in
      if e >= 0 then e
      else begin
        let tl = lo + k in
        if hi <= tl then -1
        else
          let b = lower_bound_pure t.labels pc tl (hi - tl) in
          if Array.unsafe_get t.labels b = pc then b else -1
      end
    in
    if e >= 0 then begin
      st.Transition.in_trace_hits <- st.Transition.in_trace_hits + 1;
      let c = Array.unsafe_get t.edge_cost e in
      t.total_cycles <- t.total_cycles + c;
      let tgt = Array.unsafe_get t.targets e in
      Array.unsafe_set t.ic_label state pc;
      Array.unsafe_set t.ic_target state tgt;
      Array.unsafe_set t.ic_cost state c;
      (match m with
      | None -> ()
      | Some m -> Tea_telemetry.Metrics.count m "packed.in_trace_hit" 1);
      (match a with
      | None -> ()
      | Some a ->
          (* [e < lo + k] identifies the hot prefix; the tail is binary
             search. *)
          let tier = if e < lo + k then Tierstat.t_hot else Tierstat.t_search in
          Tierstat.bump a ~tier ~state);
      tgt
    end
    else begin
      t.total_cycles <- t.total_cycles + Array.unsafe_get t.miss_cost state;
      step_hash t m a ~state pc
    end
  end

let step t state pc =
  if state < 0 || state + 1 >= Array.length t.offsets then
    invalid_arg "Packed.step: state id outside the frozen image";
  if t.repacked then step_hot t state pc else step_flat t state pc

(* The precomputed resolution costs of a repacked layout, for the passes
   that must charge exactly what {!step} charges without stepping:
   compiled dispatch and chain fusion. *)
let hot_costs t =
  if not t.repacked then invalid_arg "Packed.hot_costs: image is not repacked";
  (t.edge_cost, t.miss_cost)

let to_raw t : raw =
  {
    offsets = t.offsets;
    labels = t.labels;
    targets = t.targets;
    state_trace = t.state_trace;
    state_tbb = t.state_tbb;
    state_start = t.state_start;
    state_insns = t.state_insns;
    hash_keys = t.hash_keys;
    hash_vals = t.hash_vals;
    hot_len = t.hot_len;
    orig_of = t.orig_of;
  }

let of_raw ?auto ?(repacked = false) (r : raw) =
  let fail fmt = Printf.ksprintf invalid_arg ("Packed.of_raw: " ^^ fmt) in
  let n_slots = Array.length r.offsets - 1 in
  if n_slots < 0 then fail "empty offsets array";
  if r.offsets.(0) <> 0 then fail "offsets must start at 0";
  for i = 0 to n_slots - 1 do
    if r.offsets.(i + 1) < r.offsets.(i) then fail "offsets must be monotone"
  done;
  let n_edges = Array.length r.labels in
  if Array.length r.targets <> n_edges then fail "labels/targets length mismatch";
  if r.offsets.(n_slots) <> n_edges then fail "offsets do not cover the edge array";
  Array.iter
    (fun d -> if d < 0 || d >= n_slots then fail "edge target out of range")
    r.targets;
  if Array.length r.hot_len <> n_slots then fail "hot_len length mismatch";
  if Array.length r.orig_of <> n_slots then fail "orig_of length mismatch";
  if repacked then begin
    (* Each span splits into a hot prefix (pairwise-distinct labels, any
       order) and a strictly increasing tail, with no label in both. *)
    for s = 0 to n_slots - 1 do
      let lo = r.offsets.(s) and hi = r.offsets.(s + 1) in
      let k = r.hot_len.(s) in
      if k < 0 || k > hi - lo then fail "hot prefix exceeds its span";
      for i = lo to lo + k - 1 do
        for j = i + 1 to lo + k - 1 do
          if r.labels.(i) = r.labels.(j) then
            fail "duplicate label in hot prefix"
        done;
        for j = lo + k to hi - 1 do
          if r.labels.(i) = r.labels.(j) then
            fail "hot prefix label repeated in tail"
        done
      done;
      for i = lo + k + 1 to hi - 1 do
        if r.labels.(i) <= r.labels.(i - 1) then
          fail "span tail labels must be strictly increasing"
      done
    done;
    let seen = Array.make (max n_slots 1) false in
    Array.iter
      (fun o ->
        if o < 0 || o >= n_slots then fail "orig_of out of range"
        else if seen.(o) then fail "orig_of is not a permutation"
        else seen.(o) <- true)
      r.orig_of;
    if n_slots > 0 && r.orig_of.(0) <> 0 then
      fail "orig_of must pin NTE at slot 0"
  end
  else begin
    Array.iter
      (fun k -> if k <> 0 then fail "hot_len must be zero in a flat image")
      r.hot_len;
    Array.iteri
      (fun i o ->
        if o <> i then fail "orig_of must be the identity in a flat image")
      r.orig_of;
    for s = 0 to n_slots - 1 do
      for i = r.offsets.(s) + 1 to r.offsets.(s + 1) - 1 do
        if r.labels.(i) <= r.labels.(i - 1) then
          fail "span labels must be strictly increasing"
      done
    done
  end;
  List.iter
    (fun a ->
      if Array.length a <> n_slots then fail "state array length mismatch")
    [ r.state_trace; r.state_tbb; r.state_start; r.state_insns ];
  let hsize = Array.length r.hash_keys in
  if hsize < 1 || hsize land (hsize - 1) <> 0 then
    fail "hash size must be a power of two";
  if Array.length r.hash_vals <> hsize then fail "hash array length mismatch";
  Array.iteri
    (fun i k ->
      if k >= 0 && (r.hash_vals.(i) < 0 || r.hash_vals.(i) >= n_slots) then
        fail "hash value out of range")
    r.hash_keys;
  make_t ~offsets:r.offsets ~labels:r.labels ~targets:r.targets
    ~state_trace:r.state_trace ~state_tbb:r.state_tbb
    ~state_start:r.state_start ~state_insns:r.state_insns
    ~hash_keys:r.hash_keys ~hash_vals:r.hash_vals ~hot_len:r.hot_len
    ~orig_of:r.orig_of ~auto ~repacked

(* Attach a fusion overlay, re-validating it against the image it claims
   to describe. The checks are deliberately redundant with how
   {!Tea_opt.Fuse} builds the overlay: a fused image loaded from bytes
   ({!Serialize}, TEAPK3) goes through the same gate, so a corrupt or
   hand-forged overlay can never make the fused replay loop follow an
   edge the plain dispatch would not. *)
let with_fusion t (f : fusion) =
  let fail fmt = Printf.ksprintf invalid_arg ("Packed.with_fusion: " ^^ fmt) in
  let n = n_slots t in
  if Array.length f.fchain <> n then fail "fchain length mismatch";
  if Array.length f.fpos <> n then fail "fpos length mismatch";
  let n_chains = Array.length f.foff - 1 in
  if n_chains < 0 then fail "empty foff array";
  if Array.length f.fcyc <> n_chains then fail "fcyc length mismatch";
  if f.foff.(0) <> 0 then fail "foff must start at 0";
  for c = 0 to n_chains - 1 do
    if f.foff.(c + 1) <= f.foff.(c) then
      fail "foff must be strictly monotone (no empty chains)"
  done;
  let n_fedges = f.foff.(n_chains) in
  if Array.length f.fsig <> n_fedges then fail "fsig length mismatch";
  if Array.length f.ftgt <> n_fedges then fail "ftgt length mismatch";
  if Array.length f.fecost <> n_fedges then fail "fecost length mismatch";
  Array.iter
    (fun c -> if c <> 0 && c <> 1 then fail "fcyc entries must be 0 or 1")
    f.fcyc;
  (* Owner map: position p of chain c is held by exactly one slot. *)
  let owner = Array.make (max n_fedges 1) (-1) in
  for s = 0 to n - 1 do
    let c = f.fchain.(s) in
    if c < -1 || c >= n_chains then fail "fchain id out of range (slot %d)" s;
    if c = -1 then begin
      if f.fpos.(s) <> 0 then fail "unchained slot %d has nonzero fpos" s
    end
    else begin
      if s = 0 then fail "NTE (slot 0) may not join a chain";
      let lo = f.foff.(c) and hi = f.foff.(c + 1) in
      let p = f.fpos.(s) in
      if p < 0 || p >= hi - lo then
        fail "fpos out of range for slot %d (chain %d)" s c;
      if owner.(lo + p) >= 0 then
        fail "chain %d position %d claimed by two slots" c p;
      owner.(lo + p) <- s
    end
  done;
  for e = 0 to n_fedges - 1 do
    if owner.(e) < 0 then fail "chain position %d has no owning slot" e
  done;
  (* Every chain edge must restate an existing 1-edge span verbatim, with
     the exact simulated cost the ordinary dispatch charges to resolve it
     (a 1-edge span costs one search step under binary search, hot-prefix
     scan and IC hit alike, or its precomputed edge_cost when repacked). *)
  for e = 0 to n_fedges - 1 do
    let s = owner.(e) in
    let lo = t.offsets.(s) and hi = t.offsets.(s + 1) in
    if hi - lo <> 1 then fail "chained slot %d does not have exactly 1 edge" s;
    if t.labels.(lo) <> f.fsig.(e) then
      fail "fsig mismatch at slot %d (chain edge %d)" s e;
    if t.targets.(lo) <> f.ftgt.(e) then
      fail "ftgt mismatch at slot %d (chain edge %d)" s e;
    if f.ftgt.(e) = 0 then fail "chain edge %d targets NTE" e;
    let expect =
      if t.repacked then t.edge_cost.(lo) else cost_search_step
    in
    if f.fecost.(e) <> expect then
      fail "fecost mismatch at chain edge %d (%d, dispatch charges %d)" e
        f.fecost.(e) expect
  done;
  (* Linkage: following a chain's edges walks its member slots in
     position order; a cyclic chain's last edge re-enters position 0. *)
  for c = 0 to n_chains - 1 do
    let lo = f.foff.(c) and hi = f.foff.(c + 1) in
    for e = lo to hi - 2 do
      if f.ftgt.(e) <> owner.(e + 1) then
        fail "chain %d edge %d does not link to the next member" c (e - lo)
    done;
    if f.fcyc.(c) = 1 && f.ftgt.(hi - 1) <> owner.(lo) then
      fail "cyclic chain %d does not close on its first member" c
  done;
  (* A fresh sibling (as {!dup}: own counters, own IC) carrying the
     overlay, so attaching fusion never aliases live mutable state. *)
  { (dup t) with fusion = Some f }

let fusion_of t = t.fusion

let is_fused t = t.fusion <> None

let n_chains t =
  match t.fusion with None -> 0 | Some f -> Array.length f.foff - 1

let fused_edges t =
  match t.fusion with
  | None -> 0
  | Some f -> f.foff.(Array.length f.foff - 1)

let n_cyclic_chains t =
  match t.fusion with
  | None -> 0
  | Some f -> Array.fold_left ( + ) 0 f.fcyc

let chain_lengths t =
  match t.fusion with
  | None -> [||]
  | Some f ->
      Array.init
        (Array.length f.foff - 1)
        (fun c -> f.foff.(c + 1) - f.foff.(c))

let check t auto =
  let fresh = freeze auto in
  let a = to_raw t and b = to_raw fresh in
  if
    a.offsets = b.offsets && a.labels = b.labels && a.targets = b.targets
    && a.state_trace = b.state_trace
    && a.state_tbb = b.state_tbb
    && a.state_start = b.state_start
    && a.state_insns = b.state_insns
    && a.hash_keys = b.hash_keys && a.hash_vals = b.hash_vals
    && a.hot_len = b.hot_len && a.orig_of = b.orig_of
  then Ok ()
  else Error "packed image is stale: the automaton changed since freeze"

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
type edge_profile = {
  visits : int array;
  taken : int array;
  misses : int array;
}

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

   Every image carries:
   - [hot_len]: per-slot length of the most-taken-first linear prefix of
     the span (the remainder stays label-sorted for binary search); all
     zero on a flat image;
   - [edge_cost] / [miss_cost]: the simulated cycles {!step} charges to
     resolve each edge / to miss the whole span, derived from the layout
     once so every engine charges from the same table;
   - [orig_of] / [slot_of]: the slot <-> original-state-id permutation
     (reporting translates at the boundary; replay runs in slot space),
     the identity on a flat image, and [edge_orig] its edge analogue
     (pooled edge -> its index in the flat image), which replay counts
     in.
   Nothing in [t] mutates after construction: replay writes only the
   caller's counters and cycle accumulator. *)
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
  edge_orig : int array;
  edge_cost : int array;
  miss_cost : int array;
  fusion : fusion option; (* immutable overlay *)
  repacked : bool;
  mask : int; (* Array.length hash_keys - 1 *)
  auto : Automaton.t option;
}

(* Cost constants. A binary-search halving is a compare plus a conditional
   move on cache-resident arrays (~1); the hash path pays the multiply +
   mask (~2) plus one probe compare per slot examined; an NTE miss does the
   same cold-code bookkeeping as the reference engine. A hot-prefix probe
   is the same compare as a halving, so it also costs [cost_search_step]. *)
let cost_search_step = 1

let cost_hash_base = 2

let cost_hash_probe = 1

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

(* What the scan charges, precomputed so {!step}, the compiled closures
   and chain fusion all charge a resolution with one table load:
   - a hot-prefix edge at position j costs its j+1 linear probes;
   - a tail edge costs the whole prefix (k probes) plus the binary search
     over the m tail labels (halvings m + 1);
   - a span miss costs the same full scan (prefix + search), after which
     the hash path charges its own costs on top.
   A flat image is the k = 0 case: every edge and every miss of an
   m-edge span costs halvings m + 1, an empty span nothing. *)
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

(* Flat-layout edge ids from any layout: original state [o]'s span starts
   where the spans of states [0 .. o-1] end, in label order (labels are
   distinct within a span, so the rank is well defined). *)
let derive_edge_orig offsets labels orig_of slot_of =
  let n_slots = Array.length offsets - 1 in
  let deg s = offsets.(s + 1) - offsets.(s) in
  let orig_off = Array.make (n_slots + 1) 0 in
  for o = 0 to n_slots - 1 do
    orig_off.(o + 1) <- orig_off.(o) + deg slot_of.(o)
  done;
  let edge_orig = Array.make (Array.length labels) 0 in
  for s = 0 to n_slots - 1 do
    let lo = offsets.(s) in
    let order = Array.init (deg s) (fun k -> lo + k) in
    Array.sort (fun a b -> Int.compare labels.(a) labels.(b)) order;
    Array.iteri (fun rank e -> edge_orig.(e) <- orig_off.(orig_of.(s)) + rank) order
  done;
  edge_orig

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
  let edge_orig = derive_edge_orig offsets labels orig_of slot_of in
  let edge_cost, miss_cost = derive_costs offsets hot_len in
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
    edge_orig;
    edge_cost;
    miss_cost;
    fusion = None;
    repacked;
    mask = Array.length hash_keys - 1;
    auto;
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

(* An image is immutable, so a copy is the image itself. *)
let dup t = t

let n_slots t = Array.length t.offsets - 1

let n_states t =
  Array.fold_left (fun acc tr -> if tr >= 0 then acc + 1 else acc) 0 t.state_trace

let n_edges t = Array.length t.labels

let n_heads t =
  Array.fold_left (fun acc k -> if k >= 0 then acc + 1 else acc) 0 t.hash_keys

let automaton t = t.auto

let is_repacked t = t.repacked

let hot_edges t = Array.fold_left ( + ) 0 t.hot_len

let orig_state t s =
  if s >= 0 && s < Array.length t.orig_of then t.orig_of.(s) else s

let slot_of_state t s =
  if s >= 0 && s < Array.length t.slot_of then t.slot_of.(s) else s

let edge_orig t e = t.edge_orig.(e)

(* Edge counters, in original-id space: taken per flat-layout edge, then
   hash hits per source state, then hash misses per source state. *)
let n_counters t = n_edges t + (2 * n_slots t)

let check_counters who t counts =
  if Array.length counts <> n_counters t then
    invalid_arg (who ^ ": counter array does not match the image")

(* A span miss is a hash hit or a hash miss, so the TEAEP1 [misses] is
   their sum and [visits] adds the edges taken. *)
let edge_profile t counts =
  check_counters "Packed.edge_profile" t counts;
  let n = n_slots t and ne = n_edges t in
  let taken = Array.sub counts 0 ne in
  let misses = Array.init n (fun o -> counts.(ne + o) + counts.(ne + n + o)) in
  let visits = Array.copy misses in
  for s = 0 to n - 1 do
    let o = t.orig_of.(s) in
    for e = t.offsets.(s) to t.offsets.(s + 1) - 1 do
      visits.(o) <- visits.(o) + taken.(t.edge_orig.(e))
    done
  done;
  { visits; taken; misses }

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
   A helper that charges ([probe]) does so into the caller's [cycles] at
   its terminal case, so the accounting is identical to the obvious
   loop. *)

(* Branchless lower bound over a sorted span. It charges nothing: the
   resolution cost comes from the [edge_cost]/[miss_cost] tables. *)
let rec lower_bound labels pc base len =
  if len <= 1 then base
  else
    let half = len lsr 1 in
    let base =
      if Array.unsafe_get labels (base + half) <= pc then base + half else base
    in
    lower_bound labels pc base (len - half)

let rec scan_prefix labels pc i stop =
  if i >= stop then -1
  else if Array.unsafe_get labels i = pc then i
  else scan_prefix labels pc (i + 1) stop

(* Open-addressing probe; returns the head state or -1, charging one
   [cost_hash_probe] per slot examined (terminal slot included). *)
let rec probe cycles keys vals mask pc i cost =
  let k = Array.unsafe_get keys i in
  if k = pc then begin
    cycles := !cycles + cost;
    Array.unsafe_get vals i
  end
  else if k < 0 then begin
    cycles := !cycles + cost;
    -1
  end
  else probe cycles keys vals mask pc ((i + 1) land mask) (cost + cost_hash_probe)

(* Shared cold tail: hash the PC and probe for a trace head, charging the
   hash-path costs and bumping the source's hash-hit or hash-miss
   counter ([hc] is the hit counter's index; the miss counter sits
   [n_slots] above it). *)
let step_hash t counts cycles m hc pc =
  cycles := !cycles + cost_hash_base;
  let c0 = !cycles in
  let found =
    probe cycles t.hash_keys t.hash_vals t.mask pc (hash_pc t.mask pc)
      cost_hash_probe
  in
  (* [probe] charges [cost_hash_probe] (= 1) per slot examined, so the
     cycles delta is exactly the probe length. *)
  (match m with
  | None -> ()
  | Some m ->
      Tea_telemetry.Metrics.observe_value m "packed.hash_probe_len"
        ((!cycles - c0) / cost_hash_probe));
  if found >= 0 then begin
    (match m with
    | None -> ()
    | Some m -> Tea_telemetry.Metrics.count m "packed.global_hit" 1);
    counts.(hc) <- counts.(hc) + 1;
    found
  end
  else begin
    (match m with
    | None -> ()
    | Some m -> Tea_telemetry.Metrics.count m "packed.global_miss" 1);
    let mi = hc + n_slots t in
    counts.(mi) <- counts.(mi) + 1;
    cycles := !cycles + Transition.cost_nte_miss;
    Automaton.nte
  end

(* One dispatch for every layout: the hot prefix (empty on a flat image),
   then binary search over the sorted tail, then the hash path. The
   charge is the layout's precomputed [edge_cost] / [miss_cost]; one
   count goes to the resolved edge, the hash hit or the hash miss, in
   [counts]' original-id layout. *)
let step t counts cycles state pc =
  if state < 0 || state + 1 >= Array.length t.offsets then
    invalid_arg "Packed.step: state id outside the frozen image";
  (* [m] is [None] whenever telemetry is off, so the disabled per-step
     cost is one atomic load and the option matches below. *)
  let m = Tea_telemetry.Probe.metrics () in
  let lo = Array.unsafe_get t.offsets state in
  let hi = Array.unsafe_get t.offsets (state + 1) in
  let tl = lo + Array.unsafe_get t.hot_len state in
  let e =
    let e = scan_prefix t.labels pc lo tl in
    if e >= 0 || hi <= tl then e
    else
      let b = lower_bound t.labels pc tl (hi - tl) in
      if Array.unsafe_get t.labels b = pc then b else -1
  in
  if e >= 0 then begin
    cycles := !cycles + Array.unsafe_get t.edge_cost e;
    (match m with
    | None -> ()
    | Some m -> Tea_telemetry.Metrics.count m "packed.in_trace_hit" 1);
    let oe = Array.unsafe_get t.edge_orig e in
    counts.(oe) <- counts.(oe) + 1;
    Array.unsafe_get t.targets e
  end
  else begin
    cycles := !cycles + Array.unsafe_get t.miss_cost state;
    step_hash t counts cycles m (n_edges t + Array.unsafe_get t.orig_of state) pc
  end

(* The precomputed resolution costs, for the passes that must charge
   exactly what {!step} charges without stepping: compiled dispatch and
   chain fusion. *)
let resolution_costs t = (t.edge_cost, t.miss_cost)

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
  (* slot 0 is NTE, where every replay starts *)
  if n_slots < 1 then fail "image has no NTE slot";
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
  Array.iter (fun l -> if l < 0 then fail "negative edge label") r.labels;
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
  (* every probe loop stops only at a match or an empty slot, so a full
     table would loop forever on an absent PC *)
  if not (Array.exists (fun k -> k < 0) r.hash_keys) then
    fail "hash table has no empty slot";
  Array.iteri
    (fun i k ->
      (* a trace head is a real state: NTE (slot 0) never enters one *)
      if k >= 0 && (r.hash_vals.(i) < 1 || r.hash_vals.(i) >= n_slots) then
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
     the exact simulated cost the ordinary dispatch charges to resolve it:
     its precomputed edge_cost. *)
  for e = 0 to n_fedges - 1 do
    let s = owner.(e) in
    let lo = t.offsets.(s) and hi = t.offsets.(s + 1) in
    if hi - lo <> 1 then fail "chained slot %d does not have exactly 1 edge" s;
    if t.labels.(lo) <> f.fsig.(e) then
      fail "fsig mismatch at slot %d (chain edge %d)" s e;
    if t.targets.(lo) <> f.ftgt.(e) then
      fail "ftgt mismatch at slot %d (chain edge %d)" s e;
    if f.ftgt.(e) = 0 then fail "chain edge %d targets NTE" e;
    let expect = t.edge_cost.(lo) in
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
  { t with fusion = Some f }

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
  if to_raw t = to_raw (freeze auto) then Ok ()
  else Error "packed image is stale: the automaton changed since freeze"

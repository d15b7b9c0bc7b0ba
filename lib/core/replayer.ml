module Block = Tea_cfg.Block

type engine =
  | Reference of Transition.t
  | Compiled of Compiled.t

type t = {
  mutable engine : engine; (* swapped in place by [rebind] *)
  auto : Automaton.t option;
  mutable counts : int array;
      (* reference: count per state id, grown on demand; compiled: the
         original-id edge counters ({!Packed.n_counters}) *)
  bounds : int array;
      (* compiled: per original state id, runs ended there minus runs
         started there ([create] and [set_state]); empty for reference *)
  mutable state : Automaton.state;
  mutable covered : int;
  mutable total : int;
  mutable enters : int;
  mutable exits : int;
  mutable zeros : int array; (* cached all-zero insns batch, grown on demand *)
}

let make engine auto counts bounds =
  {
    engine;
    auto;
    counts;
    bounds;
    state = Automaton.nte;
    covered = 0;
    total = 0;
    enters = 0;
    exits = 0;
    zeros = [||];
  }

let create trans =
  make (Reference trans) (Some (Transition.automaton trans)) (Array.make 256 0)
    [||]

(* The first run starts at NTE. *)
let create_compiled compiled =
  let base = Compiled.base compiled in
  let bounds = Array.make (Packed.n_slots base) 0 in
  bounds.(Automaton.nte) <- -1;
  make (Compiled compiled) (Packed.automaton base)
    (Array.make (Packed.n_counters base) 0)
    bounds

let engine t = t.engine

let grow_counts t need =
  let n = ref (Array.length t.counts) in
  while !n <= need do
    n := !n * 2
  done;
  let fresh = Array.make !n 0 in
  Array.blit t.counts 0 fresh 0 (Array.length t.counts);
  t.counts <- fresh

(* Per-step accounting, shared by {!feed_addr} and the reference batch
   loop; the reference engine also counts the state ([account_ref]). *)
let[@inline] account t prev next insns =
  t.state <- next;
  t.total <- t.total + insns;
  if next <> Automaton.nte then t.covered <- t.covered + insns;
  if prev = Automaton.nte && next <> Automaton.nte then t.enters <- t.enters + 1;
  if prev <> Automaton.nte && next = Automaton.nte then t.exits <- t.exits + 1

let[@inline] account_ref t prev next insns =
  account t prev next insns;
  if next <> Automaton.nte then begin
    if next >= Array.length t.counts then grow_counts t next;
    Array.unsafe_set t.counts next (1 + Array.unsafe_get t.counts next)
  end

(* Telemetry: the replayer-level counters (steps, NTE entries/exits).
   The per-step path emits them directly; the batch paths flush one delta
   per batch. *)
let probe_step prev next =
  match Tea_telemetry.Probe.metrics () with
  | None -> ()
  | Some m ->
      Tea_telemetry.Metrics.count m "replayer.steps" 1;
      if prev = Automaton.nte && next <> Automaton.nte then
        Tea_telemetry.Metrics.count m "replayer.trace_enters" 1;
      if prev <> Automaton.nte && next = Automaton.nte then
        Tea_telemetry.Metrics.count m "replayer.trace_exits" 1

let feed_addr t ?(insns = 0) addr =
  let prev = t.state in
  (match t.engine with
  | Reference trans ->
      account_ref t prev (Transition.step trans prev addr) insns
  | Compiled c ->
      (* single-step path: the base image's interpreted step is
         observationally identical (and updates the same stats and
         counters), so the compiled closures stay batch-only *)
      account t prev (Packed.step (Compiled.base c) t.counts prev addr) insns);
  probe_step prev t.state

let feed t (b : Block.t) = feed_addr t ~insns:(Block.n_insns b) b.Block.start

(* Batch replay through the closure-threaded compiled image: the
   threading itself lives in {!Compiled}; this wrapper validates the
   entry state, hands over the counter array (every closure writes
   straight into it), applies the batch's deltas and flushes the same
   telemetry/stats {!Packed.step} bumps one at a time. In-trace hits are
   derived ([len - hash hits - hash misses]): every step resolves
   in-span / on-chain, in the global hash, or not at all — the three
   dispatch tiers, whose totals an installed {!Tierstat} tally gets once
   per batch. *)
let run_compiled t c addrs ins ~off ~len =
  let base = Compiled.base c in
  let n_slots = Packed.n_slots base in
  if t.state < 0 || t.state >= n_slots then
    invalid_arg "Replayer.feed_run: state id outside the frozen image";
  let d = Compiled.run c ~state:t.state ~counts:t.counts ~off addrs ins ~len in
  let in_hits = len - d.Compiled.d_g_hits - d.Compiled.d_g_miss in
  Tierstat.add_totals ~hash:d.Compiled.d_g_hits ~miss:d.Compiled.d_g_miss
    ~compiled:in_hits;
  (match Tea_telemetry.Probe.metrics () with
  | None -> ()
  | Some m ->
      let open Tea_telemetry.Metrics in
      count m "replayer.steps" len;
      count m "replayer.trace_enters" d.Compiled.d_enters;
      count m "replayer.trace_exits" d.Compiled.d_exits;
      count m "packed.in_trace_hit" in_hits;
      count m "packed.global_hit" d.Compiled.d_g_hits;
      count m "packed.global_miss" d.Compiled.d_g_miss;
      if Packed.is_fused base then
        count m "packed.fused_steps" d.Compiled.d_fused_steps);
  t.state <- d.Compiled.d_state;
  t.covered <- t.covered + d.Compiled.d_covered;
  t.total <- t.total + d.Compiled.d_total;
  t.enters <- t.enters + d.Compiled.d_enters;
  t.exits <- t.exits + d.Compiled.d_exits;
  let st = Packed.stats base in
  st.Transition.steps <- st.Transition.steps + len;
  st.Transition.in_trace_hits <- st.Transition.in_trace_hits + in_hits;
  st.Transition.global_hits <- st.Transition.global_hits + d.Compiled.d_g_hits;
  st.Transition.global_misses <-
    st.Transition.global_misses + d.Compiled.d_g_miss;
  Packed.add_cycles base d.Compiled.d_cycles

let no_insns = [||]

let feed_run t ?(off = 0) ?insns addrs ~len =
  if len < 0 || off < 0 || off + len > Array.length addrs then
    invalid_arg "Replayer.feed_run: len out of range";
  (match insns with
  | Some a when Array.length a < off + len ->
      invalid_arg "Replayer.feed_run: insns array shorter than len"
  | _ -> ());
  (* The engine match is hoisted out of the loop: one branchy dispatch per
     batch, not one per block. *)
  match t.engine with
  | Compiled c ->
      (* reuse a cached all-zero scratch instead of allocating a fresh
         array on every no-insns batch *)
      let ins =
        match insns with
        | Some a -> a
        | None ->
            if len = 0 then no_insns
            else begin
              if Array.length t.zeros < off + len then
                t.zeros <- Array.make (off + len) 0;
              t.zeros
            end
      in
      run_compiled t c addrs ins ~off ~len
  | Reference trans ->
      let enters0 = t.enters and exits0 = t.exits in
      (match insns with
      | Some ins ->
          for i = off to off + len - 1 do
            let prev = t.state in
            let next = Transition.step trans prev (Array.unsafe_get addrs i) in
            account_ref t prev next (Array.unsafe_get ins i)
          done
      | None ->
          for i = off to off + len - 1 do
            let prev = t.state in
            let next = Transition.step trans prev (Array.unsafe_get addrs i) in
            account_ref t prev next 0
          done);
      (match Tea_telemetry.Probe.metrics () with
      | None -> ()
      | Some m ->
          let open Tea_telemetry.Metrics in
          count m "replayer.steps" len;
          count m "replayer.trace_enters" (t.enters - enters0);
          count m "replayer.trace_exits" (t.exits - exits0))

(* Run boundaries by original state id, off the hot path: the old state
   ends a run, the new one starts one. An id outside the image counts
   nothing (its run can take no step). *)
let bound t s delta =
  match t.engine with
  | Compiled c when s < Array.length t.bounds ->
      let o = Packed.orig_state (Compiled.base c) s in
      t.bounds.(o) <- t.bounds.(o) + delta
  | _ -> ()

let set_state t s =
  if s < 0 then invalid_arg "Replayer.set_state: negative state id";
  bound t t.state 1;
  bound t s (-1);
  t.state <- s

let state t = t.state

let covered_insns t = t.covered

let total_insns t = t.total

let coverage t =
  if t.total = 0 then 0.0 else float_of_int t.covered /. float_of_int t.total

let trace_enters t = t.enters

let trace_exits t = t.exits

(* Per-state counts by original id: the reference engine's own, or
   derived from the compiled engine's counters. Within one run every
   state but the first is landed in once more than it is left, so
   landed = visits + run ends - run starts, where the current state ends
   the last run. NTE's count is 0. *)
let state_counts t =
  match t.engine with
  | Reference _ -> Array.copy t.counts
  | Compiled c ->
      let base = Compiled.base c in
      let landed =
        Array.map2 ( + ) (Packed.edge_profile base t.counts).Packed.visits
          t.bounds
      in
      if t.state < Array.length landed then begin
        let o = Packed.orig_state base t.state in
        landed.(o) <- landed.(o) + 1
      end;
      landed.(Automaton.nte) <- 0;
      landed

let tbb_counts t =
  let counts = state_counts t in
  let acc = ref [] in
  for s = Array.length counts - 1 downto 0 do
    if counts.(s) > 0 then acc := (s, counts.(s)) :: !acc
  done;
  !acc

let edge_profile t =
  match t.engine with
  | Compiled c -> Packed.edge_profile (Compiled.base c) t.counts
  | Reference _ -> invalid_arg "Replayer.edge_profile: reference engine"

let tiers t =
  match t.engine with
  | Compiled c -> Tierstat.of_counters (Compiled.base c) t.counts
  | Reference _ -> invalid_arg "Replayer.tiers: reference engine"

let add_edge_counts t acc =
  match t.engine with
  | Compiled _ ->
      if Array.length acc <> Array.length t.counts then
        invalid_arg "Replayer.add_edge_counts: counter arrays differ";
      Array.iteri (fun i c -> acc.(i) <- acc.(i) + c) t.counts
  | Reference _ -> invalid_arg "Replayer.add_edge_counts: reference engine"

let automaton t = t.auto

let stats t =
  match t.engine with
  | Reference trans -> Transition.stats trans
  | Compiled c -> Packed.stats (Compiled.base c)

let cycles t =
  match t.engine with
  | Reference trans -> Transition.cycles trans
  | Compiled c -> Packed.cycles (Compiled.base c)

let trace_profile t id =
  match t.auto with
  | None -> []
  | Some auto ->
      let counts = state_counts t in
      List.filter_map
        (fun s ->
          match Automaton.state_info auto s with
          | Some info ->
              Some
                ( info.Automaton.tbb_index,
                  if s < Array.length counts then counts.(s) else 0 )
          | None -> None)
        (Automaton.states_of_trace auto id)
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let transition t =
  match t.engine with
  | Reference trans -> trans
  | Compiled _ -> invalid_arg "Replayer.transition: compiled engine"

(* Hot image swap. The edge counters are in original-id space and stay
   as they are; the current state crosses the orig-id permutation (slot
   [s] of the old image and slot [slot_of_state new (orig_state old s)]
   of the new one are the same automaton state, NTE pinned to slot 0);
   engine stats and cycles are carried additively onto the new image, so
   a snapshot taken right after rebind equals one taken right before. *)
let image_of_engine who = function
  | Compiled c -> Compiled.base c
  | Reference _ -> invalid_arg (who ^ ": reference engine cannot be swapped")

let rebind t engine' =
  let old_img = image_of_engine "Replayer.rebind" t.engine in
  let new_img = image_of_engine "Replayer.rebind" engine' in
  if
    Packed.n_slots new_img <> Packed.n_slots old_img
    || Packed.n_edges new_img <> Packed.n_edges old_img
  then invalid_arg "Replayer.rebind: images describe different automata";
  if t.state <> Automaton.nte && t.state < Packed.n_slots old_img then
    t.state <- Packed.slot_of_state new_img (Packed.orig_state old_img t.state);
  (* carry engine-side accounting onto the new image *)
  let so = Packed.stats old_img and sn = Packed.stats new_img in
  sn.Transition.steps <- sn.Transition.steps + so.Transition.steps;
  sn.Transition.in_trace_hits <-
    sn.Transition.in_trace_hits + so.Transition.in_trace_hits;
  sn.Transition.cache_hits <- sn.Transition.cache_hits + so.Transition.cache_hits;
  sn.Transition.global_hits <-
    sn.Transition.global_hits + so.Transition.global_hits;
  sn.Transition.global_misses <-
    sn.Transition.global_misses + so.Transition.global_misses;
  Packed.add_cycles new_img (Packed.cycles old_img);
  t.engine <- engine'

(* Everything a replayer accumulates, as one immutable value. Every field
   is an integer total (the counts list is per-state totals), so two
   snapshots of disjoint step ranges merge by pointwise addition — the
   algebra Tea_parallel.Profile builds on. *)
type snapshot = {
  counts : (Automaton.state * int) list;
  covered : int;
  total : int;
  enters : int;
  exits : int;
  steps : int;
  in_trace_hits : int;
  cache_hits : int;
  global_hits : int;
  global_misses : int;
  cycles : int;
}

let snapshot (t : t) =
  let st = stats t in
  {
    counts = tbb_counts t;
    covered = t.covered;
    total = t.total;
    enters = t.enters;
    exits = t.exits;
    steps = st.Transition.steps;
    in_trace_hits = st.Transition.in_trace_hits;
    cache_hits = st.Transition.cache_hits;
    global_hits = st.Transition.global_hits;
    global_misses = st.Transition.global_misses;
    cycles = cycles t;
  }

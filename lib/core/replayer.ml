module Block = Tea_cfg.Block

type engine =
  | Reference of Transition.t
  | Compiled of Compiled.t

type t = {
  mutable engine : engine; (* swapped in place by [rebind] *)
  auto : Automaton.t option;
  mutable counts : int array; (* execution count per state id, grown on demand *)
  mutable state : Automaton.state;
  mutable covered : int;
  mutable total : int;
  mutable enters : int;
  mutable exits : int;
  mutable zeros : int array; (* cached all-zero insns batch, grown on demand *)
}

let make engine auto =
  {
    engine;
    auto;
    counts = Array.make 256 0;
    state = Automaton.nte;
    covered = 0;
    total = 0;
    enters = 0;
    exits = 0;
    zeros = [||];
  }

let create trans = make (Reference trans) (Some (Transition.automaton trans))

let create_compiled compiled =
  make (Compiled compiled) (Packed.automaton (Compiled.base compiled))

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
   loop. *)
let[@inline] account t prev next insns =
  t.state <- next;
  t.total <- t.total + insns;
  if next <> Automaton.nte then begin
    t.covered <- t.covered + insns;
    if next >= Array.length t.counts then grow_counts t next;
    Array.unsafe_set t.counts next (1 + Array.unsafe_get t.counts next)
  end;
  if prev = Automaton.nte && next <> Automaton.nte then t.enters <- t.enters + 1;
  if prev <> Automaton.nte && next = Automaton.nte then t.exits <- t.exits + 1

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
  let next =
    match t.engine with
    | Reference trans -> Transition.step trans prev addr
    | Compiled c ->
        (* single-step path: the base image's interpreted step is
           observationally identical (and updates the same stats), so
           the compiled closures stay batch-only *)
        Packed.step (Compiled.base c) prev addr
  in
  account t prev next insns;
  probe_step prev next

let feed t (b : Block.t) = feed_addr t ~insns:(Block.n_insns b) b.Block.start

(* Batch replay through the closure-threaded compiled image: the
   threading itself lives in {!Compiled}; this wrapper validates the
   entry state, grows the count array once (every closure writes
   straight into it), applies the batch's deltas and flushes the same
   telemetry/stats {!Packed.step} bumps one at a time. In-trace hits are
   derived ([len - hash hits - hash misses]): every step resolves
   in-span / on-chain, in the global hash, or not at all. *)
let run_compiled t c addrs ins ~off ~len =
  let base = Compiled.base c in
  let n_slots = Packed.n_slots base in
  if t.state < 0 || t.state >= n_slots then
    invalid_arg "Replayer.feed_run: state id outside the frozen image";
  if Array.length t.counts < n_slots then grow_counts t (n_slots - 1);
  let d = Compiled.run c ~state:t.state ~counts:t.counts ~off addrs ins ~len in
  let in_hits = len - d.Compiled.d_g_hits - d.Compiled.d_g_miss in
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
            account t prev next (Array.unsafe_get ins i)
          done
      | None ->
          for i = off to off + len - 1 do
            let prev = t.state in
            let next = Transition.step trans prev (Array.unsafe_get addrs i) in
            account t prev next 0
          done);
      (match Tea_telemetry.Probe.metrics () with
      | None -> ()
      | Some m ->
          let open Tea_telemetry.Metrics in
          count m "replayer.steps" len;
          count m "replayer.trace_enters" (t.enters - enters0);
          count m "replayer.trace_exits" (t.exits - exits0))

let set_state t s =
  if s < 0 then invalid_arg "Replayer.set_state: negative state id";
  t.state <- s

let state t = t.state

let covered_insns t = t.covered

let total_insns t = t.total

let coverage t =
  if t.total = 0 then 0.0 else float_of_int t.covered /. float_of_int t.total

let trace_enters t = t.enters

let trace_exits t = t.exits

(* Replay runs in the engine's own id space; on a repacked image that is
   the permuted slot space, so reporting translates back to original
   automaton ids here — the one boundary — keeping TBB mappings
   byte-identical to the flat engine's. *)
let repacked_of t =
  match t.engine with
  | Compiled c when Packed.is_repacked (Compiled.base c) ->
      Some (Compiled.base c)
  | _ -> None

let tbb_counts t =
  let acc = ref [] in
  (match repacked_of t with
  | None ->
      for s = Array.length t.counts - 1 downto 0 do
        if t.counts.(s) > 0 then acc := (s, t.counts.(s)) :: !acc
      done
  | Some p ->
      for s = Array.length t.counts - 1 downto 0 do
        if t.counts.(s) > 0 then
          acc := (Packed.orig_state p s, t.counts.(s)) :: !acc
      done;
      acc := List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc);
  !acc

let count_of_state t s =
  let s =
    match repacked_of t with None -> s | Some p -> Packed.slot_of_state p s
  in
  if s >= 0 && s < Array.length t.counts then t.counts.(s) else 0

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
      List.filter_map
        (fun s ->
          match Automaton.state_info auto s with
          | Some info -> Some (info.Automaton.tbb_index, count_of_state t s)
          | None -> None)
        (Automaton.states_of_trace auto id)
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let transition t =
  match t.engine with
  | Reference trans -> trans
  | Compiled _ -> invalid_arg "Replayer.transition: compiled engine"

(* Hot image swap. Replay state lives in three places: the per-slot
   counts array and current state (slot space of the old image), and the
   engine stats/cycles (accumulated on the old image's counters). All of
   it survives a layout change through the orig-id permutation: slot
   [s] of the old image and slot [slot_of_state new (orig_state old s)]
   of the new one are the same automaton state, and NTE is pinned to
   slot 0 in every layout. Stats and cycles are carried additively onto
   the new image so a snapshot taken right after rebind equals one taken
   right before — the swap is observationally a no-op. *)
let image_of_engine who = function
  | Compiled c -> Compiled.base c
  | Reference _ -> invalid_arg (who ^ ": reference engine cannot be swapped")

let rebind t engine' =
  let old_img = image_of_engine "Replayer.rebind" t.engine in
  let new_img = image_of_engine "Replayer.rebind" engine' in
  if Packed.n_slots new_img <> Packed.n_slots old_img then
    invalid_arg "Replayer.rebind: images describe different automata";
  let n_slots = Packed.n_slots old_img in
  (* counts: old slot space -> orig ids -> new slot space *)
  let fresh = Array.make (max (Array.length t.counts) (max n_slots 256)) 0 in
  let limit = min (Array.length t.counts) n_slots in
  for s = 0 to limit - 1 do
    let c = Array.unsafe_get t.counts s in
    if c > 0 then begin
      let s' = Packed.slot_of_state new_img (Packed.orig_state old_img s) in
      fresh.(s') <- fresh.(s') + c
    end
  done;
  t.counts <- fresh;
  if t.state <> Automaton.nte && t.state < n_slots then
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

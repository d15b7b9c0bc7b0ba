(** The packed TEA replay engine: a freeze-time compilation of a built
    automaton into immutable flat int arrays.

    The reference {!Transition} engine walks per-state edge *lists* and a
    B+ tree (or linked list) on every block-to-block transfer — faithful to
    the paper's §4.2 cost discussion, but far from "as fast as the hardware
    allows". [Packed] compiles the same DFA once:

    - states stay the automaton's own dense ids (NTE = 0, tombstones keep
      empty spans), so replayed state sequences are bit-identical to the
      reference engine's;
    - every state's in-trace transitions become a sorted (label, target)
      span inside one shared pair of arrays, resolved by a branchless
      binary search;
    - the NTE / cross-trace path replaces the B+ tree walk with a global
      open-addressing hash from trace-head PC to entry state.

    Freezing is legal whenever the automaton is quiescent: a frozen image
    does NOT observe later {!Automaton.add_trace} / [remove_trace] calls
    (use {!check} to detect staleness, or re-{!freeze}). This mirrors the
    reference engine's own [Transition.refresh] contract.

    An image is an immutable value: replay writes only the caller's
    counter array ({!n_counters}) and cycle accumulator, so one image
    serves any number of replayers on any number of domains. A
    replayer's {!Transition.stats} are derived from its counters
    ({!Replayer.stats}). A packed image has no local caches: resolutions
    the reference engine splits between [cache_hits] and [global_hits]
    all land in [global_hits] here ([cache_hits] stays 0); [steps],
    [in_trace_hits] and [global_misses] match the reference engine
    exactly.

    {2 Repacked images}

    {!Tea_opt.Repack} produces a second flavor of image
    ({!is_repacked} = true) from a replay profile: states renumbered
    hotness-descending (NTE pinned at slot 0) and each edge span split
    into a most-taken-first linear-scan {e hot prefix} plus a
    label-sorted binary-search tail. Replay runs in {e slot} space; the
    {!orig_state} / {!slot_of_state} permutation translates ids at
    reporting boundaries, so externally visible TBB mappings are
    identical to the flat image's.

    A flat image is the special case whose hot prefixes are all empty,
    so there is one dispatch and one cost table for both: every image
    precomputes what resolving each edge and missing each span costs
    ({!resolution_costs}), and {!step}, {!Compiled} and
    {!Tea_opt.Fuse} all charge from it. Simulated cycles are therefore a
    pure function of the layout and the replayed stream, which is what
    keeps replay output the same at any job count.

    {2 Fused images}

    {!Tea_opt.Fuse} attaches a third, purely descriptive layer: a
    {!fusion} overlay marking maximal single-successor chains of states
    (and cycles of such chains) whose next transition is forced whenever
    the incoming PC matches the chain's signature. {!step} ignores the
    overlay entirely — only {!Compiled}'s chain matchers exploit it,
    matching a run of upcoming PCs against the signature with one
    comparison loop and charging the precomputed per-edge costs in bulk.
    {!with_fusion} re-validates the overlay against the base image
    (every chain edge must restate an existing 1-edge span verbatim,
    with the exact cost the ordinary dispatch charges), so a fused image
    — even one reconstituted from TEAPK3 bytes — can never replay
    differently from its unfused source. *)

type t

val freeze : Automaton.t -> t
(** Compile the automaton's current contents. O(states + transitions). *)

val dup : t -> t
(** The identity: an image is immutable, so it needs no copy. *)

val step :
  t -> int array -> int ref -> Automaton.state -> int -> Automaton.state
(** [step t counts cycles state pc] — the DFA transition on label [pc].
    Same semantics as {!Transition.step}: in-trace edge first, then
    trace-head lookup, else NTE. Bumps the step's one counter in
    [counts] (see {!n_counters}) exactly as the {!Compiled} batch does,
    and adds the step's simulated cycles to [cycles] (packed cost model:
    one cycle per binary-search halving or linear hot-prefix probe,
    {!cost_hash_base} plus one cycle per probe on the hash path, and the
    engine-independent {!Transition.cost_nte_miss} on misses). The
    in-trace resolution order is hot prefix (empty on a flat image),
    then binary search over the sorted tail; the charge comes from
    {!resolution_costs}.
    @raise Invalid_argument on a state id the frozen image never
    contained, or a [counts] array too short for the image. *)

val automaton : t -> Automaton.t option
(** The automaton this image was frozen from; [None] when the image was
    reconstituted from bytes ({!Serialize.packed_of_binary}) — stepping
    and coverage work, per-trace profiles don't. *)

val n_slots : t -> int
(** Array slots (live states + tombstones + NTE); state ids are
    [0 .. n_slots - 1]. *)

val n_states : t -> int
(** Live states compiled in (tombstones excluded, NTE not counted). *)

val n_edges : t -> int
(** In-trace transitions in the shared span array. *)

val n_heads : t -> int
(** Entries in the trace-head hash. *)

val head_of : t -> int -> Automaton.state option
(** Pure hash lookup (no stats side effects), for tests and tools. *)

val hash_pc : int -> int -> int
(** [hash_pc mask pc] — the Fibonacci-multiplicative home slot of [pc] in
    a power-of-two hash of size [mask + 1]. The single definition behind
    head insertion, {!step}, {!head_of} and {!Compiled}'s hash
    fallback. *)

val build_hash : (int * int) list -> int -> int array * int array
(** [build_hash heads n_slots] — the open-addressing (keys, vals) pair
    for a [(addr, state)] association list. Repeated addresses are
    deduplicated before sizing (last value wins, first-occurrence
    insertion order), so the layout is independent of re-insertions.
    Exported for {!Tea_opt.Repack}, which rebuilds the hash over
    renumbered states, and for white-box tests.
    @raise Invalid_argument on a negative address or out-of-range state. *)

val state_insns : t -> Automaton.state -> int
(** Block size recorded for a state (0 for NTE / unknown ids). *)

val check : t -> Automaton.t -> (unit, string) result
(** [check t auto] — is this image still an exact compilation of [auto]?
    [Error] when the automaton changed since {!freeze} (and always for a
    repacked image, whose layout is intentionally permuted). *)

(** {2 Repacked-image accessors} *)

val is_repacked : t -> bool

val hot_edges : t -> int
(** Total edges across all hot prefixes (0 for a flat image). *)

val orig_state : t -> Automaton.state -> Automaton.state
(** Slot id → original automaton state id (identity on flat images and
    out-of-range ids). *)

val slot_of_state : t -> Automaton.state -> Automaton.state
(** Original automaton state id → slot id (inverse of {!orig_state}). *)

val edge_orig : t -> int -> int
(** Pooled edge index → its index in the flat image of the same
    automaton (spans in original-state order, each sorted by label): the
    edge analogue of {!orig_state}, derived from the layout. *)

(** {2 Edge counters}

    Replay counts in one int array per replayer, in original-id space,
    so the counts mean the same on every layout and survive a hot swap
    untouched: [[0, n_edges)] times each flat-layout edge was resolved,
    then per original source state the span misses the trace-head hash
    resolved (hash hits), then per original source state the span misses
    it did not (hash misses). Every resolved block bumps exactly one
    counter; the edge profile, per-state counts
    ({!Replayer.state_counts}) and dispatch tiers
    ({!Tierstat.of_counters}) derive from them. *)

type edge_profile = {
  visits : int array;  (** per state: steps taken from it *)
  taken : int array;  (** per edge: times resolved *)
  misses : int array;  (** per state: span scans that found no edge *)
}

val n_counters : t -> int
(** [n_edges + 2 * n_slots]: the length of a counter array. *)

val edge_profile : t -> int array -> edge_profile
(** A counter array's edge profile, in original ids (the TEAEP1 layout):
    on any layout, {!Tea_opt.Repack.collect} over the flat image on the
    same walks. [misses] is hash hits plus hash misses.
    @raise Invalid_argument on a wrong-length array. *)

val resolution_costs : t -> int array * int array
(** [(edge_cost, miss_cost)]: the simulated cycles {!step} charges to
    resolve each pooled edge / to miss each slot's whole span,
    precomputed from the layout. A hot-prefix edge at position [j] costs
    [j + 1] probes; a tail edge or a miss costs the whole prefix plus
    [halvings m + 1] over the [m] tail labels (nothing for an empty
    tail). {!Compiled} and {!Tea_opt.Fuse} charge from these so their
    cycles equal {!step}'s. The arrays are shared: do not mutate. *)

(** {2 Fusion overlay} *)

(** Chain-fusion expansion tables ({!Tea_opt.Fuse}). A slot [s] with
    [fchain.(s) = c >= 0] sits at position [fpos.(s)] of chain [c]; the
    chain's edges are the pooled slice [foff.(c) .. foff.(c+1)) of
    [fsig] (the PC each forced step must observe), [ftgt] (the state it
    lands in) and [fecost] (the simulated cycles the ordinary dispatch
    charges for that resolution). [fcyc.(c) = 1] marks a chain whose
    last edge re-enters its first member — a loop the batch replay loop
    fast-forwards through, charging [k x] the per-iteration cost for [k]
    verified iterations. Unchained slots have [fchain = -1], [fpos = 0]. *)
type fusion = {
  fchain : int array;  (** per-slot chain id, -1 = unchained *)
  fpos : int array;    (** per-slot position within its chain *)
  foff : int array;    (** length chains+1; chain c's edges are
                           [foff.(c) .. foff.(c+1)) *)
  fcyc : int array;    (** per-chain: 1 iff the chain closes on itself *)
  fsig : int array;    (** pooled: expected PC per chain edge *)
  ftgt : int array;    (** pooled: successor slot per chain edge *)
  fecost : int array;  (** pooled: simulated cycles per chain edge *)
}

val with_fusion : t -> fusion -> t
(** [t] with the overlay attached ([t] itself is unchanged).
    Validates the overlay against the base arrays: chain ids/positions
    in range and bijective onto pooled slots, NTE never chained, every
    chain edge an exact restatement of a 1-edge span ([fsig]/[ftgt]
    verbatim, [fecost] equal to what the dispatch charges), chain edges
    linked member-to-member, cyclic chains closed on their first member.
    @raise Invalid_argument on any violation. *)

val fusion_of : t -> fusion option

val is_fused : t -> bool

val n_chains : t -> int

val fused_edges : t -> int
(** Total pooled chain edges (= fused original states). *)

val n_cyclic_chains : t -> int

val chain_lengths : t -> int array
(** Per-chain edge count, indexed by chain id ([[||]] unfused). *)

(** {2 Raw array image}

    The exact flat arrays, for serialization ({!Serialize}) and
    white-box tests. [of_raw] validates shape invariants (offset
    monotonicity, per-span label discipline, non-negative labels,
    targets and hash values in range, at least one empty hash slot,
    [orig_of] a permutation) and raises [Invalid_argument] on
    violation. *)

type raw = {
  offsets : int array;      (** length slots+1; state s's span is
                                [offsets.(s) .. offsets.(s+1))] *)
  labels : int array;       (** flat image: strictly increasing within
                                each span. Repacked: the span's first
                                [hot_len.(s)] labels are the hot prefix
                                (distinct, most-taken-first), the rest
                                strictly increasing. *)
  targets : int array;      (** state ids (slot ids when repacked) *)
  state_trace : int array;  (** -1 for NTE / tombstones *)
  state_tbb : int array;
  state_start : int array;
  state_insns : int array;
  hash_keys : int array;    (** power-of-two length; -1 = empty slot *)
  hash_vals : int array;
  hot_len : int array;      (** per-slot hot-prefix length; all 0 flat *)
  orig_of : int array;      (** slot → original state id; identity flat *)
}

val to_raw : t -> raw

val of_raw : ?auto:Automaton.t -> ?repacked:bool -> raw -> t
(** [repacked] (default false) selects which span discipline is
    validated (and which on-disk format {!Serialize} writes); [auto]
    re-attaches the source
    automaton (repacking preserves it so per-trace profiles keep
    working). *)

(** {2 Cost constants} (simulated cycles) *)

val cost_search_step : int
(** Per binary-search halving (branchless compare + select) and per
    hot-prefix linear probe. *)

val halvings : int -> int
(** [halvings m] — iterations of the branchless lower-bound loop over a
    span of [m] labels (= ceil(log2 m), 0 for m ≤ 1). A search therefore
    charges [(halvings m + 1) * cost_search_step]. Exported so
    {!Tea_opt.Repack}'s layout cost model is the engine's, by
    construction. *)

val cost_hash_base : int
(** Fixed cost of entering the hash path (hash computation + index). *)

val cost_hash_probe : int
(** Per open-addressing slot examined. *)

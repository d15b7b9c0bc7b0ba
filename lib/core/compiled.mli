(** Closure-threaded compiled dispatch over a packed image.

    [of_packed] specializes every state of a {!Packed} image (any
    TEAPK1/2/3 layout — it composes with repacking and fusion) into a
    preapplied OCaml closure that tests its successor PCs with
    straight-line compares in span (profile) order and tail-calls the
    successor's closure directly: no slot lookup, no tier ladder, no
    per-step image indirection. Shapes by fan-out degree:

    - degree 0: straight to the global trace-head hash;
    - degree up to 8: a short linear scan over captured span copies;
    - degree > 8: a per-state O(1) minihash finds the edge (wall-clock
      only — the simulated charge is still the edge's);
    - fused-chain members: a single matcher closure that compares the
      incoming PC run against the chain signature and accounts in bulk,
      falling through to the state's ordinary closure on a mismatch;
    - degree-1/2 states whose successors are all in-trace: compiled
      together into a straight-line region (see {!region_states}) — a
      register-resident compare loop over shared flat tables that
      crosses whole stretches of monomorphic and bimodal states
      without a single indirect jump.

    Replay through the compiled image is observationally identical to
    stepping the image with {!Packed.step} — TBB mapping, coverage,
    enter/exit counters, stats and simulated cycles (the per-step
    charges are captured from the image's {!Packed.resolution_costs} at
    build time), so cycles remain a pure function of the replayed
    stream.

    The batch-loop state (cursor, bound, cycle accumulator, the two
    loop-invariant arrays and the caller's {!rare} record) is threaded
    through the closures as arguments, so the hot paths keep it in
    registers; every closure is bounded by the threaded [stop], so
    replay over a compiled image in batches is bit-identical to one
    whole-array run. A [t] is an immutable value: everything a batch
    writes lives in the caller's counters and {!rare} record, so one
    image serves any number of replayers, on any number of domains at
    once. *)

type t

val of_packed : Packed.t -> t
(** Compile a packed image. O(states + edges); the packed image is
    retained as {!base}. *)

val base : t -> Packed.t

(** {2 Batch replay} *)

type delta = {
  d_state : int;  (** slot the batch halted in *)
  d_covered : int;
  d_total : int;
  d_enters : int;
  d_exits : int;
  d_g_hits : int;
  d_g_miss : int;
  d_fused_steps : int;
  d_cycles : int;
}
(** One batch's accumulations, as integer deltas — the additive algebra
    {!Replayer.snapshot} merges by. In-trace hits are derivable as
    [len - d_g_hits - d_g_miss]: every step resolves in-span / on-chain,
    in the global hash, or not at all. *)

type rare
(** A replayer's rare-path accumulators (NTE boundaries, hash hits and
    misses, fused steps, the batch's halt state and cycles), written by
    {!run} and read back into its {!delta}. Each replayer allocates one
    and passes it to every batch. *)

val rare : unit -> rare

val run :
  t ->
  rare ->
  state:int ->
  counts:int array ->
  ?off:int ->
  int array ->
  int array ->
  len:int ->
  delta
(** [run t r ~state ~counts ~off addrs ins ~len] replays
    [addrs.(off..off+len-1)] (with parallel per-block instruction
    counts [ins]) starting in slot [state], bumping each step's counter
    in [counts] ({!Packed.n_counters}) exactly as {!Packed.step} does;
    the dispatch tiers are read off those counters
    ({!Tierstat.of_counters}). [r] is the caller's own record: two
    batches may run on one image at the same time only with distinct
    [counts] and [r]. The caller validates [state], [off] and [len]
    ({!Replayer.feed_run} does).
    @raise Invalid_argument when [counts] has the wrong length. *)

(** {2 Image statistics} *)

val scan_cap : int
(** Largest fan-out dispatched by inline compares / linear scan; above
    it states fall back to the minihash shape. *)

val n_closures : t -> int
(** Dispatch closures built: one per state, plus one chain matcher per
    fused-chain member. *)

val degree_histogram : t -> (int * int) list
(** [(fan-out degree, number of states)], sorted by degree. *)

val fallback_states : t -> int
(** States with degree > {!scan_cap} (minihash fallback shape). *)

val chained_states : t -> int
(** States fronted by a fused-chain matcher closure. *)

val region_states : t -> int
(** States compiled into the straight-line region: in-trace fan-out-1/2
    states whose successors are all in-trace (and that no fused-chain
    matcher fronts). Their closures run a shared tight loop that tests
    each PC against the current slot's one or two successor labels and
    steps within flat tables — cursor, slot and cycle sum stay in
    registers, and control leaves only at a span miss (straight to the
    trace-head hash), a slot outside the region, or the batch bound.
    Since the loop compares exactly the span the interpreted scan
    would, at exactly its cost, observables are untouched. *)

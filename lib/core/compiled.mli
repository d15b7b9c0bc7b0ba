(** Compiled dispatch over a packed image.

    [of_packed] compiles a {!Packed} image (any TEAPK1/2/3 layout — it
    composes with repacking and fusion) into two mechanisms:

    - one transition loop, shared by every state no fused chain fronts:
      the paper's two-level lookup — the state's own edges, then the
      global trace-head hash, else NTE — with slot, cursor and cycle
      sum in registers. In-trace fan-out-1/2 states whose successors
      are all in-trace (see {!region_states}) resolve by one or two
      inline compares against flat tables; every other state (fan-out
      0, spans touching NTE, fan-out 3 and up) scans its span in span
      (profile) order; a miss probes the trace-head hash inline;
    - one matcher closure per fused-chain member, which compares the
      incoming PC run against the chain signature and accounts in bulk,
      falling through to the loop at the member's hash probe on a
      mismatch.

    Control leaves the loop only for a chain-fronted state or at the
    batch bound, so cold code (hash hits, NTE) costs no indirect jump.

    Replay through the compiled image is observationally identical to
    stepping the image with {!Packed.step} — TBB mapping, coverage,
    enter/exit counters, stats and simulated cycles (the per-step
    charges are read from the image's {!Packed.resolution_costs}), so
    cycles remain a pure function of the replayed stream.

    The batch-loop state (slot, cursor, bound, cycle accumulator, the
    two loop-invariant arrays and the caller's {!rare} record) is
    threaded through every jump as arguments, so the hot paths keep it
    in registers; the loop and every matcher are bounded by the
    threaded [stop], so replay over a compiled image in batches is
    bit-identical to one whole-array run. A [t] is an immutable value:
    everything a batch writes lives in the caller's counters and
    {!rare} record, so one image serves any number of replayers, on any
    number of domains at once. *)

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

val n_closures : t -> int
(** Dispatch closures built: the transition loop, plus one chain
    matcher per fused-chain member. *)

val degree_histogram : t -> (int * int) list
(** [(fan-out degree, number of states)], sorted by degree. *)

val chained_states : t -> int
(** States fronted by a fused-chain matcher closure. *)

val region_states : t -> int
(** States the transition loop resolves by inline compares: in-trace
    fan-out-1/2 states whose successors are all in-trace (and that no
    fused-chain matcher fronts). The loop tests each PC against such a
    state's one or two successor labels and steps within flat tables;
    on a miss it goes straight to the trace-head hash, since the whole
    span was just compared. Since the compares cover exactly the span
    the interpreted scan would, at exactly its cost, observables are
    untouched. *)

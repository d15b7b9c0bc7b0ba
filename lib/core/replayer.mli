(** Replaying recorded traces against an unmodified program execution.

    The replayer feeds every executed block's start address into the TEA.
    The automaton state then *is* the precise answer to "which TBB of which
    trace is executing right now" — including distinguishing the different
    instances of a duplicated block (the paper's \$\$T1.next vs \$\$T2.next
    example) — without any trace code existing. The replay's counters
    are the profile the paper collects this way (per state on the
    reference engine, per edge on the compiled one).

    Two transition engines drive a replayer:

    - the {b reference} engine ({!Transition}), faithful to the paper's
      per-state edge lists plus B+ tree / linked-list containers with
      their simulated-cycle cost model — the differential oracle;
    - the {b compiled} engine ({!Compiled}), a flat-array {!Packed} image
      (flat, repacked or fused) specialized into closure-threaded
      dispatch — each state a preapplied closure jumping straight to its
      successor's closure. Batches ({!feed_run}) run the closures;
      single addresses ({!feed_addr}) step the underlying image with
      {!Packed.step}.

    Both produce bit-identical state sequences, coverage and profiles
    (property-tested in [test_packed.ml] / [test_compile.ml]); they
    differ only in speed and in how cross-trace resolutions split across
    the stats counters. *)

type engine =
  | Reference of Transition.t
  | Compiled of Compiled.t

type t

val create : Transition.t -> t
(** A replayer on the reference engine. *)

val create_compiled : Compiled.t -> t
(** A replayer on the closure-threaded compiled engine. Stats and cycles
    accumulate on the underlying packed image ({!Compiled.base}). Like
    the compiled image itself, not safe to share across domains — build
    one per worker over a {!Packed.dup} sibling. *)

val engine : t -> engine

val feed : t -> Tea_cfg.Block.t -> unit
(** The block about to execute. Wire to {!Tea_cfg.Discovery} [on_block]. *)

val feed_addr : t -> ?insns:int -> int -> unit
(** Lower-level variant: a block start address and its instruction count
    (default 0 — no coverage accounting), for replaying from an externally
    recorded address stream. *)

val feed_run : t -> ?off:int -> ?insns:int array -> int array -> len:int -> unit
(** [feed_run t ~off ~insns addrs ~len] replays [addrs.(off..off+len-1)]
    in one batch: the engine dispatch is hoisted out of the loop, so
    PC-trace files decode and replay in blocks instead of one call per
    address. [insns] is a parallel per-block instruction-count array
    indexed like [addrs] (all 0 when absent — served from a scratch array
    cached on [t], no per-batch allocation). [off] defaults to 0; a
    nonzero [off] replays a suffix without an [Array.sub] copy. Equivalent
    to [len] calls to {!feed_addr}.

    On a compiled image carrying a fusion overlay ({!Packed.is_fused})
    the batch dispatches through superstate chain matchers: runs of
    addresses that match a chain's PC signature are absorbed by one
    comparison loop and charged in bulk, with every observable (mapping,
    coverage, counts, stats, simulated cycles) still exactly as if each
    address had been fed singly. Every closure is bounded by
    [off + len - 1] — a run that would continue into the next batch
    simply resumes matching on the next call, which is what keeps a
    trace file streamed in batches over a fused image bit-identical to
    one whole-array run.
    @raise Invalid_argument when [off..off+len) exceeds either array. *)

val state : t -> Automaton.state

val set_state : t -> Automaton.state -> unit
(** Overwrite the current automaton state without stepping — the NTE
    re-entry at a demuxed run's cut, and cross-execution resumption. No
    step is accounted; coverage, enter/exit counters and stats are
    untouched. The compiled engine notes the run boundary (the old state
    ends a run, the new one starts one) that {!state_counts} derives
    from. The id is validated lazily: the compiled batch rejects ids
    outside the frozen image on the next feed.
    @raise Invalid_argument on a negative id. *)

val rebind : t -> engine -> unit
(** [rebind t engine'] hot-swaps the replayer onto a different image of
    the {e same} automaton — flat, repacked or fused — without
    losing any accumulated accounting: the edge counters are in
    original-id space and carry over as they are, the current state is
    translated through the orig-id permutation ({!Packed.orig_state} on
    the old layout, {!Packed.slot_of_state} on the new), and the old
    image's engine stats and simulated cycles are added onto the new
    image's counters. A {!snapshot} or {!edge_profile} taken
    immediately after [rebind] equals one taken immediately before.
    The caller must hand over a private image ({!Compiled.of_packed} of
    a {!Packed.dup} sibling) exactly as at creation — counters are
    mutable and must not be shared.
    @raise Invalid_argument when either engine is [Reference], or the
    images disagree on slot or edge count (different automata). *)

val covered_insns : t -> int

val total_insns : t -> int

val coverage : t -> float

val trace_enters : t -> int
(** NTE → trace transitions taken. *)

val trace_exits : t -> int
(** Trace → NTE transitions taken. *)

val tbb_counts : t -> (Automaton.state * int) list
(** Execution count per TEA state, sorted by state id. Ids are the
    original automaton's on every layout, so the mapping is
    byte-identical to the flat image's. ({!state}/{!set_state} by
    contrast stay in the engine's own — possibly permuted — id space;
    the parallel driver depends on that.) *)

val state_counts : t -> int array
(** The same counts as a fresh array indexed by original state id. On
    the compiled engine they are derived: steps taken from each state
    ({!Packed.edge_profile}'s [visits]) plus the run boundaries that
    {!create_compiled} and {!set_state} count, off the hot path. *)

val edge_profile : t -> Packed.edge_profile
(** The compiled engine's own counts as an original-id edge profile:
    {!Tea_opt.Repack.collect} over the flat image on the same walks,
    whatever layouts (across {!rebind}) replayed them.
    @raise Invalid_argument on a reference-engine replayer. *)

val tiers : t -> Tierstat.snapshot
(** The compiled engine's dispatch tiers ({!Tierstat.of_counters} over
    its counters), by original state id on every layout.
    @raise Invalid_argument on a reference-engine replayer. *)

val add_edge_counts : t -> int array -> unit
(** [add_edge_counts t acc] adds the compiled engine's raw counters
    ({!Packed.n_counters}) into [acc], the way a fleet sums profiles.
    @raise Invalid_argument on a reference engine or a wrong-length
    [acc]. *)

val trace_profile : t -> int -> (int * int) list
(** [trace_profile t id]: (tbb_index, executions) for one trace, sorted by
    index — the per-copy profile of the motivation example. [[]] when the
    replayer has no automaton (packed image loaded from bytes). *)

val automaton : t -> Automaton.t option
(** The automaton behind the engine; [None] only for a packed image
    reconstituted from bytes. *)

val stats : t -> Transition.stats
(** The engine's transition counters, whichever engine runs. *)

val cycles : t -> int
(** Simulated cycles spent in the engine's transition function. *)

val transition : t -> Transition.t
(** The reference engine.
    @raise Invalid_argument on a compiled-engine replayer. *)

(** {2 Snapshots}

    Everything a replayer accumulates — per-state counts, coverage,
    enter/exit counters, engine stats, simulated cycles — as one
    immutable value. Every field is an integer total, so snapshots of
    disjoint step ranges merge by pointwise addition; that additive
    algebra is what lets per-run and per-session profiles fold into
    fleet totals ({!Tea_parallel.Profile}). *)

type snapshot = {
  counts : (Automaton.state * int) list;
      (** execution count per state, sorted by id, zero counts omitted *)
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

val snapshot : t -> snapshot
(** The current totals. For a reference-engine replayer the stats fields
    read the shared {!Transition.t} counters, so they cover everything
    that transition function did — not only this replayer's feeds. *)

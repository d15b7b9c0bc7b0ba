(** Replaying recorded traces against an unmodified program execution.

    The replayer feeds every executed block's start address into the TEA.
    The automaton state then *is* the precise answer to "which TBB of which
    trace is executing right now" — including distinguishing the different
    instances of a duplicated block (the paper's \$\$T1.next vs \$\$T2.next
    example) — without any trace code existing. Per-state execution
    counters are the profile the paper collects this way.

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
    nonzero [off] replays a suffix without an [Array.sub] copy (how the
    parallel driver hands each shard its chunk). Equivalent to [len]
    calls to {!feed_addr}.

    On a compiled image carrying a fusion overlay ({!Packed.is_fused})
    the batch dispatches through superstate chain matchers: runs of
    addresses that match a chain's PC signature are absorbed by one
    comparison loop and charged in bulk, with every observable (mapping,
    coverage, counts, stats, simulated cycles) still exactly as if each
    address had been fed singly. Every closure is bounded by
    [off + len - 1] — a run that would continue into the next batch
    simply resumes matching on the next call, which is what keeps
    sharded replay over a fused image bit-identical to the sequential
    one.
    @raise Invalid_argument when [off..off+len) exceeds either array. *)

val state : t -> Automaton.state

val set_state : t -> Automaton.state -> unit
(** Overwrite the current automaton state without stepping — the parallel
    driver's entry-state stitching, and cross-execution resumption. No
    accounting happens; coverage, enter/exit counters and stats are
    untouched. The id is validated lazily: the compiled batch rejects
    ids outside the frozen image on the next feed.
    @raise Invalid_argument on a negative id. *)

val rebind : t -> engine -> unit
(** [rebind t engine'] hot-swaps the replayer onto a different image of
    the {e same} automaton — flat, repacked or fused — without
    losing any accumulated accounting: per-state counts and the current
    state are translated through the orig-id permutation
    ({!Packed.orig_state} on the old layout, {!Packed.slot_of_state} on
    the new), and the old image's engine stats and simulated cycles are
    added onto the new image's counters. A
    {!snapshot} taken immediately after [rebind] equals one taken
    immediately before; subsequent feeds dispatch through the new image.
    The caller must hand over a private image ({!Compiled.of_packed} of
    a {!Packed.dup} sibling) exactly as at creation — counters are
    mutable and must not be shared.
    @raise Invalid_argument when either engine is [Reference], or the
    images disagree on slot count (different automata). *)

val covered_insns : t -> int

val total_insns : t -> int

val coverage : t -> float

val trace_enters : t -> int
(** NTE → trace transitions taken. *)

val trace_exits : t -> int
(** Trace → NTE transitions taken. *)

val tbb_counts : t -> (Automaton.state * int) list
(** Execution count per TEA state, sorted by state id. On a repacked
    image ({!Tea_opt.Repack}) ids are translated back to the original
    automaton's, so the mapping is byte-identical to the flat image's.
    ({!state}/{!set_state} by contrast stay in the engine's own —
    possibly permuted — id space; the parallel driver depends on that.) *)

val count_of_state : t -> Automaton.state -> int
(** Count for an {e original} automaton state id (translated on repacked
    images, like {!tbb_counts}). *)

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
    algebra is what makes sharded parallel replay bit-identical to the
    sequential run ({!Tea_parallel.Profile}). *)

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

(** The trace-replaying pintool (paper §4, Table 2).

    Loads traces recorded elsewhere (typically by {!Tea_dbt.Stardbt}),
    builds the TEA with Algorithm 1, and replays the running program's edge
    stream through it, collecting coverage and per-TBB profiles on the
    *unmodified* executable. *)

type engine = [ `Reference | `Compiled ]
(** Which transition engine drives the replayer: the paper-faithful
    {!Tea_core.Transition} (configured by [?transition]) or the
    closure-threaded {!Tea_core.Compiled} dispatch over a flat-array
    {!Tea_core.Packed} image (which ignores [?transition] — it has no
    container/cache knobs). *)

type result = {
  coverage : float;
  covered_insns : int;
  total_insns : int;
  native_cycles : int;
  framework_cycles : int;   (** Pin base: native + JIT + dispatch *)
  tool_cycles : int;        (** analysis calls + transition fn + NTE work *)
  total_cycles : int;       (** the pintool run's simulated "Time" *)
  slowdown : float;         (** total / native *)
  trace_enters : int;
  trace_exits : int;
  transition_stats : Tea_core.Transition.stats;
}

val replay :
  ?params:Cost_params.t ->
  ?transition:Tea_core.Transition.config ->
  ?engine:engine ->
  ?pgo:bool ->
  ?fuse:bool ->
  ?fuel:int ->
  traces:Tea_traces.Trace.t list ->
  Tea_isa.Image.t ->
  result * Tea_core.Replayer.t
(** The returned replayer retains per-state profiles for inspection.
    [engine] defaults to [`Reference]. With [~pgo:true] (compiled
    engine only — [Invalid_argument] on the reference one) the edge
    stream of the single simulated run is buffered, used to
    {!Tea_opt.Repack.repack} the image, and replayed through the
    repacked engine; coverage, profiles and analysis-call counts are
    identical to the non-PGO run, simulated transition cycles can only
    improve. [~fuse:true] (compiled engine only) additionally runs
    {!Tea_opt.Fuse.fuse} over the (possibly repacked) image and replays
    through the superstate-fused engine; the passes compose, and every
    observable is still identical (the closures are re-specialized over
    the tuned image). *)

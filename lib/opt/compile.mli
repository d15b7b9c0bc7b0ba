(** Dispatch compilation of a frozen {!Tea_core.Packed} image — the
    pipeline wrapper over {!Tea_core.Compiled}.

    Where {!Repack} reorders the image for locality and {!Fuse} overlays
    superstate chains, this pass leaves the image alone and specializes
    its {e dispatch}: every state no chain fronts resolves in one
    register-resident transition loop — inline compares for in-trace
    fan-out-1/2 states, a span scan in span (hence profile, after
    repacking) order for the rest, the trace-head hash probed inline on
    a miss — and every fused-chain member compiles into a single
    bulk-accounting matcher closure. It consumes any TEAPK1/2/3 image,
    so it composes with both other passes — compile the
    repacked-and-fused image to stack all three wins.

    Compilation is observationally the identity: TBB mappings, coverage,
    enter/exit counters, stats and simulated cycles are exactly those of
    stepping the image one address at a time with {!Tea_core.Packed.step}
    (property-tested in [test_compile.ml]). *)

val compile : Tea_core.Packed.t -> Tea_core.Compiled.t
(** [compile packed] = {!Tea_core.Compiled.of_packed}: an immutable
    image any number of replayers and domains may share. *)

val compiled_replay :
  Tea_core.Packed.t ->
  ?insns:int array ->
  int array ->
  len:int ->
  Tea_core.Compiled.t * Tea_core.Replayer.t * Tea_core.Replayer.t
(** [compiled_replay src addrs ~len] — side-by-side replay of one
    stream through one compiled image of [src]: batched through its
    compiled dispatch, and step at a time ({!Tea_core.Replayer.feed_addr},
    hence {!Tea_core.Packed.step}) in a second replayer. Returns
    [(compiled, baseline_replayer, compiled_replayer)]. The two
    replayers' snapshots must be equal — the compilation-is-identity
    gate. *)

val describe : Tea_core.Compiled.t -> string
(** Human-readable image statistics: closure count, fan-out-degree
    histogram, region and chain-matcher counts — the
    [tea_tool info] compiled section. *)

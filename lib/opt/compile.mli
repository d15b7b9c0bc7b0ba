(** Closure-threading compilation of a frozen {!Tea_core.Packed} image —
    the pipeline wrapper over {!Tea_core.Compiled}.

    Where {!Repack} reorders the image for locality and {!Fuse} overlays
    superstate chains, this pass leaves the image alone and specializes
    its {e dispatch}: every state becomes a preapplied OCaml closure
    testing its (span-ordered, hence profile-ordered after repacking)
    successor PCs with straight-line compares and tail-calling the
    successor's closure directly. It consumes any TEAPK1/2/3 image, so
    it composes with both other passes — compile the repacked-and-fused
    image to stack all three wins; fused chains compile into a single
    bulk-accounting matcher closure.

    Compilation is observationally the identity: TBB mappings, coverage,
    enter/exit counters, stats and simulated cycles are exactly those of
    stepping the image one address at a time with {!Tea_core.Packed.step}
    (property-tested in [test_compile.ml]), with the usual inline-cache
    hit/miss-split exception (cycle-neutral; see {!Tea_core.Compiled}). *)

val compile : Tea_core.Packed.t -> Tea_core.Compiled.t
(** [compile packed] = {!Tea_core.Compiled.of_packed}. The compiled
    image shares [packed]'s counters; it is single-domain — workers
    compile their own {!Tea_core.Packed.dup} sibling. *)

val compiled_replay :
  Tea_core.Packed.t ->
  ?insns:int array ->
  int array ->
  len:int ->
  Tea_core.Compiled.t * Tea_core.Replayer.t * Tea_core.Replayer.t
(** [compiled_replay src addrs ~len] — side-by-side replay of one
    stream: a step-at-a-time baseline ({!Tea_core.Replayer.feed_addr},
    hence {!Tea_core.Packed.step}) over a {!Tea_core.Packed.dup} of
    [src], then the same stream batched through the compiled dispatch of
    another dup. Returns [(compiled, baseline_replayer,
    compiled_replayer)]; [src]'s own counters are untouched. The two
    replayers' snapshots must be equal — the compilation-is-identity
    gate. *)

val describe : Tea_core.Compiled.t -> string
(** Human-readable image statistics: closure count, fan-out-degree
    histogram, minihash-fallback and chain-matcher counts — the
    [tea_tool info] compiled section. *)

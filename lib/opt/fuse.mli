(** Superstate chain fusion for a frozen {!Tea_core.Packed} image.

    TEA automata are dominated by states whose next in-trace transition
    is {e forced} — exactly one edge, landing in-trace: straight-line
    trace bodies and steady-state loop backbones. Classic trace/
    superblock DBTs dispatch such regions as one unit; this pass makes
    the compiled engine do the same without changing what replay
    observes.

    {!fuse} collapses maximal runs of forced states into {e superstate
    chains} described by a {!Tea_core.Packed.fusion} overlay: per chain,
    the PC signature each forced step must see, the state each step
    lands in, and the exact simulated cycles the ordinary dispatch
    charges for each resolution. Self-loops, chains whose last edge
    re-enters their own head, and pure candidate cycles are marked
    {e cyclic}, so the batch replay loop
    ({!Tea_core.Replayer.feed_run}) can verify [k] consecutive loop
    iterations with one wrapping PC-comparison loop and charge [k x]
    the per-iteration profile delta in O(cycle length) — no automaton
    dispatch at all.

    Fusion is observationally the identity: TBB mappings, coverage,
    enter/exit counters, engine stats and simulated cycles are exactly
    those of the unfused image (property-tested in [test_fuse.ml];
    {!Tea_core.Packed.with_fusion} re-validates the overlay against the
    base image, including on TEAPK3 deserialization). Fusion composes
    with {!Repack}: fuse the repacked image to stack both wins. *)

val default_min_chain : int
(** Minimum member count for a straight chain to be emitted (2). Cyclic
    chains are always kept — even a 1-state self-loop fast-forwards. *)

val default_min_expected_run : float
(** Default [min_expected_run] threshold (4.0) for the profile-aware
    filter below. *)

val default_min_coverage : float
(** Default [min_coverage] threshold (0.5) for the profile-aware
    whole-image gate below. *)

val fuse :
  ?min_chain:int ->
  ?profile:Repack.profile ->
  ?min_expected_run:float ->
  ?min_coverage:float ->
  Tea_core.Packed.t ->
  Tea_core.Packed.t
(** [fuse packed] — [packed] with the fusion overlay attached
    ({!Tea_core.Packed.with_fusion}); [packed] itself is untouched.
    Returns [packed] unchanged when no chain meets
    [min_chain] (default {!default_min_chain}) and no cycle exists.
    O(states + edges).

    With [profile] (a {!Repack.collect} walk {e over this image's own
    layout}), chain selection becomes profile-aware: a chain is emitted
    only when its expected match-run length — a geometric estimate from
    the per-edge continuation fractions — is at least [min_expected_run]
    (default {!default_min_expected_run}), and the image is fused at all
    only when the kept chains would absorb at least [min_coverage]
    (default {!default_min_coverage}) of the stream's profiled
    dispatches — every step the matcher does {e not} absorb pays its
    fall-through to the ordinary closure, so sparse chain coverage is a
    net loss. This is how fusion composes with PGO: the same stream
    that guided {!Repack.repack} gates out chains the stream escapes
    every lap or two, where per-entry matching overhead outweighs the
    bulk-charge win (fusion stays observationally the identity either
    way — the filters only change {e which} chains exist, never what
    replay observes). Without [profile] selection is purely structural.
    @raise Invalid_argument when [min_chain < 1] or [profile]'s shape
    does not match [packed]. *)

val fused_replay :
  ?min_chain:int ->
  ?profile:Repack.profile ->
  ?min_expected_run:float ->
  ?min_coverage:float ->
  Tea_core.Packed.t ->
  ?insns:int array ->
  int array ->
  len:int ->
  Tea_core.Packed.t * Tea_core.Replayer.t * Tea_core.Replayer.t
(** [fused_replay src addrs ~len] — side-by-side replay of one stream:
    a compiled baseline over [src], then the same stream through the
    compiled [fuse src]. Returns [(fused, baseline_replayer,
    fused_replayer)]. The two replayers' snapshots must be equal — the
    fusion-is-identity gate the bench driver enforces. *)

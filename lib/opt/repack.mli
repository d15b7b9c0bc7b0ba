(** Profile-guided repacking of a {!Tea_core.Packed} image.

    Real DBTs chain hot transitions so the dispatcher is skipped on the
    common path; TEA's DFA makes the same redundancy explicit, and replay
    profiles say exactly which transitions are hot. This pass consumes a
    replay {!profile} (per-state visit counts, per-edge taken counts,
    per-state scan misses) and rebuilds the image two ways:

    + states renumbered hotness-descending (NTE pinned at slot 0) so the
      hot working set is cache-dense;
    + each edge span reordered most-taken-first behind a linear-scan hot
      prefix, with a label-sorted binary-search tail — the prefix length
      is chosen {e per state} by exact minimization of the
      profile-weighted scan cost, with the source layout (prefix 0) always
      a candidate, so on the profiling stream the repacked image never
      charges more simulated cycles than the source. Compiled batch
      dispatch tests edges in the same span order.

    Repacking is a pure permutation: replay over the repacked image
    produces identical TBB mappings (ids translate at reporting
    boundaries) and identical coverage/stats; simulated cycles change only
    through the documented scan-cost model. *)

type profile = Tea_core.Packed.edge_profile = {
  visits : int array;  (** per source slot: steps taken from this state *)
  taken : int array;   (** per source edge index: times resolved *)
  misses : int array;  (** per source slot: span scans that found no edge *)
}
(** In original ids when read off a replay
    ({!Tea_core.Replayer.edge_profile}) or collected over a flat image;
    in the walked image's slots and edges otherwise. *)

val empty_profile : Tea_core.Packed.t -> profile
(** All-zero counts shaped for this image. Repacking with it is the
    identity layout. *)

val collect :
  ?state:Tea_core.Automaton.state ->
  Tea_core.Packed.t ->
  ?off:int ->
  int array ->
  len:int ->
  profile
(** [collect packed addrs ~len] — a pure counting walk of the address
    stream over the image's own layout, from [state] (default NTE).
    Touches none of the engine's counters or telemetry.
    @raise Invalid_argument on a bad range or state id. *)

val permute : Tea_core.Packed.t -> profile -> profile
(** [permute img p] re-indexes an original-id profile into [img]'s own
    slot/edge space: what {!collect} over [img] returns on the same
    walks. *)

val visit_counts : profile -> (int * int) list
(** Nonzero per-state visits as sorted [(id, count)] pairs — the shape
    {!Tea_observe.Drift.create} takes. *)

val merge : profile -> profile -> profile
(** Pointwise sum; profiles of disjoint stream chunks merge into the
    whole-stream profile.
    @raise Invalid_argument when the shapes differ. *)

val default_hot_prefix : int
(** Default cap on per-state hot-prefix length (4). *)

val repack :
  ?hot_prefix:int -> Tea_core.Packed.t -> profile -> Tea_core.Packed.t
(** [repack src prof] — the repacked image ({!Tea_core.Packed.is_repacked}
    = true), with [src]'s automaton reattached when it has one. [src] may
    itself be repacked (permutations compose).
    @raise Invalid_argument when [prof]'s shape does not match [src]. *)

val moved_states : Tea_core.Packed.t -> int
(** Slots whose id changed under the permutation (0 for a flat image). *)

val save_profile : string -> profile -> unit
(** Write a profile as a TEAEP1 file (magic, varint shape, varint
    counts). Negative counts are clamped to 0. *)

val load_profile : string -> profile
(** Read a TEAEP1 file. @raise Failure on bad magic, truncation,
    trailing bytes, a negative value, or array lengths the file is too
    short to hold (so no allocation is sized from an untrusted length);
    shape-check against an image is the caller's job (e.g. {!repack}
    raises if it does not match). *)

val pgo_replay :
  ?hot_prefix:int ->
  Tea_core.Packed.t ->
  ?insns:int array ->
  int array ->
  len:int ->
  Tea_core.Packed.t * Tea_core.Replayer.t * Tea_core.Replayer.t
(** [pgo_replay src addrs ~len] — the whole profile-guided cycle on one
    stream: replay a compiled baseline over [src], {!collect},
    {!repack}, replay again over the compiled repacked image. Returns
    [(repacked, baseline_replayer, repacked_replayer)] for side-by-side
    comparison. *)

(** Hotness report for the dispatch-tier profiler: overall tier mix and
    the top-N states by blocks resolved with their per-tier split.

    When [image] is a repacked {!Tea_core.Packed} image, per-state rows
    translate slot ids back to automaton ids
    ({!Tea_core.Packed.orig_state}) so they line up with TBB mappings
    and fleet profiles. Deterministic: rows sort by blocks descending,
    state id ascending. *)

val default_top : int
(** 10. *)

val render : ?top:int -> ?image:Tea_core.Packed.t -> Tea_core.Tierstat.snapshot -> string

(** Hotness report over dispatch tiers ({!Tea_core.Tierstat}): overall
    tier mix and the top-N states by blocks resolved with their per-tier
    split. State ids are original automaton ids, so rows line up with
    TBB mappings and fleet profiles. Deterministic: rows sort by blocks
    descending, state id ascending. *)

val default_top : int
(** 10. *)

val render : ?top:int -> Tea_core.Tierstat.snapshot -> string

(** Hysteresis for the drift → retune edge.

    {!Drift} is a pure gauge and {!Exposition} a pure renderer; acting
    on the gauge needs debounce, or a profile oscillating around the
    threshold would thrash image rebuilds every few sessions. A trigger
    fires only after [up] {e consecutive} over-threshold observations,
    then ignores the next [cooldown] observations entirely (no streak
    accumulates while cooling) before re-arming. Pure counters — the
    caller decides what one observation is; the serve daemon observes
    once per completed session, so [up]/[cooldown] are measured in
    sessions, not wall time. *)

type t

val default_up : int
(** 2 — one noisy cycle can never fire a rebuild. *)

val default_cooldown : int
(** 8 — observations ignored after a fire before re-arming. *)

val create : ?up:int -> ?cooldown:int -> unit -> t
(** @raise Invalid_argument when [up < 1] or [cooldown < 0]. *)

val observe : t -> bool -> bool
(** [observe t over] records one observation of the signal and returns
    [true] exactly when this observation completes an [up]-streak on an
    armed trigger — the moment to launch a rebuild. *)

val armed : t -> bool
(** [false] while in post-fire cooldown. *)

val fired : t -> int
(** Total fires so far. *)

val up : t -> int

val cooldown : t -> int

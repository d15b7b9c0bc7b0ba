(** Mergeable replay profiles.

    A profile is {!Tea_core.Replayer.snapshot}: every observable total a
    replayer accumulates — per-state execution counts, covered/total
    instructions, trace enters/exits, the engine's transition stats and
    its simulated cycles. All fields are integer sums over the steps
    replayed, so profiles of disjoint step ranges combine by pointwise
    addition: {!merge} is associative and commutative with {!empty} as
    identity, and profiles of disjoint runs merge to exactly the profile
    of replaying them all, as long as every step was replayed once from
    the state the sequential run would have been in. *)

type t = Tea_core.Replayer.snapshot = {
  counts : (Tea_core.Automaton.state * int) list;
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

val empty : t
(** The {!merge} identity: all totals 0, no counts. *)

val of_replayer : Tea_core.Replayer.t -> t
(** = {!Tea_core.Replayer.snapshot}. *)

val merge : t -> t -> t
(** Pointwise sum; the counts lists merge-sort by state id. Associative,
    commutative, [empty]-neutral (property-tested). *)

val merge_all : t list -> t

val equal : t -> t -> bool

val coverage : t -> float
(** [covered / total] (0 when nothing replayed). *)

val pp : Format.formatter -> t -> unit
(** One-line rendering, for test failures and debugging. *)

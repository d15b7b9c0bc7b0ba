(** Dispatch tiers of replay over packed images, derived from the
    replayer's counters.

    Every resolved block bumps exactly one counter of the replayer's
    counter array ({!Packed.n_counters}), so its dispatch tier — the
    mechanism that found the edge — follows from which counter it was,
    charged to the original id of the state the dispatch ran from:

    - [hash]: the span missed and the global trace-head hash found the
      target;
    - [miss]: unresolved — the replayer cut to the not-in-trace state;
    - [compiled]: an in-span edge — compiled straight-line compares,
      chain matchers, or {!Packed.step}'s span search.

    {!of_counters} is a pure function of the counters, so the rows are a
    property of the automaton and the stream: the same on every layout
    and across hot swaps, and summable across replayers like the
    counters themselves. *)

val n_tiers : int

val t_hash : int
val t_miss : int
val t_compiled : int

val tier_name : int -> string
(** ["hash" | "miss" | "compiled"]. *)

type snapshot = {
  ts_totals : int array;  (** per-tier totals, length {!n_tiers} *)
  ts_states : (int * int array) list;
      (** (original state id, per-tier counts), sorted by state,
          all-zero rows omitted *)
}

val of_counters : Packed.t -> int array -> snapshot
(** [of_counters image counts] — the tiers of every block a counter
    array recorded. [image] is any layout of the automaton the counters
    were taken on. @raise Invalid_argument on a wrong-length array. *)

val empty : snapshot

val merge : snapshot -> snapshot -> snapshot
(** Pointwise sum — associative, commutative, [empty]-neutral. *)

val merge_all : snapshot list -> snapshot
val equal : snapshot -> snapshot -> bool
val total : snapshot -> int
(** Sum over tiers — equals the blocks resolved. *)

(** {2 Installed totals}

    A global, totals-only tally for the repository benchmark's replica:
    while installed, every compiled batch ({!Replayer.feed_run}) adds
    its tier totals once. Per-state rows come from {!of_counters}. *)

val install : unit -> unit
(** Start a fresh tally. Raises [Invalid_argument] if already
    installed. *)

val add_totals : hash:int -> miss:int -> compiled:int -> unit
(** Add one batch's totals; a no-op when not installed. *)

val uninstall : unit -> snapshot
(** Stop the tally and return its totals ([ts_states] is empty);
    {!empty} when not installed. *)

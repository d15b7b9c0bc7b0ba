(** Dispatch-tier profiler for replay over packed images.

    When installed, {!Packed.step} and the {!Compiled} batch attribute
    every resolved block to exactly one dispatch tier — the mechanism
    that found the edge — charged to the source state (packed slot id)
    the dispatch ran from:

    - [ic]: per-state monomorphic inline-cache hit (repacked images);
    - [hot]: hot-prefix linear-scan hit (repacked images);
    - [search]: binary-search hit (the whole span on flat images, the
      tail after the hot prefix on repacked ones);
    - [hash]: global trace-head hash-table hit after the span missed;
    - [miss]: unresolved — the replayer cut to the not-in-trace state;
    - [compiled]: resolved by the closure-threaded compiled engine
      ({!Compiled}) — straight-line compares (or a chain matcher) jumping
      directly to the successor's closure, no tier ladder consulted.

    Same global-installation shape as {!Tea_telemetry.Probe}: one
    atomic installation, one {!tally} per domain, immutable mergeable
    {!snapshot}s. Disabled ([install] not called) the loops pay one
    predictable branch per step on a hoisted local — the same class of
    cost the telemetry probes keep under the bench-gated 2% budget.

    Per-state counts are in slot space; translate to automaton ids with
    {!Packed.orig_state} when rendering (see {!Tea_report.Hotness}). *)

val n_tiers : int

val t_ic : int
val t_hot : int
val t_search : int
val t_hash : int
val t_miss : int
val t_compiled : int

val tier_name : int -> string
(** ["ic" | "hot" | "search" | "hash" | "miss" | "compiled"]. *)

(** {2 Installation} *)

val install : unit -> unit
(** Enable profiling globally. Raises [Invalid_argument] if already
    installed. *)

val enabled : unit -> bool

(** {2 Hot path} *)

type tally
(** A single domain's mutable tier counts. Not thread-safe; obtained
    per domain via {!tally} and hoisted out of replay loops. *)

val tally : unit -> tally option
(** [None] when profiling is disabled — hoist per batch and branch on
    the immutable local. *)

val bump : tally -> tier:int -> state:int -> unit
val bump_n : tally -> tier:int -> state:int -> int -> unit

(** {2 Snapshots} *)

type snapshot = {
  ts_totals : int array;  (** per-tier totals, length {!n_tiers} *)
  ts_states : (int * int array) list;
      (** (state, per-tier counts), sorted by state, all-zero rows
          omitted *)
}

val empty : snapshot

val snapshot : unit -> snapshot
(** Merged view of every domain's tally so far; {!empty} when disabled. *)

val uninstall : unit -> snapshot
(** Disable profiling and return the final merged snapshot. *)

val merge : snapshot -> snapshot -> snapshot
(** Pointwise sum — associative, commutative, [empty]-neutral, so
    sharded replay merges to the sequential totals. *)

val merge_all : snapshot list -> snapshot
val equal : snapshot -> snapshot -> bool
val total : snapshot -> int
(** Sum over tiers — equals total blocks resolved while enabled. *)

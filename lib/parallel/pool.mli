(** A persistent Domain-based worker pool (OCaml 5 [Domain]s).

    The table drivers reduce to one shape: [n] independent tasks, results
    wanted in task order. The
    pool spawns its domains once and reuses them across every {!map} —
    domain spawn is milliseconds, a table-sweep task is seconds, but the
    ablation and bench paths map dozens of times and a respawn per map
    would dominate the small runs.

    A batch runs inline on the calling domain when the pool has no
    workers ([jobs = 1]: no domains are spawned, so [--jobs 1] is the
    sequential code path, not a one-worker simulation of it) or when the
    batch has one task. A lone task gains nothing from a worker: the
    caller would only sleep through it, after paying two cross-domain
    wake-ups (signal the worker, wait for its broadcast back). So a
    one-task batch is neither queued nor signalled, and [jobs >= 2]
    still spawns exactly [jobs] workers for the batches of two or more.

    Determinism: {!map} returns results indexed by task, never by
    completion order. Scheduling affects only the wall clock and the
    per-domain counters — merge-friendly results (see {!Profile}) make the
    whole parallel run bit-identical to sequential.

    {!map} is not reentrant: tasks must not call {!map} on their own pool
    (the nested call would wait on workers that are all busy running its
    parents). It {e is} safe to call {!map} from several driver threads
    or domains concurrently: each call owns a private batch-completion
    counter, so interleaved batches complete independently and each
    driver wakes only when its own batch drained (stress-tested with
    concurrent drivers in [test_parallel.ml]). Drivers that inline at
    the same time share the caller entry's counters, which are atomic,
    so its totals stay exact. {!shutdown} is likewise safe under
    concurrent callers: exactly one joins the workers, the rest return
    immediately. *)

type t

val create : jobs:int -> t
(** [create ~jobs] — a pool of [jobs] worker domains ([jobs >= 1]; 1 means
    inline execution, no domains).
    @raise Invalid_argument when [jobs < 1]. *)

val parse_jobs : string -> (int, string) result
(** Validate a user-supplied job count (a CLI [--jobs] value): accepts
    exactly the integers {!create} accepts. [Error msg] carries a
    human-readable reason ([0], negatives and non-integers are all
    rejected rather than silently falling back to sequential). *)

val jobs : t -> int

val map : t -> f:(int -> 'a) -> int -> 'a array
(** [map t ~f n] runs [f 0 .. f (n-1)] on the pool and returns the results
    in index order. Blocks until every task finished. [n = 1] (and any
    [n] on a [jobs = 1] pool) runs on the calling domain, accounted to
    the caller entry of {!domain_stats}. If any task raised,
    the first such exception (by task index) is re-raised on the caller
    with its backtrace — after all tasks completed, so the pool stays
    reusable.
    @raise Invalid_argument on a pool that was {!shutdown}. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over a list, preserving order. *)

val add_units : t -> int -> unit
(** Credit [n] units of work (for us: replayed blocks) to the entry
    running the current task: the worker's, or the caller entry for an
    inline task (a [Domain.DLS] slot set while the task runs). Called
    from outside any {!map} task of this pool, the units land on the
    pool-wide residual counter. *)

val shutdown : t -> unit
(** Join all workers. Idempotent, including under concurrent callers:
    the closed flag and the worker handles are claimed under the pool
    mutex, so exactly one caller performs the join and later (or
    concurrent) callers return without double-joining. {!map} afterwards
    raises. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, and {!shutdown} even on exception. *)

(** {2 Observability} *)

type domain_stat = {
  d_index : int;  (** entry index, 0-based; the caller entry is last *)
  d_tasks : int;  (** tasks executed *)
  d_busy : float;  (** seconds spent inside tasks *)
  d_wait : float;  (** seconds spent waiting on the queue (0 for the caller) *)
  d_units : int;  (** work units credited via {!add_units} *)
}

val domain_stats : t -> domain_stat list
(** One entry per worker, then the caller entry for inline tasks, in
    index order: [jobs + 1] entries for [jobs >= 2], the caller at index
    [jobs]; a single caller entry 0 for an inline [jobs = 1] pool. The
    units over all entries plus {!residual_units} are every unit
    credited. Read when no {!map} is in flight. *)

val residual_units : t -> int
(** Units credited from outside any {!map} task. *)

val metrics_snapshot : t -> Tea_telemetry.Metrics.snapshot
(** The same counters as a telemetry snapshot ([pool.jobs],
    [pool.domainNN.tasks/busy_us/wait_us/units] per {!domain_stats}
    entry, caller entry included, and [pool.residual_units]),
    for {!Tea_report.Stats.render}. Deliberately separate from the global
    {!Tea_telemetry.Probe} registry: busy/wait are wall-clock and must not
    leak into the deterministic probe counters. Read when no {!map} is in
    flight. *)

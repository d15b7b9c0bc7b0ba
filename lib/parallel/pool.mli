(** A persistent Domain-based pool (OCaml 5 [Domain]s): an ordered map
    over tasks, for the table drivers and the two-task file-replay
    pipeline.

    A batch runs on at most [jobs] domains, and the caller of {!map} is
    one of them: it queues its batch, wakes at most [min n jobs - 1]
    workers, and runs queued tasks itself until its batch is done,
    waiting only while the tasks it still needs run elsewhere. So
    [jobs = 1] (no workers) and a one-task batch (no worker woken) run
    on the caller, through the same code as every other batch. The
    workers are spawned once and reused across every {!map}: none for
    [jobs = 1], and [jobs] for [jobs >= 2], one of them spare unless
    several drivers map at once.

    Determinism: {!map} returns results indexed by task, never by
    completion order. Scheduling affects only the wall clock and
    {!domain_stats}: merge-friendly results (see {!Profile}) make the
    whole parallel run bit-identical to sequential.

    {!map} is safe to call from several driver threads or domains at
    once: each call owns a private batch-completion counter, so
    interleaved batches complete independently (stress-tested with
    concurrent drivers in [test_parallel.ml]). A caller may run another
    caller's queued task while it helps. {!shutdown} is likewise safe
    under concurrent callers: exactly one joins the workers. *)

type t

val max_jobs : int
(** 126: the OCaml runtime runs at most 128 domains, and one is the main
    domain and one the daemon's retune builder. *)

val create : jobs:int -> t
(** [create ~jobs] — a pool whose batches run on up to [jobs] domains,
    the caller of {!map} counted. Nothing is spawned when [jobs] is
    rejected.
    @raise Invalid_argument when [jobs < 1] or [jobs > max_jobs]. *)

val parse_jobs : string -> (int, string) result
(** Validate a user-supplied job count (a CLI [--jobs] value): accepts
    exactly the integers {!create} accepts. [Error msg] carries a
    human-readable reason ([0], negatives, counts above {!max_jobs} and
    non-integers are all rejected rather than silently falling back to
    sequential). *)

val jobs : t -> int

val map : t -> f:(int -> 'a) -> int -> 'a array
(** [map t ~f n] runs [f 0 .. f (n-1)] on the pool, the caller among its
    participants, and returns the results in index order. Blocks until
    every task finished. If any task raised, the first such exception
    (by task index) is re-raised on the caller with its backtrace — after
    all tasks completed, so the pool stays reusable.
    @raise Invalid_argument on a pool that was {!shutdown}. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over a list, preserving order. *)

val shutdown : t -> unit
(** Join all workers. Idempotent, including under concurrent callers.
    {!map} afterwards raises. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, and {!shutdown} even on exception. *)

type domain_stat = { d_busy : float  (** seconds spent inside tasks *) }

val domain_stats : t -> domain_stat list
(** One entry per worker, then one shared by every caller of {!map}.
    Read when no {!map} is in flight. *)

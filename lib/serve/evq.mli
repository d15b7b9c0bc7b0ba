(** Unboxed event queue: a FIFO of {!Tea_core.Pc_trace.event}s
    flattened into stride-4 int records in one growable ring. No queue
    cells, no tuples, no constructor blocks — a producer enqueues
    fields, a consumer streams them back out of a dense array.

    No longer on the daemon's path: {!Server} queues raw payload bytes
    and its pool workers decode them straight into the replayer. Kept
    for the benchmark's in-process replica of the older ingest, which
    decodes into this queue and drains it as separate ledger layers.
    Not synchronised: one producer and one consumer, ordered by the
    caller. *)

type t

val create : unit -> t
(** An empty queue (256-record initial ring, doubling as needed). *)

val length : t -> int
(** Queued events (the queue-depth gauge). *)

val is_empty : t -> bool

val push : t -> asid:int -> Tea_core.Pc_trace.event -> unit
(** Append one event for [asid]. *)

val push_block : t -> asid:int -> start:int -> insns:int -> unit
(** [push] of a [Block], from its fields: allocation-free once the ring
    is warm. *)

val push_ctl : t -> asid:int -> tag:int -> arg:int -> unit
(** [push] of a control record as {!Tea_core.Pc_trace.decode_step}
    returns it; the decoder's tags are {!tag_switch}, {!tag_invalidate}
    and {!tag_interrupt}. *)

(** {2 Head-record accessors}

    Valid only when [not (is_empty t)]; {!drop} consumes the record.
    The consumer branches on {!tag} and reads the operand fields —
    nothing is ever re-boxed into an event value. *)

val tag_block : int
val tag_switch : int
val tag_invalidate : int
val tag_interrupt : int

val tag : t -> int

val asid : t -> int
(** The asid the event was enqueued under. *)

val f1 : t -> int
(** [Block]: the start PC. [Switch]/[Invalidate]: the target asid. *)

val f2 : t -> int
(** [Block]: the instruction count; 0 otherwise. *)

val drop : t -> unit
(** Consume the head record. *)

(** Structured event log: one JSON object per line (JSONL), flushed per
    event.

    Events are rare control-plane facts — session open/close/abort,
    drift-threshold crossings, retune and swap — never per-block, so the
    cost model is "free when absent": producers hold a [t option] and
    the disabled path is the [None] branch, preserving the telemetry
    layer's bench-gated disabled-overhead budget.

    Every line carries a monotonic ["seq"] and a ["ts"] wall-clock
    stamp from [clock] (default [Unix.gettimeofday]); tests inject a
    fixed clock to get byte-stable goldens. The sink is mutexed and
    safe to share across domains. *)

type value = S of string | I of int | F of float

type t

val create : ?clock:(unit -> float) -> out_channel -> t
(** Log to a caller-owned channel; {!close} flushes but does not close
    it. *)

val open_file : ?clock:(unit -> float) -> string -> t
(** Log to [path] (truncating); {!close} closes the file. *)

val emit : t -> string -> (string * value) list -> unit
(** [emit t kind fields] writes
    [{"seq":N,"ts":T,"event":kind, ...fields}] and flushes. Field order
    is preserved; strings are JSON-escaped. *)

val close : t -> unit

(** Adversarial replay scenarios over recorded block streams.

    The paper's automata assume one clean PC stream per guest; real DBT
    traffic is interleaved across address spaces, invalidated by
    self-modifying code, and interrupted mid-trace. Each builder here
    turns recorded per-workload block streams into a {!Tea_core.Pc_trace}
    v3 event stream exhibiting one of those hazards, deterministically —
    so replay equivalence (demuxed vs. isolated, pool vs. sequential)
    can be gated on exactly the adversarial cases.

    Builders are emit-style: they call a callback per event, so the same
    scenario streams straight into a file ({!write_file}), a
    {!Tea_core.Multi_replayer}, or a list ({!events}). *)

type stream = {
  asid : int;
  name : string;
  starts : int array;
  insns : int array;
  len : int;
}
(** One workload's recorded block stream; only [0..len-1] is valid. *)

val stream :
  asid:int -> name:string -> starts:int array -> insns:int array -> len:int ->
  stream
(** Validated constructor. @raise Invalid_argument on a negative asid or
    [len] out of range. *)

val load_stream : asid:int -> name:string -> string -> stream
(** Decode a single-stream {!Tea_core.Pc_trace} file (as written by
    [Tea_pinsim.Trace_capture.record]) into a stream stamped with the
    asid. @raise Tea_core.Pc_trace.Corrupt on bad framing. *)

type schedule =
  | Round_robin  (** fixed rotation over live streams *)
  | Random_sched of int  (** seeded uniform pick per turn (SplitMix64) *)

val interleave :
  ?quantum:int ->
  ?schedule:schedule ->
  stream list ->
  (Tea_core.Pc_trace.event -> unit) ->
  unit
(** Multi-process interleaving: schedule quanta of up to [quantum]
    (default 8) blocks over the streams until all are drained, emitting a
    [Switch] whenever the scheduled asid changes (a v3 stream opens in
    asid 0, so a leading switch appears only when the first quantum's
    asid is nonzero). Asids must be distinct.
    @raise Invalid_argument on an empty list, duplicate asids, or
    [quantum < 1]. *)

val smc :
  ?period:int -> stream -> (Tea_core.Pc_trace.event -> unit) -> unit
(** Self-modifying code: every [period] (default 64) blocks the asid's
    translations are patched, emitting an [Invalidate] — the automaton
    drops to NTE and re-learns its traces from their heads (the re-trace
    is the replay itself). No trailing invalidation after the last
    block. @raise Invalid_argument if [period < 1]. *)

val interrupt :
  ?at:int -> ?every:int -> stream -> (Tea_core.Pc_trace.event -> unit) -> unit
(** Asynchronous signal delivery: an [Interrupt] cutting the trace body
    after block offset [at] (default [len / 2]), or after every [every]
    blocks when given (overrides [at]). Cuts falling at or beyond the end
    of the stream are dropped. @raise Invalid_argument on a negative
    [at] or [every < 1]. *)

val write_file : string -> ((Tea_core.Pc_trace.event -> unit) -> unit) -> int
(** [write_file path scenario] streams the scenario into a v3 trace file
    and returns the number of events written — e.g.
    [write_file p (interleave ~quantum:4 streams)]. *)

val events :
  ((Tea_core.Pc_trace.event -> unit) -> unit) -> Tea_core.Pc_trace.event list
(** Collect a scenario into a list (tests). *)

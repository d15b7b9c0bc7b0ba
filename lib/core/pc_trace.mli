(** Compact program-counter trace files.

    The fully decoupled replay story: an execution's logical-block stream
    (block start address + dynamic instruction count) is written to a
    compact binary file — zig-zag delta encoding plus LEB128 varints, a few
    bits per block in loops — and the TEA can later be replayed against
    that file with no program, no interpreter and no frontend present.
    This is what shipping a trace from a production system to an analysis
    box looks like.

    Three formats, sniffed by magic on read:

    - {b v1} (magic ["TEAPC1\n"]): per block a varint-encoded zig-zag
      delta from the previous start address followed by a varint
      instruction count.
    - {b v2} (magic ["PCTR2\n"], the default written): dictionary
      pair-coding over the v1 records. Each record is one varint token:
      [0] escapes to a literal (zig-zag delta + insns varints, which
      registers that pair under the next free token, capped at 2^20
      entries), [k >= 1] repeats dictionary pair [k]. Replay streams
      revisit the same few (delta, insns) pairs in loops, so
      steady-state records compress to ~1 byte — typically 3–4x smaller
      files than v1 — and all formats decode from a whole-file buffer in
      one tight index loop rather than per-byte channel reads.
    - {b v3} (magic ["PCTR3\n"]): the v2 coding extended to multi-process
      interleaved streams. Low tokens are reserved for events — [1]
      switches the current address-space id ([asid], varint operand),
      [2] invalidates an asid's traces (self-modifying code), [3] marks a
      mid-trace interrupt — and dictionary ids start at [4]. Each asid
      runs its own delta chain (the previous start address is parked on
      switch-out and restored on switch-in), so interleaving does not
      destroy the delta/dictionary locality the coder feeds on. A stream
      starts in asid 0. *)

type format = V1 | V2 | V3

type event =
  | Block of { start : int; insns : int }
      (** One executed logical block. *)
  | Switch of { asid : int }
      (** Context switch: subsequent blocks belong to [asid]. *)
  | Invalidate of { asid : int }
      (** [asid]'s translated code was invalidated (self-modifying code);
          its automaton states must be evicted and re-learned. *)
  | Interrupt
      (** Asynchronous signal cut the current asid's trace body; replay
          resumes at NTE. *)

type writer

val open_writer : ?format:format -> string -> writer
(** Default [V2]. [V1] keeps writing the PR 1 byte format for
    interchange with older readers; [V3] enables the event records. *)

val write : writer -> start:int -> insns:int -> unit
(** Append one block record (any format). Under [V3] it is stamped with
    the writer's current asid. *)

val switch_asid : writer -> int -> unit
(** [V3] only. Append a context-switch record; subsequent [write]s belong
    to the given asid (>= 0). @raise Invalid_argument otherwise. *)

val invalidate : writer -> int -> unit
(** [V3] only. Append a trace-invalidation record for an asid (>= 0). *)

val interrupt : writer -> unit
(** [V3] only. Append a mid-trace interrupt record for the current asid. *)

val write_event : writer -> event -> unit
(** Dispatch to [write] / [switch_asid] / [invalidate] / [interrupt]. *)

val close_writer : writer -> unit
(** @raise Sys_error on I/O failure. Idempotent. *)

exception Corrupt of string

val read_all : string -> string
(** Slurp a trace file's raw bytes. ["-"] reads standard input; pipes,
    FIFOs, sockets and other non-seekable inputs are read in chunks until
    EOF (a seekable file stays the single-read fast path). All the
    path-taking readers below go through this, so every one of them
    accepts ["-"] and non-seekable paths like [/dev/stdin] or a FIFO.
    @raise Sys_error on I/O failure. *)

val fold : string -> 'a -> ('a -> start:int -> insns:int -> 'a) -> 'a
(** Stream the file through a folder as a {e single} PC stream; v1 and v2
    files always accepted, and v3 files accepted iff they contain only
    block records. A v3 stream with switch/invalidate/interrupt events is
    rejected — folding it as one flat stream would silently replay an
    interleaved or cut stream against a single automaton — use
    {!fold_events}.
    @raise Corrupt on bad framing (including a file too short to hold
    the magic header, a token referencing a dictionary entry the stream
    never defined, or an event record under this single-stream view). *)

val fold_events : string -> 'a -> ('a -> asid:int -> event -> 'a) -> 'a
(** Stream the file through a folder as an event stream. All three
    formats accepted: v1/v2 block records arrive as [Block] with asid 0.
    [~asid] is the address space the event lands on — for [Switch] that
    is the asid being switched {e to}. @raise Corrupt on bad framing. *)

val length : string -> int
(** Number of block records (events not counted). *)

val iter_chunks :
  ?chunk:int ->
  string ->
  (starts:int array -> insns:int array -> len:int -> unit) ->
  unit
(** Decode the file in blocks of up to [chunk] (default 4096) records into
    reused parallel arrays; only [starts.(0..len-1)] / [insns.(0..len-1)]
    are valid per call. This is the batched front half of
    {!Replayer.feed_run}. Single-stream view: same acceptance rules as
    {!fold} — a v3 file with events is rejected rather than chunked with
    its asid boundaries erased (demultiplex with {!fold_events} or
    [Multi_replayer] first). @raise Corrupt on bad framing. *)

(** {2 Incremental (streaming) decoding}

    The replay-as-a-service ingestion path: trace bytes arrive over a
    socket in arbitrary chunks — a chunk boundary can split a varint, a
    dictionary literal, even the magic — so the decoder buffers the
    undecoded suffix and emits each event exactly when its record
    completes. Feeding a file's bytes in any chunking emits exactly the
    {!fold_events} sequence of that file (property-tested). The
    whole-file folds above remain the fast path for seekable files. *)

type decoder

val decoder : unit -> decoder
(** A fresh streaming decoder; the format is sniffed from the first
    bytes fed. *)

val decoder_feed :
  decoder ->
  ?off:int ->
  ?len:int ->
  string ->
  (asid:int -> event -> unit) ->
  unit
(** [decoder_feed d s emit] consumes [s.[off..off+len)] (default: all of
    [s]) and calls [emit] once per completed event, with the same asid
    stamping as {!fold_events}. Partial records are buffered until a
    later feed completes them; decoder state (dictionary, per-asid delta
    chains) commits only on complete records.
    @raise Corrupt on bad framing (foreign magic, undefined dictionary
    token, over-long varint) — the decoder is then poisoned and must be
    discarded.
    @raise Invalid_argument on a bad substring or a finished decoder. *)

val decoder_finish : decoder -> unit
(** Declare end-of-stream. Idempotent.
    @raise Corrupt if the stream ended mid-record ("truncated varint") or
    before a complete magic ("truncated header" — including the empty
    stream). *)

val decoder_format : decoder -> format option
(** The sniffed format, [None] until enough header bytes were fed. *)

val decoder_pending : decoder -> int
(** Buffered bytes not yet decoded ([0] exactly at a record boundary). *)

val replay : Transition.t -> string -> Replayer.t
(** Replay a TEA against a trace file: the offline half of the
    cross-system workflow (reference engine, record-at-a-time). *)

val replay_packed : Packed.t -> string -> Replayer.t
(** Same replay through the compiled engine over the image: decode in
    4096-block chunks ({!iter_chunks}), each fed to {!Replayer.feed_run}, so
    memory is per chunk, not per trace. Identical coverage, profiles and
    state sequence to {!replay} over the same automaton. Stats and
    cycles accumulate on [packed]. *)

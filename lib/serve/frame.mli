(** The replay-as-a-service wire protocol.

    A session is one byte stream per direction, framed as

    {v tag (1 byte) | payload length (4 bytes, big-endian) | payload v}

    Client to server: any number of [tag_data] frames whose concatenated
    payloads are the raw bytes of one {!Tea_core.Pc_trace} file (any
    format; frames may split the stream anywhere, including mid-varint —
    the server decodes incrementally), then one empty [tag_end] frame.
    Server to client: a single [tag_profile] frame carrying the session's
    replay profile, or a [tag_error] frame with a human-readable message.

    Like the trace codec, framing is transport-agnostic: an incremental
    {!parser} consumes arbitrary byte chunks and yields complete frames,
    so the same code runs over Unix sockets, TCP, or in-memory tests. *)

exception Corrupt of string
(** Malformed framing (oversized or negative length, unknown tag at the
    parser, truncated profile payload). *)

val max_payload : int
(** Upper bound a parser accepts for one frame's payload (16 MiB) — a
    hostile length prefix must not become an allocation. *)

val tag_data : char
val tag_end : char
val tag_profile : char
val tag_error : char

val tag_scrape : char
(** Client to server, as the {e first} frame of a connection (empty
    payload): ask for one metrics exposition instead of replaying. The
    server answers with a single [tag_metrics] frame and the connection
    is done. Scrape connections are observers — they never count as
    sessions, perturb no fleet state, and bump no metrics, so a scrape's
    own traffic can never show up in what it scrapes. *)

val tag_metrics : char
(** Server to client: the Prometheus-style text exposition
    ({!Tea_observe.Exposition}) of the daemon's live metrics, dispatch
    tiers and drift gauge. *)

type frame = { tag : char; payload : string }

val encode : char -> string -> string
(** One whole frame as bytes.
    @raise Invalid_argument when the payload exceeds {!max_payload}. *)

(** {2 Incremental parsing} *)

type parser_

val parser_ : unit -> parser_

val parser_feed : parser_ -> ?off:int -> ?len:int -> string -> (frame -> unit) -> unit
(** Consume a chunk, calling back once per completed frame; partial
    frames are buffered until a later feed completes them.
    @raise Corrupt on a malformed header. *)

val parser_pending : parser_ -> int
(** Buffered bytes of an incomplete frame ([0] at a frame boundary). *)

(** {2 Blocking fd helpers (client side and server replies)} *)

val send : Unix.file_descr -> char -> string -> unit
(** Write one whole frame, looping over short writes.
    @raise Unix.Unix_error (e.g. [EPIPE]) on a dead peer. *)

val recv : Unix.file_descr -> frame option
(** Read one whole frame from a blocking fd; [None] on clean EOF at a
    frame boundary. Memory follows the bytes that arrive, not the
    header's length claim. @raise Corrupt on a malformed or truncated
    frame. *)

(** {2 Profile payloads} *)

val encode_profile : Tea_parallel.Profile.t -> string
(** Varint serialization of a full profile snapshot — every observable
    the replayer accumulates, so the client can verify its session
    against an offline replay bit-for-bit. *)

val decode_profile : string -> Tea_parallel.Profile.t
(** @raise Corrupt on truncated or trailing bytes, a varint that
    overflows, or a counts length the remaining bytes cannot hold. *)

(** {2 Addresses} *)

type addr =
  | Unix_sock of string  (** Unix-domain socket path *)
  | Tcp of string * int  (** host, port *)

val pp_addr : addr -> string

val sockaddr_of_addr : addr -> Unix.sockaddr
(** @raise Failure when a TCP host does not resolve. *)

val connect : addr -> Unix.file_descr
(** A connected blocking stream socket. @raise Unix.Unix_error. *)

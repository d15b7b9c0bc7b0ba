type format = V1 | V2 | V3

type event =
  | Block of { start : int; insns : int }
  | Switch of { asid : int }
  | Invalidate of { asid : int }
  | Interrupt

type writer = {
  oc : out_channel;
  format : format;
  dict : (int * int, int) Hashtbl.t; (* v2/v3: (delta, insns) -> token *)
  mutable next_id : int;
  mutable prev : int; (* current asid's previous start address *)
  mutable cur_asid : int;
  parked : (int, int) Hashtbl.t; (* v3: prev of every non-current asid *)
  mutable closed : bool;
}

let magic = "TEAPC1\n"

let magic_v2 = "PCTR2\n"

let magic_v3 = "PCTR3\n"

(* v3 reserves the low tokens for events; dictionary ids start above
   them. v2 has no events, so only the literal escape 0 is reserved. *)
let tok_literal = 0

let tok_switch = 1

let tok_invalidate = 2

let tok_interrupt = 3

let first_dict_id = function V1 | V2 -> 1 | V3 -> tok_interrupt + 1

(* Decoder memory bound: a hostile or degenerate stream registers at
   most this many dictionary pairs; later literals simply stay
   unregistered (still decodable, just not back-referenced). *)
let dict_cap = 1 lsl 20

exception Corrupt of string

let open_writer ?(format = V2) path =
  let oc = open_out_bin path in
  output_string oc
    (match format with V1 -> magic | V2 -> magic_v2 | V3 -> magic_v3);
  {
    oc;
    format;
    dict = Hashtbl.create 256;
    next_id = first_dict_id format;
    prev = 0;
    cur_asid = 0;
    parked = Hashtbl.create 8;
    closed = false;
  }

let zigzag v = if v >= 0 then v lsl 1 else ((-v) lsl 1) - 1

let unzigzag v = if v land 1 = 0 then v lsr 1 else -((v + 1) lsr 1)

let rec write_varint oc v =
  if v < 0x80 then output_byte oc v
  else begin
    output_byte oc (0x80 lor (v land 0x7F));
    write_varint oc (v lsr 7)
  end

let write w ~start ~insns =
  if w.closed then invalid_arg "Pc_trace.write: writer closed";
  if insns < 0 then invalid_arg "Pc_trace.write: negative instruction count";
  let delta = start - w.prev in
  (match w.format with
  | V1 ->
      write_varint w.oc (zigzag delta);
      write_varint w.oc insns
  | V2 | V3 -> (
      (* Dictionary pair-coding: a (delta, insns) pair seen before is one
         small varint token; loops replay the same few pairs over and
         over, so steady-state records cost ~1 byte instead of the
         v1 delta + count pair. Token 0 escapes to a literal record,
         which registers the pair under the next free token. *)
      match Hashtbl.find_opt w.dict (delta, insns) with
      | Some id -> write_varint w.oc id
      | None ->
          write_varint w.oc tok_literal;
          write_varint w.oc (zigzag delta);
          write_varint w.oc insns;
          if w.next_id < dict_cap then begin
            Hashtbl.add w.dict (delta, insns) w.next_id;
            w.next_id <- w.next_id + 1
          end));
  w.prev <- start

let require_v3 w what =
  if w.closed then invalid_arg ("Pc_trace." ^ what ^ ": writer closed");
  if w.format <> V3 then
    invalid_arg ("Pc_trace." ^ what ^ ": events require a V3 writer")

(* Each asid runs its own delta chain — interleaving must not destroy the
   in-loop locality the dictionary coder feeds on — so a switch parks the
   outgoing asid's [prev] and restores (or zeroes) the incoming one's. *)
let switch_asid w asid =
  require_v3 w "switch_asid";
  if asid < 0 then invalid_arg "Pc_trace.switch_asid: negative asid";
  write_varint w.oc tok_switch;
  write_varint w.oc asid;
  if asid <> w.cur_asid then begin
    Hashtbl.replace w.parked w.cur_asid w.prev;
    w.prev <- (match Hashtbl.find_opt w.parked asid with Some p -> p | None -> 0);
    w.cur_asid <- asid
  end

let invalidate w asid =
  require_v3 w "invalidate";
  if asid < 0 then invalid_arg "Pc_trace.invalidate: negative asid";
  write_varint w.oc tok_invalidate;
  write_varint w.oc asid

let interrupt w =
  require_v3 w "interrupt";
  write_varint w.oc tok_interrupt

let write_event w = function
  | Block { start; insns } -> write w ~start ~insns
  | Switch { asid } -> switch_asid w asid
  | Invalidate { asid } -> invalidate w asid
  | Interrupt -> interrupt w

let close_writer w =
  if not w.closed then begin
    w.closed <- true;
    close_out w.oc
  end

(* ---- decoding ----

   One record kernel ([decode]) serves every consumer; see the interface
   for its contract. *)

(* Whole-input slurp. [in_channel_length] only works on seekable files —
   on a pipe, FIFO, socket or tty the underlying lseek fails — so those
   fall back to chunked reads until EOF. ["-"] reads standard input. *)
let read_channel ic =
  let chunked () =
    let chunk = 65536 in
    let buf = Buffer.create chunk in
    let b = Bytes.create chunk in
    let rec go () =
      let k = input ic b 0 chunk in
      if k > 0 then begin
        Buffer.add_subbytes buf b 0 k;
        go ()
      end
    in
    go ();
    Buffer.contents buf
  in
  match in_channel_length ic with
  | exception Sys_error _ -> chunked ()
  | n when n <= 0 -> chunked ()
  | n -> really_input_string ic n

let read_all path =
  if path = "-" then begin
    set_binary_mode_in stdin true;
    read_channel stdin
  end
  else
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)

(* Magic classification, shared by the whole-file sniff and the streaming
   decoder. A prefix is [`Short] only while it could still grow into one
   of the magics — a short-but-foreign input is [Corrupt "bad magic"],
   not "truncated header". *)
let classify_magic s len =
  let matches m =
    let ml = String.length m in
    len >= ml && String.sub s 0 ml = m
  in
  let could_grow_into m =
    len < String.length m && String.sub s 0 len = String.sub m 0 len
  in
  if matches magic_v2 then `Found (V2, String.length magic_v2)
  else if matches magic_v3 then `Found (V3, String.length magic_v3)
  else if matches magic then `Found (V1, String.length magic)
  else if could_grow_into magic_v2 || could_grow_into magic_v3
          || could_grow_into magic then `Short
  else raise (Corrupt "bad magic")

let tag_switch = tok_switch

let tag_invalidate = tok_invalidate

let tag_interrupt = tok_interrupt

let event_of_ctl ~tag ~arg =
  if tag = tag_switch then Switch { asid = arg }
  else if tag = tag_invalidate then Invalidate { asid = arg }
  else Interrupt

(* Per-asid state. Real streams switch among a few small asids every few
   blocks, so those index an array; any other int a stream names goes to
   a hash table. Absent keys read as [default]. *)
module Asid_map = struct
  type 'a t = { default : 'a; mutable lo : 'a array; hi : (int, 'a) Hashtbl.t }

  let lo_limit = 4096

  let create default = { default; lo = Array.make 8 default; hi = Hashtbl.create 8 }

  let get m a =
    if a < Array.length m.lo then m.lo.(a)
    else if a < lo_limit then m.default
    else Option.value ~default:m.default (Hashtbl.find_opt m.hi a)

  let set m a v =
    if a >= lo_limit then Hashtbl.replace m.hi a v
    else begin
      if a >= Array.length m.lo then begin
        let lo = Array.make (min lo_limit (2 * (a + 1))) m.default in
        Array.blit m.lo 0 lo 0 (Array.length m.lo);
        m.lo <- lo
      end;
      m.lo.(a) <- v
    end
end

type kernel = {
  fmt : format;
  base : int; (* first dictionary token *)
  mutable ddelta : int array;
  mutable dinsns : int array;
  mutable next : int; (* next dictionary token to be defined *)
  mutable prev : int; (* current asid's previous start address *)
  mutable asid : int;
  parked : int Asid_map.t; (* v3: prev of every non-current asid *)
  mutable pos : int; (* read position in the buffer *)
  mutable mark : int; (* first byte of the record being decoded *)
}

let kernel fmt pos =
  let base = first_dict_id fmt in
  { fmt; base; ddelta = Array.make 256 0; dinsns = Array.make 256 0; next = base;
    prev = 0; asid = 0; parked = Asid_map.create 0; pos; mark = pos }

exception Need_more

let corrupt msg = raise (Corrupt msg)

(* The one varint reader: LEB128 of at most 9 bytes, i.e. 63 bits, the
   width of an OCaml int, so a ninth byte with its continuation bit set
   is corrupt. [Need_more] at [lim]. *)
let rec varint_from k b lim p acc shift =
  if p >= lim then raise_notrace Need_more;
  let c = Char.code (Bytes.unsafe_get b p) in
  let acc = acc lor ((c land 0x7F) lsl shift) in
  if c < 0x80 then begin
    k.pos <- p + 1;
    acc
  end
  else if shift = 56 then corrupt "varint too long"
  else varint_from k b lim (p + 1) acc (shift + 7)

let varint k b lim = varint_from k b lim k.pos 0 0

(* An operand the writer never emits negative, though 9 bytes can set
   the sign bit. *)
let nonneg k b lim what =
  let v = varint k b lim in
  if v < 0 then corrupt ("negative " ^ what);
  v

(* [Array.blit] into a major-heap array pays the write barrier per
   element; an int copy needs none. *)
let copy_ints src dst n =
  for i = 0 to n - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i : int)
  done

let register k delta insns =
  if k.next < dict_cap then begin
    if k.next = Array.length k.ddelta then begin
      let nd = Array.make (2 * k.next) 0 and ni = Array.make (2 * k.next) 0 in
      copy_ints k.ddelta nd k.next;
      copy_ints k.dinsns ni k.next;
      k.ddelta <- nd;
      k.dinsns <- ni
    end;
    k.ddelta.(k.next) <- delta;
    k.dinsns.(k.next) <- insns;
    k.next <- k.next + 1
  end

(* Decode every complete record of [b.[k.pos..lim)], calling [block] per
   block record and [ctl] per v3 event (with the asid it lands on — for a
   switch, the asid switched to). On return [k.pos] is [lim] or the first
   byte of a record cut off at [lim]. *)
let decode k b lim ~block ~ctl =
  try
    while k.pos < lim do
      let p = k.pos in
      k.mark <- p;
      (* a v1 record is a bare literal; a token is one byte in the
         steady state, read inline *)
      let t =
        if k.fmt = V1 then tok_literal
        else if Bytes.unsafe_get b p < '\x80' then begin
          k.pos <- p + 1;
          Char.code (Bytes.unsafe_get b p)
        end
        else varint k b lim
      in
      if t >= k.base then begin
        (* [next] never exceeds the dictionary arrays' length *)
        if t >= k.next then corrupt "bad dictionary token";
        let start = k.prev + Array.unsafe_get k.ddelta t in
        k.prev <- start;
        block ~asid:k.asid ~start ~insns:(Array.unsafe_get k.dinsns t)
      end
      else if t = tok_literal then begin
        let delta = unzigzag (varint k b lim) in
        let insns = nonneg k b lim "instruction count" in
        if k.fmt <> V1 then register k delta insns;
        let start = k.prev + delta in
        k.prev <- start;
        block ~asid:k.asid ~start ~insns
      end
      (* only v3 gets here with a positive token *)
      else if t = tok_interrupt then ctl ~asid:k.asid ~tag:t ~arg:0
      else if t > 0 then begin
        let a = nonneg k b lim "asid" in
        (* each asid runs its own delta chain *)
        if t = tok_switch && a <> k.asid then begin
          Asid_map.set k.parked k.asid k.prev;
          k.prev <- Asid_map.get k.parked a;
          k.asid <- a
        end;
        ctl ~asid:k.asid ~tag:t ~arg:a
      end
      else corrupt "bad dictionary token"
    done
  with Need_more -> k.pos <- k.mark

(* ---- whole-buffer consumers ---- *)

(* [s] is only ever read, so the kernel decodes it in place. *)
let decode_string s ~block ~ctl =
  let lim = String.length s in
  let k =
    match classify_magic s lim with
    | `Found (fmt, hlen) -> kernel fmt hlen
    | `Short -> corrupt "truncated header"
  in
  decode k (Bytes.unsafe_of_string s) lim ~block ~ctl;
  if k.pos < lim then corrupt "truncated varint"

let decode_file path = decode_string (read_all path)

let single_stream ~asid:_ ~tag:_ ~arg:_ =
  corrupt "v3 event stream is not a single PC stream (use fold_events)"

let fold path init f =
  let acc = ref init in
  decode_file path ~ctl:single_stream ~block:(fun ~asid:_ ~start ~insns ->
      acc := f !acc ~start ~insns);
  !acc

let fold_events path init f =
  let acc = ref init in
  decode_file path
    ~block:(fun ~asid ~start ~insns -> acc := f !acc ~asid (Block { start; insns }))
    ~ctl:(fun ~asid ~tag ~arg -> acc := f !acc ~asid (event_of_ctl ~tag ~arg));
  !acc

let length path =
  let n = ref 0 in
  decode_file path
    ~block:(fun ~asid:_ ~start:_ ~insns:_ -> incr n)
    ~ctl:(fun ~asid:_ ~tag:_ ~arg:_ -> ());
  !n

let iter_chunks ?(chunk = 4096) path f =
  if chunk <= 0 then invalid_arg "Pc_trace.iter_chunks: chunk must be positive";
  let starts = Array.make chunk 0 and insns_buf = Array.make chunk 0 in
  let fill = ref 0 in
  decode_file path ~ctl:single_stream ~block:(fun ~asid:_ ~start ~insns ->
      let i = !fill in
      starts.(i) <- start;
      insns_buf.(i) <- insns;
      fill := i + 1;
      if i + 1 = chunk then begin
        fill := 0;
        f ~starts ~insns:insns_buf ~len:chunk
      end);
  if !fill > 0 then f ~starts ~insns:insns_buf ~len:!fill

type run = { starts : int array; insns : int array; len : int }

(* Every block record takes at least one byte, so a stream's byte count
   bounds its block count. *)
let load path =
  let s = read_all path in
  let starts = Array.make (String.length s) 0 in
  let insns = Array.make (String.length s) 0 in
  let n = ref 0 in
  decode_string s ~ctl:single_stream ~block:(fun ~asid:_ ~start ~insns:ins ->
      let i = !n in
      starts.(i) <- start;
      insns.(i) <- ins;
      n := i + 1);
  { starts; insns; len = !n }

(* ---- incremental decoding ----

   The daemon path: trace bytes arrive over a socket in arbitrary chunks
   (a frame can split a varint, even the magic), so the decoder keeps the
   undecoded suffix buffered and runs the kernel over it after every
   feed; a record cut by the chunk boundary stays buffered until the next
   feed completes it. *)

type decoder = {
  mutable buf : Bytes.t; (* buffered input; [k.pos..len) undecoded *)
  mutable len : int;
  mutable k : kernel option; (* [None] until the magic is sniffed *)
  mutable finished : bool;
}

let decoder () =
  { buf = Bytes.create 4096; len = 0; k = None; finished = false }

let decoder_format d = Option.map (fun k -> k.fmt) d.k

let decoder_pending d =
  match d.k with Some k -> d.len - k.pos | None -> d.len

(* Append [s.[off..off+len)], compacting the consumed prefix first so the
   buffer never grows past (pending record + one feed). *)
let append d s off len =
  (match d.k with
  | Some k when k.pos > 0 ->
      Bytes.blit d.buf k.pos d.buf 0 (d.len - k.pos);
      d.len <- d.len - k.pos;
      k.pos <- 0
  | _ -> ());
  let need = d.len + len in
  if need > Bytes.length d.buf then begin
    let cap = ref (2 * Bytes.length d.buf) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let nb = Bytes.create !cap in
    Bytes.blit d.buf 0 nb 0 d.len;
    d.buf <- nb
  end;
  Bytes.blit_string s off d.buf d.len len;
  d.len <- need

let decoder_feed_ints d ?(off = 0) ?len s ~block ~ctl =
  if d.finished then invalid_arg "Pc_trace.decoder_feed: decoder finished";
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Pc_trace.decoder_feed: bad substring";
  append d s off len;
  if Option.is_none d.k then begin
    (* the longest magic is 7 bytes; classify on what we have *)
    let hl = min d.len 7 in
    match classify_magic (Bytes.sub_string d.buf 0 hl) hl with
    | `Short -> ()
    | `Found (fmt, hlen) -> d.k <- Some (kernel fmt hlen)
  end;
  match d.k with Some k -> decode k d.buf d.len ~block ~ctl | None -> ()

let decoder_feed d ?off ?len s emit =
  decoder_feed_ints d ?off ?len s
    ~block:(fun ~asid ~start ~insns -> emit ~asid (Block { start; insns }))
    ~ctl:(fun ~asid ~tag ~arg -> emit ~asid (event_of_ctl ~tag ~arg))

let decoder_finish d =
  if not d.finished then begin
    (match d.k with
    | None -> corrupt "truncated header"
    | Some k -> if k.pos < d.len then corrupt "truncated varint");
    d.finished <- true
  end

let replay trans path =
  let rep = Replayer.create trans in
  fold path () (fun () ~start ~insns -> Replayer.feed_addr rep ~insns start);
  rep

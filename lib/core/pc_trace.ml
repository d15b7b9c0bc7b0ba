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

let tag_switch = 1

let tag_invalidate = 2

let tag_interrupt = 3

let first_dict_id = function V1 | V2 -> 1 | V3 -> tag_interrupt + 1

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
  write_varint w.oc tag_switch;
  write_varint w.oc asid;
  if asid <> w.cur_asid then begin
    Hashtbl.replace w.parked w.cur_asid w.prev;
    w.prev <- (match Hashtbl.find_opt w.parked asid with Some p -> p | None -> 0);
    w.cur_asid <- asid
  end

let invalidate w asid =
  require_v3 w "invalidate";
  if asid < 0 then invalid_arg "Pc_trace.invalidate: negative asid";
  write_varint w.oc tag_invalidate;
  write_varint w.oc asid

let interrupt w =
  require_v3 w "interrupt";
  write_varint w.oc tag_interrupt

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

   One kernel ([decode_blocks]) and the step beside it ([decode_step])
   serve every consumer; see the interface for their contract. *)

(* [In_channel.input_all] reads a seekable file in one go and anything
   else (a pipe, FIFO, socket or tty) in chunks until EOF. ["-"] reads
   standard input. *)
let read_all path =
  if path = "-" then begin
    set_binary_mode_in stdin true;
    In_channel.input_all stdin
  end
  else In_channel.with_open_bin path In_channel.input_all

(* Magic classification, shared by the whole-file sniff and the streaming
   decoder. A prefix is [`Short] only while it could still grow into one
   of the magics — a short-but-foreign input is [Corrupt "bad magic"],
   not "truncated header". *)
let classify_magic s len =
  let magics = [ (magic_v2, V2); (magic_v3, V3); (magic, V1) ] in
  let agrees m n = String.sub s 0 n = String.sub m 0 n in
  let whole (m, _) = len >= String.length m && agrees m (String.length m) in
  match List.find_opt whole magics with
  | Some (m, fmt) -> `Found (fmt, String.length m)
  | None when List.exists (fun (m, _) -> len < String.length m && agrees m len) magics ->
      `Short
  | None -> raise (Corrupt "bad magic")

(* What the kernel stopped at, with [d.pos] at that record's first byte:
   the end of input (or a record cut off there), a complete block record
   with no room left, a v3 control record, a corrupt record ([d.err]). *)
let stop_end = 0 and stop_full = 1 and stop_ctl = 2 and stop_bad = 3

(* A stream's decoder buffers the undecoded suffix of what it was fed (a
   frame can split a varint, even the magic); a whole file's decoder
   reads the file's string in place, never writing it. *)
type decoder = {
  mutable buf : Bytes.t; (* [pos..len) undecoded *)
  mutable len : int;
  mutable pos : int;
  mutable sniffed : bool; (* the magic is read: [fmt] and [base] hold *)
  mutable fmt : format;
  mutable base : int; (* first dictionary token *)
  single : bool; (* {!fold}'s single-stream view: no control records *)
  mutable ddelta : int array;
  mutable dinsns : int array;
  mutable next : int; (* next dictionary token to be defined *)
  mutable prev : int; (* current asid's previous start address *)
  mutable asid : int;
  mutable parked : int array; (* v3: prev of every non-current asid... *)
  far : (int, int) Hashtbl.t; (* ...from 4096 on *)
  mutable stop : int;
  mutable err : string;
  mutable arg : int; (* operand of the last control record *)
  mutable finished : bool;
}

let sniff d =
  if not d.sniffed then
    (* the longest magic is 7 bytes; classify on what we have *)
    let hl = min d.len 7 in
    match classify_magic (Bytes.sub_string d.buf 0 hl) hl with
    | `Short -> ()
    | `Found (fmt, hlen) ->
        d.sniffed <- true;
        d.fmt <- fmt;
        d.base <- first_dict_id fmt;
        d.next <- d.base;
        d.pos <- hlen

let make_decoder single buf len =
  let d =
    { buf; len; pos = 0; sniffed = false; fmt = V1; base = 0; single;
      ddelta = Array.make 256 0; dinsns = Array.make 256 0; next = 0;
      prev = 0; asid = 0; parked = Array.make 8 0; far = Hashtbl.create 8;
      stop = stop_end; err = ""; arg = 0; finished = false }
  in
  sniff d;
  d

let decoder () = make_decoder false (Bytes.create 4096) 0

let single_decoder () = make_decoder true (Bytes.create 4096) 0

exception Need_more

exception Stop

let corrupt msg = raise (Corrupt msg)

(* The one varint reader: LEB128 of at most 9 bytes, i.e. 63 bits, the
   width of an OCaml int, so a ninth byte with its continuation bit set
   is corrupt. [Need_more] at the end of input. *)
let rec varint_from d p acc shift =
  if p >= d.len then raise_notrace Need_more;
  let c = Char.code (Bytes.unsafe_get d.buf p) in
  let acc = acc lor ((c land 0x7F) lsl shift) in
  if c < 0x80 then begin
    d.pos <- p + 1;
    acc
  end
  else if shift = 56 then corrupt "varint too long"
  else varint_from d (p + 1) acc (shift + 7)

let varint d = varint_from d d.pos 0 0

(* An operand the writer never emits negative, though 9 bytes can set
   the sign bit. *)
let nonneg d what =
  let v = varint d in
  if v < 0 then corrupt ("negative " ^ what);
  v

(* [Array.blit] into a major-heap array pays the write barrier per
   element; an int copy needs none. *)
let copy_ints src dst n =
  for i = 0 to n - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i : int)
  done

let register d delta insns =
  if d.next < dict_cap then begin
    if d.next = Array.length d.ddelta then begin
      let nd = Array.make (2 * d.next) 0 and ni = Array.make (2 * d.next) 0 in
      copy_ints d.ddelta nd d.next;
      copy_ints d.dinsns ni d.next;
      d.ddelta <- nd;
      d.dinsns <- ni
    end;
    d.ddelta.(d.next) <- delta;
    d.dinsns.(d.next) <- insns;
    d.next <- d.next + 1
  end

type lane = { mutable starts : int array; mutable insns : int array; mutable fill : int }

let no_lane = { starts = [||]; insns = [||]; fill = 0 }

(* Each asid runs its own delta chain: a switch parks the outgoing asid's
   [prev] and restores the incoming one's. Real streams switch among a
   few small asids every few blocks, so those index an array. *)
let switch_to d a =
  let o = d.asid in
  if o >= 4096 then Hashtbl.replace d.far o d.prev
  else begin
    if o >= Array.length d.parked then begin
      let lo = Array.make (min 4096 (2 * (o + 1))) 0 in
      Array.blit d.parked 0 lo 0 (Array.length d.parked);
      d.parked <- lo
    end;
    d.parked.(o) <- d.prev
  end;
  d.asid <- a;
  d.prev <-
    (if a < Array.length d.parked then d.parked.(a)
     else Option.value ~default:0 (Hashtbl.find_opt d.far a))

(* The kernel's steady state: a v2/v3 stream in a loop is almost all
   dictionary tokens, so they take a loop of their own that keeps the
   position, the delta chain and the fill in locals, raises nothing, and
   writes [d.pos] and [d.prev] back once, when it leaves. It takes a
   token [base <= t < next] written in one byte, or in two when both
   are in the buffer: a dictionary past 124 pairs writes most of its
   tokens in two, and paying an exit per two-byte token would cost more
   than the loop saves. It leaves at anything else, for the per-record
   path below: a full lane, the end of input, a literal (which grows
   [next] and may reallocate the dictionary), a control token, an
   undefined token, and a token of three or more bytes. Returns the
   fill. *)
let fill_tokens d starts insns cap fill =
  let buf = d.buf and len = d.len and base = d.base and next = d.next in
  let ddelta = d.ddelta and dinsns = d.dinsns in
  let p = ref d.pos and prev = ref d.prev and n = ref fill in
  let t = ref 0 and q = ref 0 in
  while
    !n < cap && !p < len
    && begin
         let c = Char.code (Bytes.unsafe_get buf !p) in
         if c < 0x80 then begin
           t := c;
           q := !p + 1
         end
         else if !p + 1 < len then begin
           (* a second continuation bit makes the token too wide *)
           let c2 = Char.code (Bytes.unsafe_get buf (!p + 1)) in
           t := if c2 < 0x80 then (c land 0x7F) lor (c2 lsl 7) else -1;
           q := !p + 2
         end
         else t := -1;
         !t >= base && !t < next
       end
  do
    let start = !prev + Array.unsafe_get ddelta !t in
    prev := start;
    Array.unsafe_set starts !n start;
    Array.unsafe_set insns !n (Array.unsafe_get dinsns !t);
    incr n;
    p := !q
  done;
  d.pos <- !p;
  d.prev <- !prev;
  !n

(* The kernel's loop over one lane: blocks commit straight into the
   lane's arrays, and any other record stops it. Between the token loop's
   runs, one record at a time takes the general reader, with every check.
   Returns the blocks written. *)
let fill_lane d lane =
  let starts = lane.starts and insns = lane.insns in
  let cap = min (Array.length starts) (Array.length insns) in
  let fill = lane.fill in
  if fill < 0 || fill > cap then invalid_arg "Pc_trace.decode_blocks: bad fill";
  let n = ref fill and mark = ref d.pos in
  d.stop <- stop_end;
  (if d.sniffed then
   try
     while d.pos < d.len do
       (* a v1 record is a bare literal *)
       if d.fmt <> V1 then n := fill_tokens d starts insns cap !n;
       let p = d.pos in
       mark := p;
       if p >= d.len then raise_notrace Need_more;
       let t = if d.fmt = V1 then tok_literal else varint d in
       if t >= d.base then begin
         (* [next] never exceeds the dictionary arrays' length *)
         if t >= d.next then corrupt "bad dictionary token";
         if !n = cap then (d.stop <- stop_full; raise_notrace Stop);
         let start = d.prev + Array.unsafe_get d.ddelta t in
         d.prev <- start;
         Array.unsafe_set starts !n start;
         Array.unsafe_set insns !n (Array.unsafe_get d.dinsns t);
         incr n
       end
       else if t = tok_literal then begin
         let delta = unzigzag (varint d) in
         let ins = nonneg d "instruction count" in
         if !n = cap then (d.stop <- stop_full; raise_notrace Stop);
         if d.fmt <> V1 then register d delta ins;
         let start = d.prev + delta in
         d.prev <- start;
         Array.unsafe_set starts !n start;
         Array.unsafe_set insns !n ins;
         incr n
       end
       (* only v3 has positive tokens below [base] *)
       else if t > 0 then (d.stop <- stop_ctl; raise_notrace Stop)
       else corrupt "bad dictionary token"
     done
   with
   | Need_more | Stop -> d.pos <- !mark
   | Corrupt msg ->
       d.pos <- !mark;
       d.stop <- stop_bad;
       d.err <- msg);
  lane.fill <- !n;
  !n - fill

(* The lane of the control record at [d.pos] if it is a complete switch
   to a routed asid: the record is consumed and the delta chain
   switched. Anything else leaves [d.pos] at the record, for the step. *)
let route_switch d route =
  let p = d.pos in
  match if varint d = tag_switch then varint d else -1 with
  | a when a >= 0 && a < Array.length route && route.(a) != no_lane ->
      if a <> d.asid then switch_to d a;
      route.(a)
  | _ ->
      d.pos <- p;
      no_lane
  | exception (Need_more | Corrupt _) ->
      d.pos <- p;
      no_lane

(* The kernel: lane by lane, taking the routed switches in between. *)
let rec decode_lanes d route lane blocks =
  let blocks = blocks + fill_lane d lane in
  if d.stop <> stop_ctl || d.single then blocks
  else
    let next = route_switch d route in
    if next == no_lane then blocks else decode_lanes d route next blocks

let decode_blocks d route lane = decode_lanes d route lane 0

let step_full = 0 and step_end = -1

(* The step beside the kernel, at the record it stopped at. *)
let decode_step d =
  if d.stop = stop_ctl then begin
    let p = d.pos in
    d.stop <- stop_end;
    (* the general reader: a token may take more than one byte *)
    match
      let t = varint d in
      d.arg <- (if t = tag_interrupt then 0 else nonneg d "asid");
      t
    with
    | exception Need_more ->
        d.pos <- p;
        step_end
    | t ->
        if d.single then
          corrupt "v3 event stream is not a single PC stream (use fold_events)";
        if t = tag_switch && d.arg <> d.asid then switch_to d d.arg;
        t
  end
  else if d.stop = stop_bad then corrupt d.err
  else if d.stop = stop_full then step_full
  else step_end

let decoder_asid d = d.asid

let decoder_arg d = d.arg

(* Alternate kernel and step until no complete record is left, handing
   each run of blocks to [run] and each control record to [ctl]. *)
let drive d starts insns ~run ~ctl =
  let lane = { starts; insns; fill = 0 } in
  let rec go () =
    lane.fill <- 0;
    let n = decode_blocks d [||] lane in
    if n > 0 then run ~asid:d.asid starts insns n;
    let s = decode_step d in
    if s = step_full then go ()
    else if s <> step_end then begin
      ctl ~asid:d.asid ~tag:s ~arg:d.arg;
      go ()
    end
  in
  go ()

(* The event-valued consumers run the kernel into small arrays of their
   own. *)
let drive_events d emit =
  drive d (Array.make 256 0) (Array.make 256 0)
    ~run:(fun ~asid starts insns n ->
      for i = 0 to n - 1 do
        emit ~asid (Block { start = starts.(i); insns = insns.(i) })
      done)
    ~ctl:(fun ~asid ~tag ~arg ->
      emit ~asid
        (if tag = tag_switch then Switch { asid = arg }
         else if tag = tag_invalidate then Invalidate { asid = arg }
         else Interrupt))

let decoder_finish d =
  if not d.finished then begin
    if not d.sniffed then corrupt "truncated header";
    if d.pos < d.len then corrupt "truncated varint";
    d.finished <- true
  end

(* ---- whole-file consumers ---- *)

let decode_string ~single s f =
  let d = make_decoder single (Bytes.unsafe_of_string s) (String.length s) in
  f d;
  decoder_finish d

let no_ctl ~asid:_ ~tag:_ ~arg:_ = ()

let decode_file ~single path ~run ~ctl =
  decode_string ~single (read_all path) (fun d ->
      drive d (Array.make 4096 0) (Array.make 4096 0) ~run ~ctl)

let fold path init f =
  let acc = ref init in
  decode_file ~single:true path ~ctl:no_ctl ~run:(fun ~asid:_ starts insns n ->
      for i = 0 to n - 1 do
        acc := f !acc ~start:starts.(i) ~insns:insns.(i)
      done);
  !acc

let fold_events path init f =
  let acc = ref init in
  decode_string ~single:false (read_all path) (fun d ->
      drive_events d (fun ~asid ev -> acc := f !acc ~asid ev));
  !acc

let length path =
  let total = ref 0 in
  decode_file ~single:false path ~ctl:no_ctl ~run:(fun ~asid:_ _ _ n ->
      total := !total + n);
  !total

type run = { starts : int array; insns : int array; len : int }

(* Every block record takes at least one byte, so a stream's byte count
   bounds its block count, and the kernel fills the arrays in one call. *)
let load path =
  let s = read_all path in
  let starts = Array.make (String.length s) 0 in
  let insns = Array.make (String.length s) 0 in
  let len = ref 0 in
  decode_string ~single:true s (fun d ->
      drive d starts insns ~ctl:no_ctl ~run:(fun ~asid:_ _ _ n -> len := n));
  { starts; insns; len = !len }

let replay trans path =
  let rep = Replayer.create trans in
  decode_file ~single:true path ~ctl:no_ctl ~run:(fun ~asid:_ starts insns len ->
      Replayer.feed_run rep ~insns starts ~len);
  rep

(* ---- streams ---- *)

let decoder_format d = if d.sniffed then Some d.fmt else None

let decoder_pending (d : decoder) = d.len - d.pos

(* Append [s.[off..off+len)], compacting the consumed prefix first so the
   buffer never grows past (pending record + one feed). *)
let append d s off len =
  if d.pos > 0 then begin
    Bytes.blit d.buf d.pos d.buf 0 (d.len - d.pos);
    d.len <- d.len - d.pos;
    d.pos <- 0
  end;
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

let decoder_input d ?(off = 0) ?len s =
  if d.finished then invalid_arg "Pc_trace.decoder_feed: decoder finished";
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Pc_trace.decoder_feed: bad substring";
  append d s off len;
  sniff d

let decoder_feed d ?off ?len s emit =
  decoder_input d ?off ?len s;
  drive_events d emit

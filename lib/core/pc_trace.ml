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

   All formats decode from a whole-file string: one read, then a tight
   index loop — measurably faster than the per-byte [input_byte] channel
   loop the v1 decoder used, and it makes truncation checks exact. *)

let read_varint_s s pos =
  let len = String.length s in
  let rec go shift acc =
    if !pos >= len then raise (Corrupt "truncated varint");
    let b = Char.code (String.unsafe_get s !pos) in
    incr pos;
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc
    else if shift > 56 then raise (Corrupt "varint too long")
    else go (shift + 7) acc
  in
  go 0 0

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
  if matches magic_v2 then `Found (2, String.length magic_v2)
  else if matches magic_v3 then `Found (3, String.length magic_v3)
  else if matches magic then `Found (1, String.length magic)
  else if could_grow_into magic_v2 || could_grow_into magic_v3
          || could_grow_into magic then `Short
  else raise (Corrupt "bad magic")

let sniff s =
  match classify_magic s (String.length s) with
  | `Found vp -> vp
  | `Short -> raise (Corrupt "truncated header")

let fold_v1 s start_pos init f =
  let len = String.length s in
  let pos = ref start_pos in
  let rec loop acc prev =
    if !pos >= len then acc
    else begin
      let delta = unzigzag (read_varint_s s pos) in
      let insns = read_varint_s s pos in
      let start = prev + delta in
      loop (f acc ~start ~insns) start
    end
  in
  loop init 0

(* Shared v2/v3 dictionary state, rebuilt as tokens stream in. *)
type dict = {
  mutable ddelta : int array;
  mutable dinsns : int array;
  mutable cap : int;
  mutable next : int;
  base : int; (* first dictionary id for this format *)
}

let dict_create base =
  { ddelta = Array.make 256 0; dinsns = Array.make 256 0; cap = 256; next = base; base }

let dict_register d delta insns =
  if d.next < dict_cap then begin
    if d.next >= d.cap then begin
      let ncap = 2 * d.cap in
      let nd = Array.make ncap 0 and ni = Array.make ncap 0 in
      Array.blit d.ddelta 0 nd 0 d.cap;
      Array.blit d.dinsns 0 ni 0 d.cap;
      d.ddelta <- nd;
      d.dinsns <- ni;
      d.cap <- ncap
    end;
    d.ddelta.(d.next) <- delta;
    d.dinsns.(d.next) <- insns;
    d.next <- d.next + 1
  end

let fold_v2 s start_pos init f =
  let len = String.length s in
  let pos = ref start_pos in
  let d = dict_create 1 in
  let rec loop acc prev =
    if !pos >= len then acc
    else begin
      let token = read_varint_s s pos in
      let delta, insns =
        if token = tok_literal then begin
          let delta = unzigzag (read_varint_s s pos) in
          let insns = read_varint_s s pos in
          dict_register d delta insns;
          (delta, insns)
        end
        else if token < d.next then (d.ddelta.(token), d.dinsns.(token))
        else raise (Corrupt "bad dictionary token")
      in
      let start = prev + delta in
      loop (f acc ~start ~insns) start
    end
  in
  loop init 0

(* v3: the v2 dictionary loop plus the event tokens and per-asid delta
   chains. [f] sees every event with the asid it lands on — for [Switch]
   that is the asid being switched {e to}. *)
let fold_v3 s start_pos init f =
  let len = String.length s in
  let pos = ref start_pos in
  let d = dict_create (first_dict_id V3) in
  let parked = Hashtbl.create 8 in
  let cur_asid = ref 0 in
  let prev = ref 0 in
  let rec loop acc =
    if !pos >= len then acc
    else begin
      let token = read_varint_s s pos in
      if token = tok_switch then begin
        let asid = read_varint_s s pos in
        if asid <> !cur_asid then begin
          Hashtbl.replace parked !cur_asid !prev;
          prev :=
            (match Hashtbl.find_opt parked asid with Some p -> p | None -> 0);
          cur_asid := asid
        end;
        loop (f acc ~asid (Switch { asid }))
      end
      else if token = tok_invalidate then begin
        let asid = read_varint_s s pos in
        loop (f acc ~asid:!cur_asid (Invalidate { asid }))
      end
      else if token = tok_interrupt then loop (f acc ~asid:!cur_asid Interrupt)
      else begin
        let delta, insns =
          if token = tok_literal then begin
            let delta = unzigzag (read_varint_s s pos) in
            let insns = read_varint_s s pos in
            dict_register d delta insns;
            (delta, insns)
          end
          else if token < d.next then (d.ddelta.(token), d.dinsns.(token))
          else raise (Corrupt "bad dictionary token")
        in
        let start = !prev + delta in
        prev := start;
        loop (f acc ~asid:!cur_asid (Block { start; insns }))
      end
    end
  in
  loop init

let fold_events path init f =
  let s = read_all path in
  let version, pos0 = sniff s in
  match version with
  | 1 ->
      fold_v1 s pos0 init (fun acc ~start ~insns ->
          f acc ~asid:0 (Block { start; insns }))
  | 2 ->
      fold_v2 s pos0 init (fun acc ~start ~insns ->
          f acc ~asid:0 (Block { start; insns }))
  | _ -> fold_v3 s pos0 init f

(* The single-stream view. A v3 file folds iff it is a plain block
   stream: any Switch/Invalidate/Interrupt means the caller would be
   silently replaying an interleaved or cut stream against one automaton,
   so it is rejected rather than mis-decoded. *)
let fold path init f =
  let s = read_all path in
  let version, pos0 = sniff s in
  match version with
  | 1 -> fold_v1 s pos0 init f
  | 2 -> fold_v2 s pos0 init f
  | _ ->
      fold_v3 s pos0 init (fun acc ~asid:_ ev ->
          match ev with
          | Block { start; insns } -> f acc ~start ~insns
          | Switch _ | Invalidate _ | Interrupt ->
              raise
                (Corrupt
                   "v3 event stream is not a single PC stream (use \
                    fold_events)"))

let length path =
  fold_events path 0 (fun n ~asid:_ ev ->
      match ev with Block _ -> n + 1 | _ -> n)

(* ---- incremental decoding ----

   The daemon path: trace bytes arrive over a socket in arbitrary chunks
   (a frame can split a varint, even the magic), so the decoder keeps the
   undecoded suffix buffered and replays each *complete* record as it
   materializes. Record parsing is transactional — all of a record's
   varints are read before any decoder state (dictionary, delta chains,
   current asid) is committed, so a chunk boundary in the middle of a
   literal simply parks the bytes until the next feed. The whole-file
   folds above stay the fast path for seekable files. *)

type decoder = {
  mutable dbuf : Bytes.t; (* buffered input; [dpos..dlen) undecoded *)
  mutable dlen : int;
  mutable dpos : int;
  mutable dversion : int; (* 0 until the magic is sniffed *)
  mutable ddict : dict;
  dparked : (int, int) Hashtbl.t;
  mutable dcur_asid : int;
  mutable dprev : int;
  mutable dfinished : bool;
}

exception Need_more

let decoder () =
  {
    dbuf = Bytes.create 4096;
    dlen = 0;
    dpos = 0;
    dversion = 0;
    ddict = dict_create 1;
    dparked = Hashtbl.create 8;
    dcur_asid = 0;
    dprev = 0;
    dfinished = false;
  }

let decoder_format d =
  match d.dversion with
  | 1 -> Some V1
  | 2 -> Some V2
  | 3 -> Some V3
  | _ -> None

let decoder_pending d = d.dlen - d.dpos

(* Append [s.[off..off+len)], compacting the consumed prefix first so the
   buffer never grows past (pending record + one feed). *)
let decoder_append d s off len =
  if d.dpos > 0 then begin
    Bytes.blit d.dbuf d.dpos d.dbuf 0 (d.dlen - d.dpos);
    d.dlen <- d.dlen - d.dpos;
    d.dpos <- 0
  end;
  let need = d.dlen + len in
  if need > Bytes.length d.dbuf then begin
    let cap = ref (2 * Bytes.length d.dbuf) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let nb = Bytes.create !cap in
    Bytes.blit d.dbuf 0 nb 0 d.dlen;
    d.dbuf <- nb
  end;
  Bytes.blit_string s off d.dbuf d.dlen len;
  d.dlen <- need

let dread_varint buf len pos =
  let rec go shift acc =
    if !pos >= len then raise Need_more;
    let b = Char.code (Bytes.unsafe_get buf !pos) in
    incr pos;
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc
    else if shift > 56 then raise (Corrupt "varint too long")
    else go (shift + 7) acc
  in
  go 0 0

(* One record, transactionally: parse fully (raising [Need_more] without
   side effects on a chunk boundary), then commit and emit. Returns false
   when the buffer holds no complete record. *)
let decoder_step d emit =
  if d.dpos >= d.dlen then false
  else begin
    let pos = ref d.dpos in
    let buf = d.dbuf and len = d.dlen in
    let action =
      try
        let v = d.dversion in
        if v = 1 then begin
          let delta = unzigzag (dread_varint buf len pos) in
          let insns = dread_varint buf len pos in
          Some (`Blk (delta, insns, false))
        end
        else begin
          let token = dread_varint buf len pos in
          if v = 3 && token = tok_switch then
            Some (`Sw (dread_varint buf len pos))
          else if v = 3 && token = tok_invalidate then
            Some (`Inv (dread_varint buf len pos))
          else if v = 3 && token = tok_interrupt then Some `Irq
          else if token = tok_literal then begin
            let delta = unzigzag (dread_varint buf len pos) in
            let insns = dread_varint buf len pos in
            Some (`Blk (delta, insns, true))
          end
          else if token < d.ddict.next then
            Some (`Blk (d.ddict.ddelta.(token), d.ddict.dinsns.(token), false))
          else raise (Corrupt "bad dictionary token")
        end
      with Need_more -> None
    in
    match action with
    | None -> false
    | Some action ->
        d.dpos <- !pos;
        (match action with
        | `Blk (delta, insns, register) ->
            if register then dict_register d.ddict delta insns;
            let start = d.dprev + delta in
            d.dprev <- start;
            emit ~asid:d.dcur_asid (Block { start; insns })
        | `Sw asid ->
            if asid <> d.dcur_asid then begin
              Hashtbl.replace d.dparked d.dcur_asid d.dprev;
              d.dprev <-
                (match Hashtbl.find_opt d.dparked asid with
                | Some p -> p
                | None -> 0);
              d.dcur_asid <- asid
            end;
            emit ~asid (Switch { asid })
        | `Inv asid -> emit ~asid:d.dcur_asid (Invalidate { asid })
        | `Irq -> emit ~asid:d.dcur_asid Interrupt);
        true
  end

let decoder_feed d ?(off = 0) ?len s emit =
  if d.dfinished then invalid_arg "Pc_trace.decoder_feed: decoder finished";
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Pc_trace.decoder_feed: bad substring";
  decoder_append d s off len;
  if d.dversion = 0 then begin
    (* longest magic is 7 bytes; classify on what we have *)
    let hl = min d.dlen 7 in
    let head = Bytes.sub_string d.dbuf d.dpos hl in
    match classify_magic head hl with
    | `Short -> () (* keep buffering the header *)
    | `Found (v, hlen) ->
        d.dpos <- d.dpos + hlen;
        d.dversion <- v;
        d.ddict <- dict_create (first_dict_id (match v with 1 -> V1 | 2 -> V2 | _ -> V3))
  end;
  if d.dversion <> 0 then
    while decoder_step d emit do
      ()
    done

let decoder_finish d =
  if not d.dfinished then begin
    if d.dversion = 0 then raise (Corrupt "truncated header");
    if d.dpos < d.dlen then raise (Corrupt "truncated varint");
    d.dfinished <- true
  end

let default_chunk = 4096

let iter_chunks ?(chunk = default_chunk) path f =
  if chunk <= 0 then invalid_arg "Pc_trace.iter_chunks: chunk must be positive";
  let starts = Array.make chunk 0 and insns_buf = Array.make chunk 0 in
  let fill = ref 0 in
  let flush () =
    if !fill > 0 then begin
      f ~starts ~insns:insns_buf ~len:!fill;
      fill := 0
    end
  in
  fold path () (fun () ~start ~insns ->
      starts.(!fill) <- start;
      insns_buf.(!fill) <- insns;
      incr fill;
      if !fill = chunk then flush ());
  flush ()

let replay trans path =
  let rep = Replayer.create trans in
  fold path () (fun () ~start ~insns -> Replayer.feed_addr rep ~insns start);
  rep

let replay_packed packed path =
  let rep = Replayer.create_compiled (Compiled.of_packed packed) in
  iter_chunks path (fun ~starts ~insns ~len ->
      Replayer.feed_run rep ~insns starts ~len);
  rep

exception Corrupt of string

let max_payload = 1 lsl 24

let tag_data = 'D'

let tag_end = 'E'

let tag_profile = 'P'

let tag_error = 'X'

let tag_scrape = 'S'

let tag_metrics = 'M'

let header_len = 5

type frame = { tag : char; payload : string }

let encode tag payload =
  let n = String.length payload in
  if n > max_payload then invalid_arg "Frame.encode: payload too large";
  let b = Bytes.create (header_len + n) in
  Bytes.set b 0 tag;
  Bytes.set b 1 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set b 2 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 3 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 4 (Char.chr (n land 0xFF));
  Bytes.blit_string payload 0 b header_len n;
  Bytes.unsafe_to_string b

(* ---- incremental parsing ----

   Same shape as the Pc_trace streaming decoder: buffer the undecoded
   suffix, yield every complete frame, keep the partial tail. *)

type parser_ = { mutable buf : Bytes.t; mutable len : int; mutable pos : int }

let parser_ () = { buf = Bytes.create 4096; len = 0; pos = 0 }

let parser_pending p = p.len - p.pos

let parser_append p s off len =
  if p.pos > 0 then begin
    Bytes.blit p.buf p.pos p.buf 0 (p.len - p.pos);
    p.len <- p.len - p.pos;
    p.pos <- 0
  end;
  let need = p.len + len in
  if need > Bytes.length p.buf then begin
    let cap = ref (2 * Bytes.length p.buf) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let nb = Bytes.create !cap in
    Bytes.blit p.buf 0 nb 0 p.len;
    p.buf <- nb
  end;
  Bytes.blit_string s off p.buf p.len len;
  p.len <- need

let payload_len_at buf pos =
  let b i = Char.code (Bytes.get buf (pos + i)) in
  (b 1 lsl 24) lor (b 2 lsl 16) lor (b 3 lsl 8) lor b 4

let parser_feed p ?(off = 0) ?len s emit =
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Frame.parser_feed: bad substring";
  parser_append p s off len;
  let continue = ref true in
  while !continue do
    if p.len - p.pos < header_len then continue := false
    else begin
      let n = payload_len_at p.buf p.pos in
      if n > max_payload then raise (Corrupt "frame payload too large");
      if p.len - p.pos < header_len + n then continue := false
      else begin
        let tag = Bytes.get p.buf p.pos in
        let payload = Bytes.sub_string p.buf (p.pos + header_len) n in
        p.pos <- p.pos + header_len + n;
        emit { tag; payload }
      end
    end
  done

(* ---- blocking fd helpers ---- *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let k = Unix.write fd b !off (n - !off) in
    off := !off + k
  done

let send fd tag payload = write_all fd (encode tag payload)

let read_exact fd b off len =
  (* false on EOF before [len] bytes *)
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    let k = Unix.read fd b (off + !got) (len - !got) in
    if k = 0 then eof := true else got := !got + k
  done;
  !got = len

let recv_chunk = 65536

(* A payload of [n] bytes, [n] taken from an untrusted header: the
   buffer starts at one read's worth and doubles (capped at [n]) only
   once the bytes already read fill it, so a peer that claims 16 MiB and
   hangs up costs one chunk, not the claim. *)
let read_payload fd n =
  let buf = ref (Bytes.create (min n recv_chunk)) in
  let got = ref 0 in
  while !got < n do
    if !got = Bytes.length !buf then begin
      let nb = Bytes.create (min n (2 * !got)) in
      Bytes.blit !buf 0 nb 0 !got;
      buf := nb
    end;
    let k = Unix.read fd !buf !got (Bytes.length !buf - !got) in
    if k = 0 then raise (Corrupt "truncated frame payload");
    got := !got + k
  done;
  Bytes.unsafe_to_string !buf

let recv fd =
  let hdr = Bytes.create header_len in
  let k = Unix.read fd hdr 0 header_len in
  if k = 0 then None
  else begin
    let rest = header_len - k in
    if rest > 0 && not (read_exact fd hdr k rest) then
      raise (Corrupt "truncated frame header");
    let n = payload_len_at hdr 0 in
    if n > max_payload then raise (Corrupt "frame payload too large");
    Some { tag = Bytes.get hdr 0; payload = read_payload fd n }
  end

(* ---- profile payloads ----

   Plain varints over the snapshot's integer totals (every field is a
   non-negative count). Not Marshal: the payload crosses a socket, so it
   must be stable across client/server builds and bounded on decode. *)

let put_varint b v =
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char b (Char.chr (0x80 lor (!v land 0x7F)));
    v := !v lsr 7
  done;
  Buffer.add_char b (Char.chr !v)

let get_varint s pos =
  let len = String.length s in
  let rec go shift acc =
    if !pos >= len then raise (Corrupt "truncated profile varint");
    let b = Char.code (String.unsafe_get s !pos) in
    incr pos;
    let acc = acc lor ((b land 0x7F) lsl shift) in
    (* every field is a count: a varint reaching the sign bit is hostile *)
    if acc < 0 then raise (Corrupt "profile varint overflows")
    else if b land 0x80 = 0 then acc
    else if shift > 56 then raise (Corrupt "profile varint too long")
    else go (shift + 7) acc
  in
  go 0 0

let encode_profile (p : Tea_parallel.Profile.t) =
  let b = Buffer.create 256 in
  put_varint b (List.length p.counts);
  List.iter
    (fun (state, n) ->
      put_varint b state;
      put_varint b n)
    p.counts;
  put_varint b p.covered;
  put_varint b p.total;
  put_varint b p.enters;
  put_varint b p.exits;
  put_varint b p.steps;
  put_varint b p.in_trace_hits;
  put_varint b p.cache_hits;
  put_varint b p.global_hits;
  put_varint b p.global_misses;
  put_varint b p.cycles;
  Buffer.contents b

let decode_profile s =
  let pos = ref 0 in
  let n_counts = get_varint s pos in
  (* each (state, count) pair takes at least two bytes *)
  if n_counts > (String.length s - !pos) / 2 then
    raise (Corrupt "bad profile counts length");
  let counts =
    List.init n_counts (fun _ ->
        let state = get_varint s pos in
        let n = get_varint s pos in
        (state, n))
  in
  let covered = get_varint s pos in
  let total = get_varint s pos in
  let enters = get_varint s pos in
  let exits = get_varint s pos in
  let steps = get_varint s pos in
  let in_trace_hits = get_varint s pos in
  let cache_hits = get_varint s pos in
  let global_hits = get_varint s pos in
  let global_misses = get_varint s pos in
  let cycles = get_varint s pos in
  if !pos <> String.length s then raise (Corrupt "trailing profile bytes");
  {
    Tea_parallel.Profile.counts;
    covered;
    total;
    enters;
    exits;
    steps;
    in_trace_hits;
    cache_hits;
    global_hits;
    global_misses;
    cycles;
  }

(* ---- addresses ---- *)

type addr = Unix_sock of string | Tcp of string * int

let pp_addr = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let sockaddr_of_addr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } ->
              failwith (Printf.sprintf "cannot resolve host %S" host)
          | h -> h.Unix.h_addr_list.(0)
          | exception Not_found ->
              failwith (Printf.sprintf "cannot resolve host %S" host))
      in
      Unix.ADDR_INET (ip, port)

let domain_of_addr = function
  | Unix_sock _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

let connect addr =
  let fd = Unix.socket (domain_of_addr addr) Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of_addr addr)
   with e ->
     Unix.close fd;
     raise e);
  fd

(* Replay-as-a-service: the wire framing, the streaming Pc_trace decoder,
   non-seekable trace I/O, and the tea_serve daemon itself.

   The headline property is the daemon gate — the fleet profile folded
   from N concurrent socket sessions must equal (Profile.equal, i.e.
   bit-for-bit over every replayer observable) the merge of replaying
   each session's byte stream offline, sequentially, at jobs 1/2/4, on
   flat and repacked+fused images, and a mid-stream disconnect must
   neither crash the daemon nor perturb any other session's profile. *)

open Tea_isa
module I = Insn
module Block = Tea_cfg.Block
module Trace = Tea_traces.Trace
module Builder = Tea_core.Builder
module Packed = Tea_core.Packed
module Replayer = Tea_core.Replayer
module Pc_trace = Tea_core.Pc_trace
module Multi = Tea_core.Multi_replayer
module Profile = Tea_parallel.Profile
module Frame = Tea_serve.Frame
module Server = Tea_serve.Server
module Client = Tea_serve.Client

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let profile = Alcotest.testable Profile.pp Profile.equal

let with_tmp f =
  let path = Filename.temp_file "tea_test_serve" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* events -> raw trace-file bytes, via the real writer *)
let bytes_of_events ?(format = Pc_trace.V3) events =
  with_tmp @@ fun path ->
  let w = Pc_trace.open_writer ~format path in
  List.iter (Pc_trace.write_event w) events;
  Pc_trace.close_writer w;
  Pc_trace.read_all path

let stamped_of_file path =
  List.rev
    (Pc_trace.fold_events path [] (fun acc ~asid ev -> (asid, ev) :: acc))

let stamped_of_bytes s =
  with_tmp @@ fun path ->
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  stamped_of_file path

(* ---------------- framing ---------------- *)

let test_frame_roundtrip () =
  let frames =
    [ (Frame.tag_data, String.init 300 (fun i -> Char.chr (i mod 256)));
      (Frame.tag_data, "");
      (Frame.tag_end, "");
      (Frame.tag_profile, "p");
      (Frame.tag_error, "boom") ]
  in
  let wire =
    String.concat "" (List.map (fun (t, p) -> Frame.encode t p) frames)
  in
  (* any chunking of the wire bytes must yield exactly the same frames *)
  List.iter
    (fun chunk ->
      let p = Frame.parser_ () in
      let got = ref [] in
      let off = ref 0 in
      let n = String.length wire in
      while !off < n do
        let k = min chunk (n - !off) in
        Frame.parser_feed p ~off:!off ~len:k wire (fun f ->
            got := (f.Frame.tag, f.Frame.payload) :: !got);
        off := !off + k
      done;
      check
        Alcotest.(list (pair char string))
        (Printf.sprintf "chunk %d" chunk)
        frames (List.rev !got);
      check Alcotest.int "no bytes left buffered" 0 (Frame.parser_pending p))
    [ 1; 2; 7; 64; String.length wire ]

let test_frame_hostile_length () =
  (* a length prefix past max_payload must raise, not allocate *)
  let b = Bytes.make 5 '\xFF' in
  Bytes.set b 0 Frame.tag_data;
  let p = Frame.parser_ () in
  Alcotest.check_raises "oversized length"
    (Frame.Corrupt "frame payload too large") (fun () ->
      Frame.parser_feed p (Bytes.to_string b) (fun _ -> ()))

let test_frame_fd_helpers () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      Frame.send a Frame.tag_data "hello";
      Frame.send a Frame.tag_end "";
      (match Frame.recv b with
      | Some f ->
          check Alcotest.char "tag" Frame.tag_data f.Frame.tag;
          check Alcotest.string "payload" "hello" f.Frame.payload
      | None -> Alcotest.fail "expected a data frame");
      (match Frame.recv b with
      | Some f -> check Alcotest.char "end tag" Frame.tag_end f.Frame.tag
      | None -> Alcotest.fail "expected the end frame");
      (* clean EOF at a frame boundary *)
      Unix.close a;
      check Alcotest.bool "eof" true (Frame.recv b = None))

let gen_profile =
  let open QCheck.Gen in
  let nat = int_range 0 1_000_000 in
  let counts =
    list_size (int_range 0 20) (pair (int_range 0 5000) (int_range 1 100_000))
  in
  map2
    (fun counts (covered, total, enters, exits, steps) ->
      {
        Profile.counts;
        covered;
        total;
        enters;
        exits;
        steps;
        in_trace_hits = steps / 2;
        cache_hits = steps / 3;
        global_hits = steps / 4;
        global_misses = steps / 5;
        cycles = steps * 3;
      })
    counts
    (tup5 nat nat nat nat nat)

let prop_profile_codec =
  QCheck.Test.make ~name:"profile payload round-trips" ~count:200
    (QCheck.make gen_profile) (fun p ->
      let q = Frame.decode_profile (Frame.encode_profile p) in
      p.Profile.counts = q.Profile.counts && Profile.equal p q)

(* A peer that claims a 16 MiB payload and hangs up must cost the bytes
   it sent, not the claim. *)
let test_frame_recv_hostile_length () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let n = Frame.max_payload in
      let hdr =
        String.init 5 (fun i ->
            if i = 0 then Frame.tag_data
            else Char.chr ((n lsr (8 * (4 - i))) land 0xFF))
      in
      ignore (Unix.write_substring a hdr 0 5);
      Unix.close a;
      let before = Gc.allocated_bytes () in
      Alcotest.check_raises "claimed 16 MiB, sent none"
        (Frame.Corrupt "truncated frame payload") (fun () ->
          ignore (Frame.recv b));
      let used = Gc.allocated_bytes () -. before in
      if used >= 1048576.0 then
        Alcotest.failf "recv allocated %.0f bytes for an empty payload" used)

(* Hostile bytes for the two wire parsers: a valid encoding, then
   replaced by random bytes, truncated, bit-flipped or length-inflated. *)
type mutation =
  | Keep
  | Random of string
  | Truncate of int
  | Flip of int * int
  | Inflate of int

let gen_mutation =
  let open QCheck.Gen in
  frequency
    [ (1, return Keep);
      (2, map (fun s -> Random s) (string_size (int_range 0 64)));
      (2, map (fun k -> Truncate k) (int_range 0 400));
      (3, map2 (fun p b -> Flip (p, b)) (int_range 0 400) (int_range 0 7));
      (2, map (fun k -> Inflate k) (int_range 1 (1 lsl 30))) ]

(* [inflate s k] raises the length claim [s] starts with by [k] *)
let mutate ~inflate s = function
  | Keep -> s
  | Random r -> r
  | Truncate k -> String.sub s 0 (min k (String.length s))
  | Flip (p, bit) when String.length s > 0 ->
      let b = Bytes.of_string s in
      let p = p mod Bytes.length b in
      Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor (1 lsl bit)));
      Bytes.to_string b
  | Flip _ -> s
  | Inflate k -> inflate s k

(* the first frame's 4-byte big-endian length, raised by [k] *)
let inflate_frame s k =
  if String.length s < 5 then s
  else
    let b = Bytes.of_string s in
    let n = Int32.to_int (Bytes.get_int32_be b 1) land 0xFFFFFFFF in
    Bytes.set_int32_be b 1 (Int32.of_int (min 0xFFFFFFFF (n + k)));
    Bytes.to_string b

(* Any bytes in any chunking: the frames emitted, re-encoded, are
   exactly the bytes the parser consumed (the rest stays pending), or the
   parser raises Corrupt — nothing else. *)
let prop_parser_hostile =
  QCheck.Test.make ~name:"frame parser: hostile bytes, any chunking" ~count:500
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (int_range 0 6)
              (pair (oneofl [ 'D'; 'E'; 'P'; 'X'; 'S'; 'M' ])
                 (string_size (int_range 0 40))))
           gen_mutation
           (list_size (int_range 1 8) (int_range 1 20))))
    (fun (frames, m, chunks) ->
      let wire =
        String.concat "" (List.map (fun (t, p) -> Frame.encode t p) frames)
      in
      let s = mutate ~inflate:inflate_frame wire m in
      let p = Frame.parser_ () in
      let got = ref [] in
      let n = String.length s in
      let rec feed off = function
        | [] -> feed off chunks
        | c :: rest when off < n ->
            let k = min c (n - off) in
            Frame.parser_feed p ~off ~len:k s (fun f -> got := f :: !got);
            feed (off + k) rest
        | _ -> ()
      in
      match feed 0 chunks with
      | () ->
          let consumed = n - Frame.parser_pending p in
          let got = List.rev_map (fun f -> (f.Frame.tag, f.Frame.payload)) !got in
          String.concat "" (List.map (fun (t, p) -> Frame.encode t p) got)
          = String.sub s 0 consumed
          && (m <> Keep || got = frames)
      | exception Frame.Corrupt _ -> true)

(* Every profile field is a count: a 9-byte varint that reaches the sign
   bit must be refused, not decoded as a negative total. *)
let test_profile_varint_overflow () =
  let negative = String.make 8 '\xFF' ^ "\x7F" in
  Alcotest.check_raises "sign-bit varint"
    (Frame.Corrupt "profile varint overflows") (fun () ->
      ignore (Frame.decode_profile ("\x00" ^ negative ^ String.make 9 '\x00')))

(* LEB128, as the profile codec writes its counts length *)
let varint n =
  let b = Buffer.create 8 in
  let v = ref n in
  while !v >= 0x80 do
    Buffer.add_char b (Char.chr (0x80 lor (!v land 0x7F)));
    v := !v lsr 7
  done;
  Buffer.add_char b (Char.chr !v);
  Buffer.contents b

(* Any bytes: a decoded profile re-encodes to itself, or the decoder
   raises Corrupt — nothing else. Inflation raises the leading counts
   length. *)
let prop_profile_hostile =
  QCheck.Test.make ~name:"profile decode: hostile bytes" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_profile gen_mutation))
    (fun (prof, m) ->
      let nc = List.length prof.Profile.counts in
      let inflate s k =
        let h = String.length (varint nc) in
        varint (nc + k) ^ String.sub s h (String.length s - h)
      in
      let s = mutate ~inflate (Frame.encode_profile prof) m in
      match Frame.decode_profile s with
      | q ->
          let q' = Frame.decode_profile (Frame.encode_profile q) in
          q.Profile.counts = q'.Profile.counts
          && Profile.equal q q'
          && (m <> Keep || Profile.equal prof q)
      | exception Frame.Corrupt _ -> true)

(* ---------------- streaming decoder ---------------- *)

let gen_events =
  let open QCheck.Gen in
  let block =
    map2
      (fun start insns -> Pc_trace.Block { start; insns })
      (int_range 0 0xFFFFF) (int_range 0 8)
  in
  let ev =
    frequency
      [ (6, block);
        (1, map (fun asid -> Pc_trace.Switch { asid }) (int_range 0 3));
        (1, map (fun asid -> Pc_trace.Invalidate { asid }) (int_range 0 3));
        (1, return Pc_trace.Interrupt) ]
  in
  list_size (int_range 0 200) ev

let decode_chunked chunk s =
  let d = Pc_trace.decoder () in
  let got = ref [] in
  let off = ref 0 in
  let n = String.length s in
  while !off < n do
    let k = min chunk (n - !off) in
    Pc_trace.decoder_feed d ~off:!off ~len:k s (fun ~asid ev ->
        got := (asid, ev) :: !got);
    off := !off + k
  done;
  Pc_trace.decoder_finish d;
  check Alcotest.int "decoder drained" 0 (Pc_trace.decoder_pending d);
  List.rev !got

let prop_decoder_equals_fold =
  (* any chunking of any stream emits exactly the whole-file fold *)
  QCheck.Test.make ~name:"streaming decode == fold_events (v3)" ~count:60
    (QCheck.make
       QCheck.Gen.(pair gen_events (oneofl [ 1; 3; 7; 64; 100_000 ])))
    (fun (events, chunk) ->
      let s = bytes_of_events events in
      decode_chunked chunk s = stamped_of_bytes s)

let test_decoder_v1_v2 () =
  let records = [ (0x100, 1); (0x90, 4); (0x100, 1); (0x2000, 0) ] in
  let events = List.map (fun (start, insns) -> Pc_trace.Block { start; insns }) records in
  List.iter
    (fun format ->
      let s = bytes_of_events ~format events in
      List.iter
        (fun chunk ->
          check
            Alcotest.(list (pair int (testable (fun fmt _ -> Format.fprintf fmt "<event>") ( = ))))
            "v1/v2 chunked decode"
            (List.map (fun ev -> (0, ev)) events)
            (decode_chunked chunk s))
        [ 1; 5; 1000 ])
    [ Pc_trace.V1; Pc_trace.V2 ]

let test_decoder_errors () =
  (* foreign magic poisons the decoder *)
  let d = Pc_trace.decoder () in
  Alcotest.check_raises "foreign magic" (Pc_trace.Corrupt "bad magic")
    (fun () -> Pc_trace.decoder_feed d "FOOBARBAZ" (fun ~asid:_ _ -> ()));
  (* a short foreign prefix is already classifiable *)
  let d = Pc_trace.decoder () in
  Alcotest.check_raises "short foreign prefix" (Pc_trace.Corrupt "bad magic")
    (fun () -> Pc_trace.decoder_feed d "FOOBAR" (fun ~asid:_ _ -> ()));
  (* finish before a full magic: truncated header, idempotent *)
  let d = Pc_trace.decoder () in
  Pc_trace.decoder_feed d "PCT" (fun ~asid:_ _ -> ());
  check Alcotest.bool "format unknown" true (Pc_trace.decoder_format d = None);
  Alcotest.check_raises "finish mid-magic"
    (Pc_trace.Corrupt "truncated header") (fun () ->
      Pc_trace.decoder_finish d);
  (* finish mid-record: truncated varint *)
  let s = bytes_of_events [ Pc_trace.Block { start = 0x123456; insns = 7 } ] in
  let d = Pc_trace.decoder () in
  Pc_trace.decoder_feed d ~len:(String.length s - 1) s (fun ~asid:_ _ -> ());
  Alcotest.check_raises "finish mid-record"
    (Pc_trace.Corrupt "truncated varint") (fun () -> Pc_trace.decoder_finish d);
  (* empty stream *)
  let d = Pc_trace.decoder () in
  Alcotest.check_raises "empty stream" (Pc_trace.Corrupt "truncated header")
    (fun () -> Pc_trace.decoder_finish d)

(* ---------------- non-seekable trace I/O ---------------- *)

(* the satellite-1 regression: a PCTR2 stream arriving through a FIFO —
   where in_channel_length cannot work — must read and decode exactly
   like the same bytes in a regular file *)
let test_read_all_fifo () =
  let events =
    List.init 64 (fun i -> Pc_trace.Block { start = 0x1000 + (8 * (i mod 5)); insns = 2 })
  in
  let s = bytes_of_events ~format:Pc_trace.V2 events in
  let fifo = Filename.temp_file "tea_test_fifo" ".trc" in
  Sys.remove fifo;
  Unix.mkfifo fifo 0o600;
  Fun.protect ~finally:(fun () -> try Sys.remove fifo with Sys_error _ -> ())
  @@ fun () ->
  let writer =
    Domain.spawn (fun () ->
        let oc = open_out_bin fifo in
        output_string oc s;
        close_out oc)
  in
  let got = Pc_trace.read_all fifo in
  Domain.join writer;
  check Alcotest.string "fifo bytes == file bytes" s got;
  check Alcotest.int "decodes" (List.length events)
    (List.length (stamped_of_bytes got))

(* ---------------- the daemon ---------------- *)

let block_at addr = Block.make Block.Branch [ (addr, I.Jmp (I.Abs 0)) ]

let t1 =
  Trace.linear ~id:0 ~kind:"test" [ block_at 0x100; block_at 0x200; block_at 0x300 ]

let t2 = Trace.linear ~id:1 ~kind:"test" [ block_at 0x400; block_at 0x300 ]

let fixture_packed () = Packed.freeze (Builder.build [ t1; t2 ])

(* a repacked+fused variant tuned on the fixture's own hot loop *)
let fixture_tuned () =
  let packed = fixture_packed () in
  let starts =
    Array.init 60 (fun i ->
        List.nth [ 0x100; 0x200; 0x300; 0x400; 0x300 ] (i mod 5))
  in
  let packed =
    Tea_opt.Repack.repack packed
      (Tea_opt.Repack.collect packed starts ~len:(Array.length starts))
  in
  let prof = Tea_opt.Repack.collect packed starts ~len:(Array.length starts) in
  Tea_opt.Fuse.fuse ~profile:prof packed

let sock_path () =
  let p = Filename.temp_file "tea_test_serve" ".sock" in
  Sys.remove p;
  p

(* offline reference for one session's bytes: the whole-file decode path
   through a fresh Multi_replayer over a dup of the same image *)
let offline_of_bytes image s =
  with_tmp @@ fun path ->
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  let m =
    Multi.replay_events
      (fun _ ->
        Replayer.create_compiled
          (Tea_core.Compiled.of_packed image))
      path
  in
  Profile.merge_all (List.map snd (Multi.snapshots m))

(* Run a daemon over [streams] (raw trace bytes), all sessions open and
   interleaved concurrently from this domain in [chunk]-byte data frames,
   plus one mid-stream disconnect per element of [aborts] (a prefix of
   bytes sent with no end-of-stream frame) and one session per element
   of [corrupt], interleaved like [streams] but expected to be refused.
   Returns the fleet profile, the daemon's own offline differential,
   each session's reply and each corrupt session's error message. *)
let serve_sessions ~jobs ~image ?(chunk = 5) ?(aborts = []) ?(corrupt = [])
    streams =
  let n = List.length streams + List.length aborts + List.length corrupt in
  let srv =
    Server.create ~offline_check:true ~jobs ~image
      (Frame.Unix_sock (sock_path ()))
  in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run ~until_sessions:n srv) in
  let fds = List.map (fun _ -> Frame.connect (Server.addr srv)) streams in
  let bad_fds = List.map (fun _ -> Frame.connect (Server.addr srv)) corrupt in
  let abort_fds = List.map (fun _ -> Frame.connect (Server.addr srv)) aborts in
  (* a refused session's socket may already be closed by the server:
     swallow the write failure, its error frame is still there to read *)
  let send_bad fd tag payload =
    try Frame.send fd tag payload
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  (* interleave: one chunk per session per lap, so all sessions are
     mid-stream at the server simultaneously, with frames splitting
     records (and the magic) at arbitrary byte offsets *)
  let sessions =
    List.map (fun (fd, s) -> (Frame.send fd, s)) (List.combine fds streams)
    @ List.map (fun (fd, s) -> (send_bad fd, s)) (List.combine bad_fds corrupt)
  in
  let offs = Array.make (List.length sessions) 0 in
  let progressed = ref true in
  while !progressed do
    progressed := false;
    List.iteri
      (fun i (send, s) ->
        let len = String.length s in
        if offs.(i) < len then begin
          let k = min chunk (len - offs.(i)) in
          send Frame.tag_data (String.sub s offs.(i) k);
          offs.(i) <- offs.(i) + k;
          progressed := true
        end)
      sessions
  done;
  (* the disconnects: a prefix, then a close with no end frame *)
  List.iter2
    (fun fd s ->
      let k = min 40 (String.length s) in
      if k > 0 then Frame.send fd Frame.tag_data (String.sub s 0 k);
      Unix.close fd)
    abort_fds aborts;
  List.iter (fun fd -> Frame.send fd Frame.tag_end "") fds;
  List.iter (fun fd -> send_bad fd Frame.tag_end "") bad_fds;
  let replies =
    List.map
      (fun fd ->
        match Frame.recv fd with
        | Some f when f.Frame.tag = Frame.tag_profile ->
            Frame.decode_profile f.Frame.payload
        | Some f -> Alcotest.failf "unexpected reply tag %C" f.Frame.tag
        | None -> Alcotest.fail "server closed without a reply")
      fds
  in
  let errors =
    List.map
      (fun fd ->
        match Frame.recv fd with
        | Some f when f.Frame.tag = Frame.tag_error -> f.Frame.payload
        | Some f -> Alcotest.failf "corrupt session got reply tag %C" f.Frame.tag
        | None -> Alcotest.fail "server closed a corrupt session silently")
      bad_fds
  in
  List.iter Unix.close (fds @ bad_fds);
  Domain.join driver;
  check Alcotest.int "completed" (List.length streams) (Server.completed srv);
  check Alcotest.int "disconnected"
    (List.length aborts + List.length corrupt)
    (Server.disconnected srv);
  (Server.fleet_profile srv, Server.offline_profile srv, replies, errors)

let mixed_streams () =
  (* v2 block-only sessions and v3 event sessions, some hitting the
     fixture's traces, some foreign addresses *)
  let v2 hot =
    bytes_of_events ~format:Pc_trace.V2
      (List.init 40 (fun i ->
           Pc_trace.Block
             { start = List.nth hot (i mod List.length hot); insns = 1 }))
  in
  let v3 =
    bytes_of_events
      [ Pc_trace.Block { start = 0x100; insns = 1 };
        Pc_trace.Switch { asid = 2 };
        Pc_trace.Block { start = 0x400; insns = 1 };
        Pc_trace.Block { start = 0x300; insns = 1 };
        Pc_trace.Interrupt;
        Pc_trace.Switch { asid = 0 };
        Pc_trace.Block { start = 0x200; insns = 1 };
        Pc_trace.Invalidate { asid = 2 };
        Pc_trace.Switch { asid = 2 };
        Pc_trace.Block { start = 0x400; insns = 1 } ]
  in
  [ v2 [ 0x100; 0x200; 0x300 ];
    v2 [ 0x400; 0x300 ];
    v2 [ 0x100; 0x900; 0x200 ];
    v2 [ 0x5000 ];
    v3;
    v3;
    v2 [ 0x300; 0x400 ];
    v3 ]

(* the acceptance gate: >= 8 concurrent sessions, mixed formats, one
   mid-stream disconnect, fleet == offline at jobs 1/2/4 — on the flat
   and the repacked+fused image *)
let test_daemon_gate () =
  List.iter
    (fun image_of ->
      let streams = mixed_streams () in
      let expect =
        Profile.merge_all (List.map (offline_of_bytes (image_of ())) streams)
      in
      List.iter
        (fun jobs ->
          let fleet, offline, replies, _ =
            serve_sessions ~jobs ~image:(image_of ())
              ~aborts:[ List.hd streams ] streams
          in
          check profile
            (Printf.sprintf "fleet == offline (jobs %d)" jobs)
            offline fleet;
          check profile
            (Printf.sprintf "fleet == independent reference (jobs %d)" jobs)
            expect fleet;
          (* each session's reply is its own stream's offline profile *)
          List.iter2
            (fun reply s ->
              check profile "session reply == per-stream offline"
                (offline_of_bytes (image_of ()) s)
                reply)
            replies streams)
        [ 1; 2; 4 ])
    [ fixture_packed; fixture_tuned ]

(* nine bytes with the continuation bit, then one more: a token no
   63-bit varint can hold *)
let ten_byte_varint = String.make 9 '\x80' ^ "\x01"

(* a valid PCTR2 prefix, long enough to span several frames, cut by an
   over-long varint at a record boundary *)
let corrupt_stream () =
  bytes_of_events ~format:Pc_trace.V2
    (List.init 40 (fun i ->
         Pc_trace.Block { start = List.nth [ 0x100; 0x200; 0x300 ] (i mod 3); insns = 1 }))
  ^ ten_byte_varint

let test_daemon_corrupt_mid_stream () =
  (* the corrupt record is decoded on a pool worker, mid-cycle, next to
     clean sessions: only its own session fails, with the decoder's
     message *)
  let streams = mixed_streams () in
  List.iter
    (fun jobs ->
      let image = fixture_packed () in
      let fleet, offline, _, errors =
        serve_sessions ~jobs ~image ~corrupt:[ corrupt_stream () ] streams
      in
      check
        Alcotest.(list string)
        "refused with the decoder's message"
        [ "corrupt trace: varint too long" ]
        errors;
      check profile
        (Printf.sprintf "clean sessions: fleet == offline (jobs %d)" jobs)
        offline fleet;
      check profile
        (Printf.sprintf "clean sessions: fleet == independent reference (jobs %d)" jobs)
        (Profile.merge_all (List.map (offline_of_bytes image) streams))
        fleet)
    [ 1; 2; 4 ]

let test_daemon_disconnect_isolation () =
  (* the same streams with and without a rude client: identical fleet *)
  let streams = mixed_streams () in
  let image = fixture_packed () in
  let clean, _, _, _ = serve_sessions ~jobs:2 ~image streams in
  let image = fixture_packed () in
  let rude, _, _, _ =
    serve_sessions ~jobs:2 ~image
      ~aborts:[ List.hd streams; List.nth streams 4 ]
      streams
  in
  check profile "disconnects do not perturb the fleet" clean rude

(* A loop count the runtime cannot run is rejected before a socket is
   bound or a loop built. *)
let test_daemon_jobs_limit () =
  let path = sock_path () in
  Alcotest.check_raises "jobs above the runtime's domain limit"
    (Invalid_argument "Server.create: jobs must be <= 126 (the runtime's domain limit)")
    (fun () ->
      ignore (Server.create ~jobs:1000 ~image:(fixture_packed ()) (Frame.Unix_sock path)));
  check Alcotest.bool "no socket bound" false (Sys.file_exists path)

let test_daemon_client_module () =
  (* the Client convenience wrapper against a live daemon *)
  let image = fixture_packed () in
  let srv =
    Server.create ~jobs:2 ~image (Frame.Unix_sock (sock_path ()))
  in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run ~until_sessions:4 srv) in
  let s = List.hd (mixed_streams ()) in
  let p = Client.replay_string ~chunk:3 (Server.addr srv) s in
  check profile "client profile" (offline_of_bytes image s) p;
  (* a corrupt stream gets an error reply, not a hang *)
  (match Client.replay_string (Server.addr srv) "FOOBARBAZ" with
  | _ -> Alcotest.fail "corrupt stream must be rejected"
  | exception Client.Server_error _ -> ());
  (* so does one that turns corrupt after several valid frames *)
  (match Client.replay_string ~chunk:3 (Server.addr srv) (corrupt_stream ()) with
  | _ -> Alcotest.fail "mid-stream corrupt stream must be rejected"
  | exception Client.Server_error msg ->
      check Alcotest.string "mid-stream corrupt message"
        "corrupt trace: varint too long" msg);
  (* a corrupt payload and a bad frame in one write: the payload comes
     first in the stream, so its error is the one reported *)
  let fd = Frame.connect (Server.addr srv) in
  let wire = Frame.encode Frame.tag_data (corrupt_stream ()) ^ Frame.encode 'Z' "" in
  ignore (Unix.write_substring fd wire 0 (String.length wire));
  (match Frame.recv fd with
  | Some f when f.Frame.tag = Frame.tag_error ->
      check Alcotest.string "earliest error reported"
        "corrupt trace: varint too long" f.Frame.payload
  | _ -> Alcotest.fail "expected an error reply");
  Unix.close fd;
  Domain.join driver;
  check Alcotest.int "one completed" 1 (Server.completed srv);
  check Alcotest.int "three rejected" 3 (Server.disconnected srv)

(* a session naming [n] address spaces, one block in each *)
let asid_storm n =
  bytes_of_events
    (List.concat
       (List.init n (fun asid ->
            [ Pc_trace.Switch { asid }; Pc_trace.Block { start = 0x100; insns = 1 } ])))

let count_blocks s =
  List.length
    (List.filter
       (fun (_, ev) -> match ev with Pc_trace.Block _ -> true | _ -> false)
       (stamped_of_bytes s))

(* Poll the daemon's counter [name] until it reaches [n]. *)
let await_counter srv name n =
  let rec go tries =
    let v =
      Option.value ~default:0
        (Tea_telemetry.Metrics.find_counter (Server.metrics srv) name)
    in
    if v < n then
      if tries = 0 then Alcotest.failf "%s stuck at %d, expected %d" name v n
      else begin
        ignore (Unix.select [] [] [] 0.002);
        go (tries - 1)
      end
  in
  go 2500

let exposition_loops text =
  List.filter_map
    (fun line -> Scanf.sscanf_opt line "tea_loop_blocks_total{loop=%S} %d" (fun l n -> (l, n)))
    (String.split_on_char '\n' text)

(* Per-loop accounting: every loop credits the blocks of the sessions it
   completed, so at jobs 2 the loops sum to serve.blocks; two sessions
   held open at once land on different loops. *)
let test_daemon_loop_accounting () =
  let rounds = 8 in
  let image = fixture_packed () in
  let srv = Server.create ~jobs:2 ~image (Frame.Unix_sock (sock_path ())) in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let streams = mixed_streams () in
  let driver =
    Domain.spawn (fun () ->
        Server.run ~until_sessions:((2 * rounds) + List.length streams) srv)
  in
  let addr = Server.addr srv in
  (* two sessions open at once, the second connecting only after the
     first was accepted: half of each stream, then the rest. Eight
     rounds, each landing one session on each loop. *)
  let pair = [ List.hd streams; List.nth streams 4 ] in
  for round = 1 to rounds do
    let before = Server.loop_blocks srv in
    let fds =
      List.mapi
        (fun i s ->
          let fd = Frame.connect addr in
          Frame.send fd Frame.tag_data (String.sub s 0 (String.length s / 2));
          await_counter srv "serve.sessions_accepted" ((2 * (round - 1)) + i + 1);
          fd)
        pair
    in
    List.iter2
      (fun fd s ->
        let h = String.length s / 2 in
        Frame.send fd Frame.tag_data (String.sub s h (String.length s - h));
        Frame.send fd Frame.tag_end "";
        (match Frame.recv fd with
        | Some f when f.Frame.tag = Frame.tag_profile ->
            check profile "held-open reply" (offline_of_bytes image s)
              (Frame.decode_profile f.Frame.payload)
        | _ -> Alcotest.fail "a held-open session got no profile");
        Unix.close fd)
      fds pair;
    check
      Alcotest.(list int)
      (Printf.sprintf "round %d: two sessions held open at once, one per loop" round)
      (List.sort compare (List.map count_blocks pair))
      (List.sort compare
         (Array.to_list (Array.mapi (fun i b -> b - before.(i)) (Server.loop_blocks srv))))
  done;
  (* then every stream at once, from two client domains *)
  let replay s = ignore (Client.replay_string ~chunk:3 addr s) in
  let half = List.filteri (fun i _ -> i mod 2 = 0) streams in
  let other = Domain.spawn (fun () -> List.iter replay half) in
  List.iter replay (List.filteri (fun i _ -> i mod 2 = 1) streams);
  Domain.join other;
  Domain.join driver;
  let blocks =
    Option.value ~default:0
      (Tea_telemetry.Metrics.find_counter (Server.metrics srv) "serve.blocks")
  in
  check Alcotest.int "serve.blocks"
    (List.fold_left (fun a s -> a + count_blocks s) 0 streams
    + (rounds * List.fold_left (fun a s -> a + count_blocks s) 0 pair))
    blocks;
  check Alcotest.int "per-loop blocks sum to serve.blocks" blocks
    (Array.fold_left ( + ) 0 (Server.loop_blocks srv));
  check
    Alcotest.(list (pair string int))
    "the exposition carries every loop"
    (List.mapi (fun i n -> (string_of_int i, n)) (Array.to_list (Server.loop_blocks srv)))
    (exposition_loops (Server.exposition srv))

(* One crafted client per abort reason: each drop bumps exactly one
   serve.aborts.<reason> counter, and the family sums to
   serve.disconnects. *)
let test_daemon_abort_reasons () =
  let image = fixture_packed () in
  let srv = Server.create ~jobs:2 ~image (Frame.Unix_sock (sock_path ())) in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run srv) in
  let addr = Server.addr srv in
  let refused what s =
    match Client.replay_string ~chunk:7 addr s with
    | _ -> Alcotest.failf "%s: served" what
    | exception Client.Server_error msg -> msg
  in
  check Alcotest.string "corrupt" "corrupt trace: varint too long"
    (refused "corrupt" (corrupt_stream ()));
  check Alcotest.string "asid cap"
    (Printf.sprintf "too many address spaces (at most %d per session)"
       Server.max_session_asids)
    (refused "asid cap" (asid_storm (Server.max_session_asids + 1)));
  (* a data frame claiming more than the payload cap *)
  let fd = Frame.connect addr in
  ignore (Unix.write_substring fd "D\xFF\xFF\xFF\xFF" 0 5);
  (match Frame.recv fd with
  | Some f when f.Frame.tag = Frame.tag_error ->
      check Alcotest.string "bad framing" "bad framing: frame payload too large"
        f.Frame.payload
  | _ -> Alcotest.fail "bad framing: expected an error reply");
  Unix.close fd;
  (* part of a stream, then a close with no end-of-stream frame *)
  let s = List.hd (mixed_streams ()) in
  let fd = Frame.connect addr in
  Frame.send fd Frame.tag_data (String.sub s 0 20);
  Unix.close fd;
  await_counter srv "serve.disconnects" 4;
  (* mid-stream when the daemon stops *)
  let fd = Frame.connect addr in
  Frame.send fd Frame.tag_data (String.sub s 0 20);
  await_counter srv "serve.sessions_accepted" 5;
  Server.stop srv;
  Domain.join driver;
  Unix.close fd;
  let m = Server.metrics srv in
  let counter name =
    Option.value ~default:0 (Tea_telemetry.Metrics.find_counter m name)
  in
  let reasons = [ "corrupt"; "bad_framing"; "asid_cap"; "disconnect"; "shutdown" ] in
  List.iter
    (fun r -> check Alcotest.int ("serve.aborts." ^ r) 1 (counter ("serve.aborts." ^ r)))
    reasons;
  check Alcotest.int "the family sums to serve.disconnects"
    (counter "serve.disconnects")
    (List.fold_left (fun a r -> a + counter ("serve.aborts." ^ r)) 0 reasons);
  check Alcotest.int "disconnected" 5 (Server.disconnected srv);
  check Alcotest.int "completed" 0 (Server.completed srv)

(* Shutdown reaches connections in flight between loops. With one
   session held open on one loop, a loop whose accept wins hands new
   connections to the other; a burst of connections racing a [stop]
   leaves some handed to a loop that is already shutting down, or has
   ended. Every connection the daemon took is dropped with reason
   [shutdown] and answered before [run] returns. A burst client sends
   nothing, so [close] resets one the daemon never took, while one it
   took and closed unanswered would read a clean end of file. *)
let test_daemon_shutdown_hand_off () =
  let image = fixture_packed () in
  let s = List.hd (mixed_streams ()) in
  for round = 1 to 6 do
    let srv = Server.create ~jobs:2 ~image (Frame.Unix_sock (sock_path ())) in
    Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
    let serving = Domain.spawn (fun () -> Server.run srv) in
    let held = Frame.connect (Server.addr srv) in
    Frame.send held Frame.tag_data (String.sub s 0 20);
    await_counter srv "serve.sessions_accepted" 1;
    let burst = List.init 40 (fun _ -> Frame.connect (Server.addr srv)) in
    Server.stop srv;
    Domain.join serving;
    let at = Printf.sprintf "round %d: %s" round in
    let answered =
      List.filter
        (fun fd ->
          match Unix.select [ fd ] [] [] 0.0 with
          | [], _, _ -> false
          | _ -> (
              match Frame.recv fd with
              | Some f when f.Frame.tag = Frame.tag_error ->
                  check Alcotest.string (at "shutdown reply") "server shutting down"
                    f.Frame.payload;
                  true
              | _ -> Alcotest.fail (at "expected the shutdown reply")))
        (held :: burst)
    in
    Server.close srv;
    List.iter
      (fun fd ->
        if not (List.memq fd answered) then
          match Unix.read fd (Bytes.create 1) 0 1 with
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
          | _ -> Alcotest.fail (at "a connection the daemon took went unanswered"))
      burst;
    List.iter Unix.close (held :: burst);
    let counter name =
      Option.value ~default:0
        (Tea_telemetry.Metrics.find_counter (Server.metrics srv) name)
    in
    let n = List.length answered in
    check Alcotest.bool (at "the held session answered") true (List.memq held answered);
    check Alcotest.int (at "serve.aborts.shutdown") n (counter "serve.aborts.shutdown");
    check Alcotest.int (at "serve.sessions_accepted") n (counter "serve.sessions_accepted");
    check Alcotest.int (at "disconnected") n (Server.disconnected srv)
  done

let test_daemon_asid_cap () =
  (* one asid past the cap fails that session alone; exactly the cap is
     served, and the fleet is unperturbed *)
  let cap = Server.max_session_asids in
  let refusal = Printf.sprintf "too many address spaces (at most %d per session)" cap in
  let streams = mixed_streams () @ [ asid_storm cap ] in
  List.iter
    (fun jobs ->
      let image = fixture_packed () in
      let fleet, offline, replies, errors =
        serve_sessions ~jobs ~image ~corrupt:[ asid_storm (cap + 1) ] streams
      in
      check Alcotest.(list string) "the storm is refused" [ refusal ] errors;
      check profile "a session of exactly the cap is served"
        (offline_of_bytes image (asid_storm cap))
        (List.nth replies (List.length streams - 1));
      check profile
        (Printf.sprintf "fleet == offline next to a storm (jobs %d)" jobs)
        offline fleet;
      check profile
        (Printf.sprintf "fleet == independent reference (jobs %d)" jobs)
        (Profile.merge_all (List.map (offline_of_bytes image) streams))
        fleet)
    [ 1; 2; 4 ];
  (* the refused sessions leave nothing behind: after k more storms the
     live heap has grown by less than one storm's asids would hold *)
  let srv = Server.create ~jobs:1 ~image:(fixture_packed ()) (Frame.Unix_sock (sock_path ())) in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run srv) in
  let storm = asid_storm (cap + 1) in
  let send n =
    for _ = 1 to n do
      match Client.replay_string (Server.addr srv) storm with
      | _ -> Alcotest.fail "a storm was served"
      | exception Client.Server_error msg -> check Alcotest.string "refused" refusal msg
    done;
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  let k = 8 in
  let after_k = send k in
  let after_2k = send k in
  Server.stop srv;
  Domain.join driver;
  check Alcotest.int "every storm dropped" (2 * k) (Server.disconnected srv);
  (* one asid's replayer alone holds its counters and a run buffer *)
  let growth = after_2k - after_k and budget = cap * 1024 in
  if growth >= budget then
    Alcotest.failf "live heap grew %d bytes over %d refused storms (budget %d)"
      growth k budget

let prop_daemon_random_streams =
  (* satellite 4's differential: random event streams through concurrent
     sessions vs the sequential offline merge, cycling jobs 1/2/4 *)
  QCheck.Test.make ~name:"daemon fleet == offline on random streams"
    ~count:10
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 4) gen_events)
           (oneofl [ 1; 2; 4 ])))
    (fun (sessions, jobs) ->
      let streams = List.map (fun evs -> bytes_of_events evs) sessions in
      let image = fixture_packed () in
      let expect =
        Profile.merge_all (List.map (offline_of_bytes image) streams)
      in
      let fleet, offline, _, _ = serve_sessions ~jobs ~image streams in
      Profile.equal fleet offline && Profile.equal fleet expect)

let () =
  Alcotest.run "tea_serve"
    [
      ( "frame",
        [
          Alcotest.test_case "round-trip any chunking" `Quick
            test_frame_roundtrip;
          Alcotest.test_case "hostile length" `Quick test_frame_hostile_length;
          Alcotest.test_case "fd send/recv" `Quick test_frame_fd_helpers;
          Alcotest.test_case "recv: hostile length, bounded memory" `Quick
            test_frame_recv_hostile_length;
          qtest prop_profile_codec;
          qtest prop_parser_hostile;
          qtest prop_profile_hostile;
          Alcotest.test_case "profile varint overflow" `Quick
            test_profile_varint_overflow;
        ] );
      ( "decoder",
        [
          qtest prop_decoder_equals_fold;
          Alcotest.test_case "v1/v2 streams" `Quick test_decoder_v1_v2;
          Alcotest.test_case "errors" `Quick test_decoder_errors;
        ] );
      ( "io",
        [ Alcotest.test_case "read_all through a FIFO" `Quick test_read_all_fifo ] );
      ( "daemon",
        [
          Alcotest.test_case "gate: fleet == offline" `Quick test_daemon_gate;
          Alcotest.test_case "corrupt mid-stream next to clean sessions" `Quick
            test_daemon_corrupt_mid_stream;
          Alcotest.test_case "disconnect isolation" `Quick
            test_daemon_disconnect_isolation;
          Alcotest.test_case "client module" `Quick test_daemon_client_module;
          Alcotest.test_case "jobs above the domain limit" `Quick
            test_daemon_jobs_limit;
          Alcotest.test_case "loop blocks == serve.blocks (jobs 2)" `Quick
            test_daemon_loop_accounting;
          Alcotest.test_case "typed abort reasons" `Quick
            test_daemon_abort_reasons;
          qtest prop_daemon_random_streams;
          Alcotest.test_case "shutdown drops handed-over connections" `Quick
            test_daemon_shutdown_hand_off;
          Alcotest.test_case "asid cap: a storm fails alone, heap bounded" `Quick
            test_daemon_asid_cap;
        ] );
    ]

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
          (Tea_core.Compiled.of_packed (Packed.dup image)))
      path
  in
  Profile.merge_all (List.map snd (Multi.snapshots m))

(* Run a daemon over [streams] (raw trace bytes), all sessions open and
   interleaved concurrently from this domain in [chunk]-byte data frames,
   plus one mid-stream disconnect per element of [aborts] (a prefix of
   bytes sent with no end-of-stream frame). Returns the fleet profile,
   the daemon's own offline differential, and each session's reply. *)
let serve_sessions ~jobs ~image ?(chunk = 5) ?(aborts = []) streams =
  let n = List.length streams + List.length aborts in
  let srv =
    Server.create ~offline_check:true ~jobs ~image
      (Frame.Unix_sock (sock_path ()))
  in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run ~until_sessions:n srv) in
  let fds = List.map (fun _ -> Frame.connect (Server.addr srv)) streams in
  let abort_fds = List.map (fun _ -> Frame.connect (Server.addr srv)) aborts in
  (* interleave: one chunk per session per lap, so all sessions are
     mid-stream at the server simultaneously, with frames splitting
     records (and the magic) at arbitrary byte offsets *)
  let offs = Array.make (List.length streams) 0 in
  let progressed = ref true in
  while !progressed do
    progressed := false;
    List.iteri
      (fun i (fd, s) ->
        let len = String.length s in
        if offs.(i) < len then begin
          let k = min chunk (len - offs.(i)) in
          Frame.send fd Frame.tag_data (String.sub s offs.(i) k);
          offs.(i) <- offs.(i) + k;
          progressed := true
        end)
      (List.combine fds streams)
  done;
  (* the disconnects: a prefix, then a close with no end frame *)
  List.iter2
    (fun fd s ->
      let k = min 40 (String.length s) in
      if k > 0 then Frame.send fd Frame.tag_data (String.sub s 0 k);
      Unix.close fd)
    abort_fds aborts;
  List.iter (fun fd -> Frame.send fd Frame.tag_end "") fds;
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
  List.iter Unix.close fds;
  Domain.join driver;
  check Alcotest.int "completed" (List.length streams) (Server.completed srv);
  check Alcotest.int "disconnected" (List.length aborts)
    (Server.disconnected srv);
  (Server.fleet_profile srv, Server.offline_profile srv, replies)

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

let test_daemon_gate () =
  (* the acceptance gate: >= 8 concurrent sessions, mixed formats, one
     mid-stream disconnect, fleet == offline at jobs 1/2/4 — on the flat
     and the repacked+fused image *)
  List.iter
    (fun image_of ->
      let streams = mixed_streams () in
      let expect =
        Profile.merge_all (List.map (offline_of_bytes (image_of ())) streams)
      in
      List.iter
        (fun jobs ->
          let fleet, offline, replies =
            serve_sessions ~jobs ~image:(image_of ()) ~aborts:[ List.hd streams ]
              streams
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

let test_daemon_disconnect_isolation () =
  (* the same streams with and without a rude client: identical fleet *)
  let streams = mixed_streams () in
  let image = fixture_packed () in
  let clean, _, _ = serve_sessions ~jobs:2 ~image streams in
  let image = fixture_packed () in
  let rude, _, _ =
    serve_sessions ~jobs:2 ~image
      ~aborts:[ List.hd streams; List.nth streams 4 ]
      streams
  in
  check profile "disconnects do not perturb the fleet" clean rude

let test_daemon_client_module () =
  (* the Client convenience wrapper against a live daemon *)
  let image = fixture_packed () in
  let srv =
    Server.create ~jobs:2 ~image (Frame.Unix_sock (sock_path ()))
  in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run ~until_sessions:2 srv) in
  let s = List.hd (mixed_streams ()) in
  let p = Client.replay_string ~chunk:3 (Server.addr srv) s in
  check profile "client profile" (offline_of_bytes image s) p;
  (* a corrupt stream gets an error reply, not a hang *)
  (match Client.replay_string (Server.addr srv) "FOOBARBAZ" with
  | _ -> Alcotest.fail "corrupt stream must be rejected"
  | exception Client.Server_error _ -> ());
  Domain.join driver;
  check Alcotest.int "one completed" 1 (Server.completed srv);
  check Alcotest.int "one rejected" 1 (Server.disconnected srv)

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
      let fleet, offline, _ = serve_sessions ~jobs ~image streams in
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
          qtest prop_profile_codec;
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
          Alcotest.test_case "disconnect isolation" `Quick
            test_daemon_disconnect_isolation;
          Alcotest.test_case "client module" `Quick test_daemon_client_module;
          qtest prop_daemon_random_streams;
        ] );
    ]

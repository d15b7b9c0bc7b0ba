(* The PC-trace decode kernel that every trace consumer runs on.

   - Hostile varints (over-long, sign bit set where the writer never sets
     it) are typed [Corrupt] errors, with one message on every path.
   - Decoding a block allocates nothing: the presized loader, the
     streaming kernel and the one decode-into-replay path
     (decode straight into per-asid compiled replayers, single- and
     multi-asid) stay under a minor-words budget per block
     (deterministic, untimed).
   - The whole-file fold reads back exactly the events written. The
     presized loader and the per-asid runs equal arrays built from the
     whole-file folds, in arrays no larger than the file.
   - On truncated and bit-flipped input, whole-file and randomly chunked
     streaming decode agree: same events, or the same [Corrupt]. The
     streaming file replay agrees with the whole-file load it replaced,
     and the per-asid replay with the per-asid runs: same asids, or the
     same [Corrupt].
   - The kernel writing into the feeder's run buffers, at any split of
     the input and any buffer size, gives the snapshots of feeding the
     fold's events one at a time, and a single-stream file replay gives
     a fold replay's profile: or both the same [Corrupt]. Non-canonical
     and negative tokens are pinned as fixed cases.
   - Switches the kernel routes itself equal the step's: over raw PCTR3
     streams switching every 1-16 blocks among asids 0-9, 5000 and
     [max_int], with non-canonical and negative tokens, a quarter of
     them damaged, lanes of 1-9 blocks and route tables rebuilt at each
     piece, routing plus step gives the empty route's per-asid blocks,
     stops, last asid and [Corrupt] message; and the feeder, flushed
     after random pieces, still equals feeding one event at a time.
   - The kernel agrees with a reference decoder written here from the
     format alone: over raw v1, v2 and v3 streams whose dictionaries
     pass 124 and 16 380 pairs (tokens of one, two and three bytes),
     with literals between tokens, non-canonical two-byte tokens, tokens
     one past the dictionary and cuts at each byte of a two-byte token,
     [fold_events], chunked [decoder_feed] and randomly split
     [feeder_decode] into lanes that fill on two-byte tokens give the
     reference's events, or its [Corrupt] message. *)

module Pc_trace = Tea_core.Pc_trace
module Multi = Tea_core.Multi_replayer
module Shard = Tea_parallel.Shard
module Pool = Tea_parallel.Pool
module Profile = Tea_parallel.Profile
module Evq = Tea_serve.Evq

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let with_tmp f =
  let path = Filename.temp_file "tea_test_decode" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let bytes_of_events format events =
  with_tmp @@ fun path ->
  let w = Pc_trace.open_writer ~format path in
  List.iter (Pc_trace.write_event w) events;
  Pc_trace.close_writer w;
  Pc_trace.read_all path

type outcome = ((int * Pc_trace.event) list, string) result

let outcome =
  Alcotest.testable
    (fun fmt -> function
      | Ok l -> Format.fprintf fmt "Ok <%d events>" (List.length l)
      | Error m -> Format.fprintf fmt "Error %S" m)
    ( = )

let whole s : outcome =
  with_tmp @@ fun path ->
  write_bytes path s;
  match Pc_trace.fold_events path [] (fun acc ~asid ev -> (asid, ev) :: acc) with
  | l -> Ok (List.rev l)
  | exception Pc_trace.Corrupt m -> Error m

(* feed [s] in pieces of the given sizes (cycled), then finish *)
let streamed sizes s : outcome =
  let d = Pc_trace.decoder () in
  let got = ref [] in
  let n = String.length s in
  let sizes = Array.of_list (if sizes = [] then [ n + 1 ] else sizes) in
  match
    let off = ref 0 and i = ref 0 in
    while !off < n do
      let k = min (max 1 sizes.(!i mod Array.length sizes)) (n - !off) in
      Pc_trace.decoder_feed d ~off:!off ~len:k s (fun ~asid ev ->
          got := (asid, ev) :: !got);
      off := !off + k;
      incr i
    done;
    Pc_trace.decoder_finish d
  with
  | () -> Ok (List.rev !got)
  | exception Pc_trace.Corrupt m -> Error m

(* ---------------- replay entry points vs their loaders ---------------- *)

(* a small image over the low addresses the generators draw from *)
let image =
  lazy
    (let block_at a =
       Tea_cfg.Block.make Tea_cfg.Block.Branch
         [ (a, Tea_isa.Insn.Jmp (Tea_isa.Insn.Abs 0)) ]
     in
     Tea_core.Packed.freeze
       (Tea_core.Builder.build
          [ Tea_traces.Trace.linear ~id:0 ~kind:"test" ~cycle:true
              [ block_at 0x0; block_at 0x1; block_at 0x2 ] ]))

let corrupt_msg f =
  match f () with v -> Ok v | exception Pc_trace.Corrupt m -> Error m

(* Shard.replay_pc_trace gives load_pc_trace's block count and the
   profile of one replay over its arrays, or raises its Corrupt message;
   Shard.replay_events covers load_events' asids, or raises its message *)
let replays_agree_with_loads path =
  let image = Lazy.force image in
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let single =
    match
      ( corrupt_msg (fun () -> Shard.load_pc_trace path),
        corrupt_msg (fun () -> Shard.replay_pc_trace pool image path) )
    with
    | Ok (starts, insns, len), Ok (p, blocks) ->
        blocks = len
        && Profile.equal p (Shard.replay_arrays pool image ~insns starts ~len)
    | Error loaded, Error replayed -> loaded = replayed
    | _ -> false
  in
  let events =
    match
      ( corrupt_msg (fun () -> Shard.load_events path),
        corrupt_msg (fun () -> Shard.replay_events pool (fun _ -> image) path) )
    with
    | Ok runs, Ok profiles -> List.map fst runs = List.map fst profiles
    | Error loaded, Error replayed -> loaded = replayed
    | _ -> false
  in
  single && events

(* ---------------- hostile varints ---------------- *)

let ff8 = String.make 8 '\xff'

(* nine bytes, every payload bit set: the 63-bit pattern of -1 *)
let minus_one = ff8 ^ "\x7f"

(* ten bytes: one more than a 63-bit int holds *)
let ten_bytes = String.make 9 '\x80' ^ "\x01"

let hostile =
  [
    ("v2 literal, insns -1", "PCTR2\n\x00\x00" ^ minus_one, "negative instruction count");
    ("v1 record, insns -1", "TEAPC1\n\x00" ^ minus_one, "negative instruction count");
    ("v3 literal, insns -1", "PCTR3\n\x00\x00" ^ minus_one, "negative instruction count");
    ("v1 delta, 10-byte varint", "TEAPC1\n" ^ ten_bytes ^ "\x00", "varint too long");
    ("v2 insns, 10-byte varint", "PCTR2\n\x00\x00" ^ ten_bytes, "varint too long");
    ("v2 token, 10-byte varint", "PCTR2\n" ^ ten_bytes, "varint too long");
    ("v2 token -1", "PCTR2\n" ^ minus_one, "bad dictionary token");
    ("v3 switch to asid -1", "PCTR3\n\x01" ^ minus_one, "negative asid");
    ("v3 invalidate asid -1", "PCTR3\n\x02" ^ minus_one, "negative asid");
  ]

let test_hostile_varints () =
  List.iter
    (fun (name, bytes, msg) ->
      check outcome (name ^ ": whole file") (Error msg) (whole bytes);
      List.iter
        (fun chunk ->
          check outcome
            (Printf.sprintf "%s: streamed in %d-byte chunks" name chunk)
            (Error msg) (streamed [ chunk ] bytes))
        [ 1; 2; 5; 1000 ];
      with_tmp (fun path ->
          write_bytes path bytes;
          Alcotest.check_raises (name ^ ": load_events") (Pc_trace.Corrupt msg)
            (fun () -> ignore (Shard.load_events path));
          Alcotest.check_raises (name ^ ": load") (Pc_trace.Corrupt msg)
            (fun () -> ignore (Shard.load_pc_trace path));
          check Alcotest.bool (name ^ ": replays") true
            (replays_agree_with_loads path)))
    hostile

let test_widest_varints () =
  (* nine bytes with the sign bit clear are still valid: the largest
     count the writer can emit round-trips *)
  check outcome "insns = max_int"
    (Ok [ (0, Pc_trace.Block { start = 0; insns = max_int }) ])
    (whole ("TEAPC1\n\x00" ^ ff8 ^ "\x3f"));
  let s = bytes_of_events Pc_trace.V2 [ Pc_trace.Block { start = 0x10; insns = max_int } ] in
  check outcome "writer's max_int, streamed" (whole s) (streamed [ 1 ] s);
  check outcome "writer's max_int, whole"
    (Ok [ (0, Pc_trace.Block { start = 0x10; insns = max_int }) ])
    (whole s)

(* ---------------- allocation budget ---------------- *)

let n_blocks = 120_000

(* a loop nest with a slowly drifting outer body: mostly dictionary
   hits, a literal now and then *)
let block_at i =
  let start = 0x8048000 + ((i mod 37) * 16) + ((i / 4000) * 0x1000) in
  Pc_trace.Block { start; insns = 1 + (i mod 5) }

let v2_events = List.init n_blocks block_at

(* a loop of 1000 blocks at scattered addresses: 1000 dictionary pairs,
   so most tokens take two bytes *)
let wide_events =
  List.init n_blocks (fun i ->
      let k = i mod 1000 in
      Pc_trace.Block { start = 0x8048000 + (k * k * 31 mod 65536 * 16); insns = 1 + (k mod 5) })

(* three asids switching every 8 blocks, with rare cuts *)
let v3_events =
  List.concat
    (List.init n_blocks (fun i ->
         let sw = if i mod 8 = 0 then [ Pc_trace.Switch { asid = i / 8 mod 3 } ] else [] in
         let cut =
           if i mod 5003 = 0 then [ Pc_trace.Invalidate { asid = 1 } ]
           else if i mod 7001 = 0 then [ Pc_trace.Interrupt ]
           else []
         in
         sw @ cut @ [ block_at i ]))

let budget = 0.05

let words_per_block name f =
  let w0 = Gc.minor_words () in
  let blocks = f () in
  let per = (Gc.minor_words () -. w0) /. float_of_int blocks in
  check Alcotest.int (name ^ ": every block decoded") n_blocks blocks;
  check Alcotest.bool
    (Printf.sprintf "%s: %.4f minor words/block <= %.2f" name per budget)
    true (per <= budget)

(* The streaming kernel driven by hand, in 64 KiB feeds, with a call per
   record on top: what an int-level stream consumer would write. *)
let feed_ints s ~block ~ctl =
  let d = Pc_trace.decoder () in
  let lane = { Pc_trace.starts = Array.make 256 0; insns = Array.make 256 0; fill = 0 } in
  let rec drain () =
    lane.fill <- 0;
    let m = Pc_trace.decode_blocks d [||] lane in
    for i = 0 to m - 1 do
      block ~asid:(Pc_trace.decoder_asid d) ~start:lane.starts.(i) ~insns:lane.insns.(i)
    done;
    let step = Pc_trace.decode_step d in
    if step = Pc_trace.step_full then drain ()
    else if step <> Pc_trace.step_end then begin
      ctl ~asid:(Pc_trace.decoder_asid d) ~tag:step ~arg:(Pc_trace.decoder_arg d);
      drain ()
    end
  in
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    let k = min 65536 (n - !off) in
    Pc_trace.decoder_input d ~off:!off ~len:k s;
    drain ();
    off := !off + k
  done;
  Pc_trace.decoder_finish d

(* One cyclic trace per outer step of [block_at]'s loop nest, so the
   drain path below runs in-trace dispatch, not only misses. *)
let loop_image () =
  let block_at addr =
    Tea_cfg.Block.make Tea_cfg.Block.Branch
      [ (addr, Tea_isa.Insn.Jmp (Tea_isa.Insn.Abs 0)) ]
  in
  Tea_core.Packed.freeze
    (Tea_core.Builder.build
       (List.init (n_blocks / 4000) (fun k ->
            Tea_traces.Trace.linear ~id:k ~kind:"test" ~cycle:true
              (List.init 37 (fun i -> block_at (0x8048000 + (k * 0x1000) + (i * 16)))))))

let test_allocation_budget () =
  let v2 = bytes_of_events Pc_trace.V2 v2_events in
  let v3 = bytes_of_events Pc_trace.V3 v3_events in
  let wide = bytes_of_events Pc_trace.V2 wide_events in
  check Alcotest.bool "the wide stream's tokens take two bytes" true
    (String.length wide > 3 * n_blocks / 2);
  with_tmp @@ fun path ->
  let load name s =
    write_bytes path s;
    words_per_block name (fun () ->
        let _, _, len = Shard.load_pc_trace path in
        len)
  in
  load "load_pc_trace (PCTR2, two-byte tokens)" wide;
  load "load_pc_trace (PCTR2)" v2;
  let count s () =
    let n = ref 0 in
    feed_ints s
      ~block:(fun ~asid:_ ~start:_ ~insns:_ -> incr n)
      ~ctl:(fun ~asid:_ ~tag:_ ~arg:_ -> ());
    !n
  in
  words_per_block "streaming feed (PCTR2)" (count v2);
  words_per_block "streaming feed (PCTR3)" (count v3);
  (* a single-stream file is the one-asid case of the feeder below; the
     three-state image keeps the returned profile small *)
  let small = Lazy.force image in
  let rep = Tea_core.Replayer.create_compiled (Tea_core.Compiled.of_packed small) in
  Pool.with_pool ~jobs:1 (fun pool ->
      let replay () = snd (Shard.replay_pc_trace pool small ~make:(fun _ -> rep) path) in
      ignore (replay ());
      words_per_block "Shard.replay_pc_trace (PCTR2)" replay);
  (* the one decode-into-replay path (daemon drain, file replay): decode
     straight into a feeder over per-asid compiled replayers. One untimed
     pass first: a fresh replayer's set-up is paid once per session, not
     per block. *)
  let image = loop_image () in
  let compiled () =
    Tea_core.Replayer.create_compiled
      (Tea_core.Compiled.of_packed image)
  in
  let drain m s () =
    let f = Multi.feeder m in
    let dec = Pc_trace.decoder () in
    let n = String.length s and blocks = ref 0 in
    let off = ref 0 in
    while !off < n do
      let len = min 65536 (n - !off) in
      blocks := !blocks + Multi.feeder_decode f dec ~off:!off ~len s;
      off := !off + len
    done;
    Pc_trace.decoder_finish dec;
    Multi.feeder_flush f;
    !blocks
  in
  let rep = compiled () in
  let single () = Multi.create (fun _ -> rep) in
  ignore (drain (single ()) v2 ());
  words_per_block "feeder_decode into a compiled replayer (PCTR2)" (fun () ->
      drain (single ()) v2 ());
  ignore (drain (single ()) wide ());
  words_per_block "feeder_decode into a compiled replayer (PCTR2, two-byte tokens)"
    (fun () -> drain (single ()) wide ());
  let reps = Array.init 3 (fun _ -> compiled ()) in
  let multi () = Multi.create (fun a -> reps.(a)) in
  ignore (drain (multi ()) v3 ());
  words_per_block "feeder_decode into per-asid compiled replayers (PCTR3)"
    (fun () -> drain (multi ()) v3 ());
  (* the benchmark replica's ingest: feed into the unboxed event queue *)
  words_per_block "streaming feed into Evq (PCTR3)" (fun () ->
      let q = Evq.create () in
      feed_ints v3
        ~block:(fun ~asid ~start ~insns -> Evq.push_block q ~asid ~start ~insns)
        ~ctl:(fun ~asid ~tag ~arg -> Evq.push_ctl q ~asid ~tag ~arg);
      let n = ref 0 in
      while not (Evq.is_empty q) do
        if Evq.tag q = Evq.tag_block then incr n;
        Evq.drop q
      done;
      !n)

(* ---------------- loaders == folds ---------------- *)

let gen_events =
  let open QCheck.Gen in
  let block =
    map2
      (fun start insns -> Pc_trace.Block { start; insns })
      (oneof [ int_range 0 0xFFF; int_range 0 0xFFFFFFF ])
      (int_range 0 300)
  in
  (* mostly small asids; now and then one past the decoder's array of
     parked delta chains, or past any array *)
  let asid = frequency [ (6, int_range 0 3); (1, oneofl [ 9; 5000; max_int ]) ] in
  let ev =
    frequency
      [ (8, block);
        (1, map (fun asid -> Pc_trace.Switch { asid }) asid);
        (1, map (fun asid -> Pc_trace.Invalidate { asid }) asid);
        (1, return Pc_trace.Interrupt) ]
  in
  let format = oneofl [ Pc_trace.V1; Pc_trace.V2; Pc_trace.V3 ] in
  format >>= fun f ->
  list_size (int_range 0 300) ev >|= fun evs ->
  let evs =
    if f = Pc_trace.V3 then evs
    else List.filter (function Pc_trace.Block _ -> true | _ -> false) evs
  in
  (f, evs)

let print_case (f, evs) =
  Printf.sprintf "%s, %d events"
    (match f with Pc_trace.V1 -> "v1" | Pc_trace.V2 -> "v2" | Pc_trace.V3 -> "v3")
    (List.length evs)

(* The per-asid run contract, straight from the event fold: runs cut at
   invalidations of the asid and interrupts on it. *)
let reference_demux path =
  let open_ = Hashtbl.create 8 and closed = Hashtbl.create 8 in
  let cut a =
    match Hashtbl.find_opt open_ a with
    | Some (_ :: _ as run) ->
        Hashtbl.replace closed a (List.rev run :: Option.value ~default:[] (Hashtbl.find_opt closed a));
        Hashtbl.replace open_ a []
    | _ -> ()
  in
  Pc_trace.fold_events path () (fun () ~asid ev ->
      match ev with
      | Pc_trace.Block { start; insns } ->
          Hashtbl.replace open_ asid
            ((start, insns) :: Option.value ~default:[] (Hashtbl.find_opt open_ asid))
      | Pc_trace.Invalidate { asid = a } -> cut a
      | Pc_trace.Interrupt -> cut asid
      | Pc_trace.Switch _ -> ());
  Hashtbl.fold (fun a _ acc -> a :: acc) open_ []
  |> List.sort compare
  |> List.map (fun a ->
         cut a;
         (a, List.rev (Hashtbl.find closed a)))

let pairs r = List.init r.Pc_trace.len (fun i -> (r.Pc_trace.starts.(i), r.Pc_trace.insns.(i)))

let prop_loaders_equal_folds =
  QCheck.Test.make ~name:"load_pc_trace and demux == fold/fold_events (v1/v2/v3)"
    ~count:200
    (QCheck.make ~print:print_case gen_events)
    (fun (format, events) ->
      let s = bytes_of_events format events in
      let bytes = String.length s in
      with_tmp @@ fun path ->
      write_bytes path s;
      let fits a = Array.length a <= bytes in
      let single =
        match Pc_trace.fold path [] (fun acc ~start ~insns -> (start, insns) :: acc) with
        | l -> Ok (List.rev l)
        | exception Pc_trace.Corrupt m -> Error m
      in
      let loaded =
        match Shard.load_pc_trace path with
        | starts, insns, len ->
            if not (fits starts && fits insns) then QCheck.Test.fail_report "load arrays exceed the byte count";
            Ok (pairs { Pc_trace.starts; insns; len })
        | exception Pc_trace.Corrupt m -> Error m
      in
      let runs = Shard.load_events path in
      List.iter
        (fun (_, rs) ->
          List.iter
            (fun r ->
              if not (fits r.Pc_trace.starts && fits r.Pc_trace.insns) then
                QCheck.Test.fail_report "load_events arrays exceed the byte count")
            rs)
        runs;
      (* and the fold reads back what was written, each event stamped
         with the asid it lands on *)
      let cur = ref 0 in
      let written =
        List.map
          (fun ev ->
            (match ev with Pc_trace.Switch { asid } -> cur := asid | _ -> ());
            (!cur, ev))
          events
      in
      whole s = Ok written
      && loaded = single
      && List.map (fun (a, rs) -> (a, List.map pairs rs)) runs = reference_demux path)

(* ---------------- damaged input: whole file == streamed ---------------- *)

let gen_damaged =
  let open QCheck.Gen in
  gen_events >>= fun (format, events) ->
  let s = bytes_of_events format events in
  let n = String.length s in
  let flip =
    map2 (fun pos bit -> `Flip (pos, bit)) (int_range 0 (max 0 (n - 1))) (int_range 0 7)
  in
  list_size (int_range 1 3)
    (frequency [ (3, flip); (1, map (fun k -> `Cut k) (int_range 0 n)) ])
  >>= fun damage ->
  list_size (int_range 1 6) (int_range 1 40) >|= fun sizes ->
  let b = Bytes.of_string s in
  let len =
    List.fold_left
      (fun len d ->
        match d with
        | `Flip (pos, bit) ->
            if pos < len then
              Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
            len
        | `Cut k -> min len k)
      n damage
  in
  (Bytes.sub_string b 0 len, sizes)

(* Damage the single-stream loaders must turn into Corrupt, mixed into
   the random cases: a PCTR2 file cut mid-record, one whose last byte
   gained a continuation bit, and an undamaged PCTR3 file with a
   Switch, which only the per-asid path accepts. *)
let named_damage =
  let blocks =
    List.map
      (fun start -> Pc_trace.Block { start; insns = 3 })
      [ 0x0; 0x1; 0x2; 0x40000; 0x0 ]
  in
  let v2 = bytes_of_events Pc_trace.V2 blocks in
  let n = String.length v2 in
  let flipped = Bytes.of_string v2 in
  Bytes.set flipped (n - 1) (Char.chr (Char.code v2.[n - 1] lor 0x80));
  [ String.sub v2 0 (n - 1);
    Bytes.to_string flipped;
    bytes_of_events Pc_trace.V3
      (blocks @ (Pc_trace.Switch { asid = 1 } :: blocks)) ]

let prop_damaged_whole_equals_streamed =
  QCheck.Test.make ~name:"truncated/bit-flipped: whole file == chunked stream"
    ~count:300
    (QCheck.make
       ~print:(fun (s, sizes) ->
         Printf.sprintf "%S in chunks %s" s
           (String.concat "," (List.map string_of_int sizes)))
       QCheck.Gen.(
         frequency
           [ (9, gen_damaged); (1, oneofl named_damage >|= fun s -> (s, [ 3 ])) ]))
    (fun (s, sizes) ->
      whole s = streamed sizes s
      && with_tmp (fun path ->
             write_bytes path s;
             replays_agree_with_loads path))

(* ---------------- the kernel into run buffers == event at a time ---------------- *)

let compiled_image = lazy (Tea_core.Compiled.of_packed (Lazy.force image))

let make_rep _ = Tea_core.Replayer.create_compiled (Lazy.force compiled_image)

let count_blocks evs =
  List.length (List.filter (function _, Pc_trace.Block _ -> true | _ -> false) evs)

(* The reference: every event of the whole-file fold (or of [decode])
   through [Multi.feed], one at a time; per-asid snapshots and the block
   count. *)
let fed_one_by_one ?(decode = whole) s =
  match decode s with
  | Error m -> Error m
  | Ok evs ->
      let m = Multi.create make_rep in
      List.iter (fun (asid, ev) -> Multi.feed m ~asid ev) evs;
      Ok (Multi.snapshots m, count_blocks evs)

(* [s] through [feeder_decode] in pieces of the given sizes (cycled),
   into run buffers of at most [cap] blocks, flushing the feeder after
   the pieces [flush] picks, as a daemon does after each read. *)
let fed_by_kernel ?(flush = fun _ -> false) ~cap sizes s =
  corrupt_msg (fun () ->
      let m = Multi.create make_rep in
      let f = Multi.feeder ~buf:cap m and dec = Pc_trace.decoder () in
      let n = String.length s in
      let sizes = Array.of_list (if sizes = [] then [ n + 1 ] else sizes) in
      let off = ref 0 and i = ref 0 and blocks = ref 0 in
      while !off < n do
        let k = min (max 1 sizes.(!i mod Array.length sizes)) (n - !off) in
        blocks := !blocks + Multi.feeder_decode f dec ~off:!off ~len:k s;
        if flush !i then Multi.feeder_flush f;
        off := !off + k;
        incr i
      done;
      Pc_trace.decoder_finish dec;
      Multi.feeder_flush f;
      (Multi.snapshots m, !blocks))

(* The single-stream file replay against a [Pc_trace.fold] replay: the
   same profile and block count, or the same [Corrupt]. *)
let single_stream_agrees s =
  with_tmp @@ fun path ->
  write_bytes path s;
  let folded =
    corrupt_msg (fun () ->
        let rep = make_rep () in
        let blocks =
          Pc_trace.fold path 0 (fun n ~start ~insns ->
              Tea_core.Replayer.feed_addr rep ~insns start;
              n + 1)
        in
        (Profile.of_replayer rep, blocks))
  in
  let streamed =
    corrupt_msg (fun () ->
        Pool.with_pool ~jobs:1 (fun pool ->
            Shard.replay_pc_trace pool (Lazy.force image)
              ~make:(fun _ -> make_rep ())
              path))
  in
  match (folded, streamed) with
  | Ok (a, n), Ok (b, m) -> Profile.equal a b && n = m
  | Error a, Error b -> a = b
  | _ -> false

let gen_split_stream =
  let open QCheck.Gen in
  triple
    (frequency
       [ (3, map (fun (f, evs) -> bytes_of_events f evs) gen_events);
         (1, map fst gen_damaged) ])
    (list_size (int_range 1 6) (int_range 1 40))
    (int_range 1 9)

let prop_kernel_equals_feed =
  QCheck.Test.make
    ~name:"feeder_decode == event-at-a-time feed (any split, buffers of 1-9 blocks)"
    ~count:300
    (QCheck.make
       ~print:(fun (s, sizes, cap) ->
         Printf.sprintf "%S in chunks %s, buffers of %d" s
           (String.concat "," (List.map string_of_int sizes)) cap)
       gen_split_stream)
    (fun (s, sizes, cap) ->
      fed_by_kernel ~cap sizes s = fed_one_by_one s && single_stream_agrees s)

(* Records the kernel must hand to the step intact: a control token
   written as a non-canonical 2-byte varint, and a 9-byte token with the
   sign bit set. *)
let kernel_hostile =
  let block start = Pc_trace.Block { start; insns = 1 } in
  [ ( "v3 switch token as a 2-byte varint",
      "PCTR3\n\x00\x20\x01\x81\x00\x01\x04\x81\x00\x00\x04",
      Ok
        [ (0, block 0x10); (1, Pc_trace.Switch { asid = 1 }); (1, block 0x10);
          (0, Pc_trace.Switch { asid = 0 }); (0, block 0x20) ] );
    ( "v3 9-byte negative token",
      "PCTR3\n\x00\x20\x01" ^ ff8 ^ "\x40",
      Error "bad dictionary token" );
    ( "v2 9-byte negative token",
      "PCTR2\n\x00\x20\x01" ^ ff8 ^ "\x40",
      Error "bad dictionary token" ) ]

let test_kernel_hostile () =
  List.iter
    (fun (name, s, expected) ->
      check outcome (name ^ ": whole file") expected (whole s);
      let reference = fed_one_by_one s in
      for p = 1 to String.length s - 1 do
        let at = Printf.sprintf "%s: split at %d" name p in
        check outcome (at ^ ", streamed") expected (streamed [ p; String.length s ] s);
        List.iter
          (fun cap ->
            check Alcotest.bool
              (Printf.sprintf "%s, feeder with buffers of %d" at cap)
              true
              (fed_by_kernel ~cap [ p; String.length s ] s = reference))
          [ 1; 2; 9 ]
      done;
      check Alcotest.bool (name ^ ": single-stream replay") true (single_stream_agrees s);
      with_tmp (fun path ->
          write_bytes path s;
          check Alcotest.bool (name ^ ": replays") true (replays_agree_with_loads path)))
    kernel_hostile

(* ---------------- routed switches == the step's ---------------- *)

(* Raw PCTR3 bytes, written here rather than by [Pc_trace]'s writer so a
   stream can hold what the writer never emits: a switch every 1-16
   blocks among asids 0-9, 5000 and [max_int], switch tokens written as
   non-canonical 2-byte varints, negative asids and tokens, and random
   deltas and dictionary back-references. *)
let gen_routing_stream =
  let open QCheck.Gen in
  let varint b v =
    let rec go v =
      if v >= 0 && v < 0x80 then Buffer.add_char b (Char.chr v)
      else begin
        Buffer.add_char b (Char.chr (0x80 lor (v land 0x7F)));
        go (v lsr 7)
      end
    in
    go v
  in
  let asid = frequency [ (8, int_range 0 9); (1, oneofl [ 5000; max_int ]) ] in
  let token b t canonical =
    if canonical then varint b t
    else begin
      Buffer.add_char b (Char.chr (0x80 lor t));
      Buffer.add_char b '\000'
    end
  in
  (* one record after a run of blocks: mostly a switch *)
  let control =
    frequency
      [ (12, map2 (fun a c b -> token b Pc_trace.tag_switch c; varint b a) asid (frequencyl [ (5, true); (1, false) ]));
        (2, map (fun a b -> token b Pc_trace.tag_invalidate true; varint b a) asid);
        (2, return (fun b -> token b Pc_trace.tag_interrupt true));
        (1, return (fun b -> token b Pc_trace.tag_switch true; Buffer.add_string b minus_one));
        (1, return (fun b -> Buffer.add_string b (ff8 ^ "\x40"))) ]
  in
  (* deltas run below zero too, so start addresses reach -1 and beyond:
     batched and one-step replay must agree on them *)
  let block = triple (int_range (-64) 64) (int_range 0 9) (int_range 0 99) in
  list_size (int_range 0 40) (pair (list_size (int_range 1 16) block) control)
  >|= fun turns ->
  let b = Buffer.create 256 in
  Buffer.add_string b "PCTR3\n";
  let defined = ref 0 in
  List.iter
    (fun (blocks, ctl) ->
      List.iter
        (fun (delta, insns, pick) ->
          (* a back-reference to a defined pair, or a literal *)
          if !defined > 0 && pick < 60 then varint b (4 + (pick mod !defined))
          else begin
            varint b 0;
            varint b (if delta >= 0 then delta lsl 1 else ((-delta) lsl 1) - 1);
            varint b insns;
            incr defined
          end)
        blocks;
      ctl b)
    turns;
  Buffer.contents b

(* A quarter of the streams truncated or bit-flipped. *)
let gen_routing_case =
  let open QCheck.Gen in
  let damage s =
    let n = String.length s in
    frequency
      [ (3, return s);
        (1, map (fun k -> String.sub s 0 k) (int_range 0 n));
        ( 1,
          map2
            (fun pos bit ->
              let b = Bytes.of_string s in
              if n > 0 then
                Bytes.set b (pos mod n)
                  (Char.chr (Char.code s.[pos mod n] lxor (1 lsl bit)));
              Bytes.to_string b)
            nat (int_range 0 7) ) ]
  in
  let table =
    (* a route table's length and the asids it routes, one per piece *)
    pair (oneofl [ 0; 3; 10; 5001 ]) (list_size (int_range 0 6) (int_range 0 9))
  in
  quad
    (gen_routing_stream >>= damage)
    (list_size (int_range 1 6) (int_range 1 40))
    (list_size (int_range 1 4) table)
    (array_size (return 11) (int_range 1 9))

(* What a run of the kernel saw: each asid's blocks in order, every stop
   other than a switch with the blocks decoded before it, the last
   asid, and the outcome. *)
type routed = {
  blocks : (int * (int * int) list) list;
  stops : (int * int * int * int) list;
  last : int;
  result : (unit, string) result;
}

(* Drive the kernel over [s], fed in pieces of [sizes] (cycled). Before
   each piece the route table is rebuilt from [tables] (cycled): a table
   of length [len] routing asids [routed], each to a lane of [caps.(a)]
   blocks; a lane leaves the route with its blocks taken, as a flush
   does. Every other asid decodes into a lane of [caps.(10)] blocks. A
   switch the step returns must be to an unrouted asid. [tables = []]
   drives the empty route. *)
let drive_routed ~tables ~caps sizes s =
  let d = Pc_trace.decoder () in
  let lane cap = { Pc_trace.starts = Array.make cap 0; insns = Array.make cap 0; fill = 0 } in
  let lanes = Array.init 10 (fun a -> lane caps.(a)) and other = lane caps.(10) in
  let out = Hashtbl.create 8 in
  let take a (l : Pc_trace.lane) =
    for i = 0 to l.fill - 1 do
      Hashtbl.replace out a
        ((l.starts.(i), l.insns.(i)) :: Option.value ~default:[] (Hashtbl.find_opt out a))
    done;
    l.fill <- 0
  in
  let route = ref [||] in
  let lane_of a =
    if a >= 0 && a < Array.length !route && !route.(a) != Pc_trace.no_lane then !route.(a)
    else other
  in
  let total = ref 0 and stops = ref [] in
  let rec drain () =
    let a0 = Pc_trace.decoder_asid d in
    let l0 = lane_of a0 in
    total := !total + Pc_trace.decode_blocks d !route l0;
    if l0 == other then take a0 other;
    let step = Pc_trace.decode_step d in
    let a = Pc_trace.decoder_asid d in
    if step = Pc_trace.step_full then begin
      take a (lane_of a);
      drain ()
    end
    else if step <> Pc_trace.step_end then begin
      if step = Pc_trace.tag_switch then begin
        if lane_of a != other then
          QCheck.Test.fail_reportf "the step took a switch to routed asid %d" a
      end
      else stops := (step, a, Pc_trace.decoder_arg d, !total) :: !stops;
      drain ()
    end
  in
  let tables = Array.of_list tables and sizes = Array.of_list sizes in
  let unroute () =
    Array.iteri (fun a l -> if l != Pc_trace.no_lane then take a l) !route;
    route := [||]
  in
  let result =
    match
      let n = String.length s and off = ref 0 and i = ref 0 in
      while !off < n do
        if Array.length tables > 0 then begin
          unroute ();
          let len, routed = tables.(!i mod Array.length tables) in
          let r = Array.make len Pc_trace.no_lane in
          List.iter (fun a -> if a < len then r.(a) <- lanes.(a)) routed;
          route := r
        end;
        let k = min sizes.(!i mod Array.length sizes) (n - !off) in
        Pc_trace.decoder_input d ~off:!off ~len:k s;
        drain ();
        off := !off + k;
        incr i
      done;
      Pc_trace.decoder_finish d
    with
    | () -> Ok ()
    | exception Pc_trace.Corrupt m -> Error m
  in
  unroute ();
  {
    blocks =
      Hashtbl.fold (fun a l acc -> (a, List.rev l) :: acc) out [] |> List.sort compare;
    stops = List.rev !stops;
    last = Pc_trace.decoder_asid d;
    result;
  }

let print_routing (s, sizes, tables, caps) =
  Printf.sprintf "%S in chunks %s, tables %s, lanes %s" s
    (String.concat "," (List.map string_of_int sizes))
    (String.concat "; "
       (List.map
          (fun (len, r) ->
            Printf.sprintf "%d:[%s]" len (String.concat "," (List.map string_of_int r)))
          tables))
    (String.concat "," (Array.to_list (Array.map string_of_int caps)))

let prop_routing_equals_step =
  QCheck.Test.make
    ~name:"routed switches == the step's (asids 0-9, 5000, max_int; lanes of 1-9 blocks)"
    ~count:500
    (QCheck.make ~print:print_routing gen_routing_case)
    (fun (s, sizes, tables, caps) ->
      let routed = drive_routed ~tables ~caps sizes s in
      let plain = drive_routed ~tables:[] ~caps sizes s in
      if routed <> plain then QCheck.Test.fail_report "routed run differs from the empty route";
      (* the feeder keeps its route equal to its dirty stack across
         flushes after random pieces: the per-asid replays equal feeding
         one event at a time *)
      let flush i = caps.(i mod 11) mod 2 = 0 in
      fed_by_kernel ~flush ~cap:caps.(0) sizes s = fed_one_by_one s)

(* ---------------- the kernel == an independent decoder ---------------- *)

exception Bad of string

(* A decoder written from the format as [Pc_trace]'s interface gives it,
   calling no [Pc_trace] decode function: the events of a whole string,
   each stamped with the asid it lands on, or the message of the first
   bad record. *)
let reference_decode s : outcome =
  let n = String.length s and pos = ref 0 in
  let rec varint acc shift =
    if !pos >= n then raise (Bad "truncated varint");
    let c = Char.code s.[!pos] in
    incr pos;
    let acc = acc lor ((c land 0x7F) lsl shift) in
    if c < 0x80 then acc
    else if shift = 56 then raise (Bad "varint too long")
    else varint acc (shift + 7)
  in
  let nonneg what =
    match varint 0 0 with v when v < 0 -> raise (Bad ("negative " ^ what)) | v -> v
  in
  (* magic, first dictionary token (0: none) *)
  let formats = [ ("TEAPC1\n", 0); ("PCTR2\n", 1); ("PCTR3\n", 4) ] in
  match List.find_opt (fun (m, _) -> String.starts_with ~prefix:m s) formats with
  | None when List.exists (fun (m, _) -> String.starts_with ~prefix:s m) formats ->
      Error "truncated header"
  | None -> Error "bad magic"
  | Some (m, base) -> (
      pos := String.length m;
      let dict = Hashtbl.create 64 and parked = Hashtbl.create 8 in
      let asid = ref 0 and prev = ref 0 and out = ref [] in
      let emit ev = out := (!asid, ev) :: !out in
      let block (delta, insns) =
        prev := !prev + delta;
        emit (Pc_trace.Block { start = !prev; insns })
      in
      match
        while !pos < n do
          match if base = 0 then 0 else varint 0 0 with
          | 0 ->
              let z = varint 0 0 in
              let pair = ((z lsr 1) lxor -(z land 1), nonneg "instruction count") in
              if base > 0 && Hashtbl.length dict < 1 lsl 20 then
                Hashtbl.add dict (base + Hashtbl.length dict) pair;
              block pair
          | t when t >= base -> (
              match Hashtbl.find_opt dict t with
              | Some pair -> block pair
              | None -> raise (Bad "bad dictionary token"))
          | 3 -> emit Pc_trace.Interrupt
          | 2 -> emit (Pc_trace.Invalidate { asid = nonneg "asid" })
          | 1 ->
              let a = nonneg "asid" in
              Hashtbl.replace parked !asid !prev;
              asid := a;
              prev := Option.value ~default:0 (Hashtbl.find_opt parked a);
              emit (Pc_trace.Switch { asid = a })
          | _ -> raise (Bad "bad dictionary token")
        done
      with
      | () -> Ok (List.rev !out)
      | exception Bad msg -> Error msg)

let raw_varint b v =
  let rec go v =
    if v >= 0 && v < 0x80 then Buffer.add_char b (Char.chr v)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (v land 0x7F)));
      go (v lsr 7)
    end
  in
  go v

type damage = Intact | Past_dictionary | Cut_two_byte of int | Cut | Flip

(* Raw bytes, so a stream can hold what the writer never emits. [pairs]
   literals define the dictionary first; past 124 (v3) or 127 (v2) pairs
   tokens take two bytes, and past 16 380 three. Then up to 300 records
   drawn from [seed]: tokens to low, random and recent pairs, tokens
   below 128 written non-canonically in two bytes, literals between
   them, and v3 events. [damage] then appends a token one past the
   dictionary and one more record, cuts the stream at byte [k] (0-2) of
   one of its two-byte tokens, cuts it anywhere, or flips a bit. *)
let reference_stream (fmt, pairs, seed, damage) =
  let r = Random.State.make [| seed |] in
  let int n = Random.State.int r n in
  let b = Buffer.create 1024 in
  let base = match fmt with Pc_trace.V1 -> 0 | V2 -> 1 | V3 -> 4 in
  Buffer.add_string b (match fmt with V1 -> "TEAPC1\n" | V2 -> "PCTR2\n" | V3 -> "PCTR3\n");
  let defined = ref 0 and two_byte = ref [] in
  let literal () =
    if base > 0 then raw_varint b 0;
    let delta = int 129 - 64 in
    raw_varint b (if delta >= 0 then 2 * delta else (-2 * delta) - 1);
    raw_varint b (int 300);
    if base > 0 then incr defined
  in
  let token t =
    let at = Buffer.length b in
    raw_varint b t;
    if Buffer.length b - at = 2 then two_byte := at :: !two_byte
  in
  for _ = 1 to pairs do
    literal ()
  done;
  for _ = 1 to int 300 do
    let d = !defined in
    match int 12 with
    | 0 | 1 -> literal ()
    | 2 when base = 4 -> (
        match int 3 with
        | 0 -> raw_varint b 1; raw_varint b (if int 8 = 0 then 5000 else int 4)
        | 1 -> raw_varint b 2; raw_varint b (int 4)
        | _ -> raw_varint b 3)
    | 3 when d > 0 ->
        let t = base + int (min d (0x80 - base)) in
        two_byte := Buffer.length b :: !two_byte;
        Buffer.add_char b (Char.chr (0x80 lor t));
        Buffer.add_char b '\000'
    | k when d > 0 ->
        token
          (base
          + if k mod 3 = 0 then int (min d 124) else if k mod 3 = 1 then int d else d - 1 - int (min d 300))
    | _ -> literal ()
  done;
  let s = Buffer.contents b in
  let n = String.length s in
  match damage with
  | Intact -> s
  | Past_dictionary ->
      if base > 0 then token (base + !defined);
      literal ();
      Buffer.contents b
  | Cut_two_byte k -> (
      match !two_byte with
      | [] -> s
      | l -> String.sub s 0 (List.nth l (int (List.length l)) + k))
  | Cut -> String.sub s 0 (int (n + 1))
  | Flip ->
      let b = Bytes.of_string s and i = int n in
      Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl int 8)));
      Bytes.to_string b

let gen_reference_case =
  let open QCheck.Gen in
  let stream =
    quad
      (frequencyl [ (1, Pc_trace.V1); (2, Pc_trace.V2); (2, Pc_trace.V3) ])
      (frequency
         [ (3, int_range 0 100); (3, int_range 125 400); (1, int_range 16_381 16_600) ])
      nat
      (frequency
         [ (5, return Intact);
           (1, return Past_dictionary);
           (2, map (fun k -> Cut_two_byte k) (int_range 0 2));
           (1, return Cut);
           (1, return Flip) ])
  in
  triple stream
    (list_size (int_range 1 6) (frequency [ (3, int_range 1 40); (1, int_range 1 5000) ]))
    (frequency [ (3, int_range 1 9); (1, return 4096) ])

let print_reference_case ((fmt, pairs, seed, damage), sizes, cap) =
  Printf.sprintf "%s, %d pairs, seed %d, %s, chunks %s, buffers of %d"
    (match fmt with Pc_trace.V1 -> "v1" | V2 -> "v2" | V3 -> "v3")
    pairs seed
    (match damage with
    | Intact -> "intact"
    | Past_dictionary -> "a token past the dictionary"
    | Cut_two_byte k -> Printf.sprintf "cut at byte %d of a two-byte token" k
    | Cut -> "cut"
    | Flip -> "bit-flipped")
    (String.concat "," (List.map string_of_int sizes))
    cap

let prop_kernel_equals_reference =
  QCheck.Test.make
    ~name:"fold_events, chunked stream and feeder_decode == a reference decoder"
    ~count:200
    (QCheck.make ~print:print_reference_case gen_reference_case)
    (fun (case, sizes, cap) ->
      let s = reference_stream case in
      let expected = reference_decode s in
      (whole s = expected || QCheck.Test.fail_report "fold_events differs")
      && (streamed sizes s = expected || QCheck.Test.fail_report "decoder_feed differs")
      && fed_by_kernel ~cap sizes s = fed_one_by_one ~decode:reference_decode s)

(* Two-byte tokens at the token loop's edges, in v2 and v3: a lane that
   fills on one, input cut at each byte of the last ones, and tokens one
   past the dictionary in one byte and in two. *)
let test_two_byte_tokens () =
  let stream fmt pairs tail =
    let b = Buffer.create 1024 in
    Buffer.add_string b (if fmt = Pc_trace.V2 then "PCTR2\n" else "PCTR3\n");
    for i = 1 to pairs do
      Buffer.add_string b "\000";
      raw_varint b (2 * i);
      raw_varint b (i mod 7)
    done;
    Buffer.add_string b tail;
    Buffer.contents b
  in
  List.iter
    (fun (fmt, name, base) ->
      (* 140 pairs: tokens [base] to [base + 139]; 128 on take two bytes *)
      let tokens = "\x85\x01\x06\x82\x01\x85\x00\x86\x01" in
      let token t =
        let b = Buffer.create 4 in
        raw_varint b t;
        Buffer.contents b
      in
      let cases =
        [ ("tokens of one and two bytes", stream fmt 140 tokens);
          ( "a one-byte token past the dictionary",
            stream fmt 20 ("\x06\x85\x00" ^ token (base + 20) ^ "\x06") );
          ( "a two-byte token past the dictionary",
            stream fmt 140 (tokens ^ token (base + 140) ^ "\x06") );
          ("the last pair by a two-byte token", stream fmt 140 (tokens ^ token (base + 139))) ]
      in
      List.iter
        (fun (what, s) ->
          let n = String.length s in
          for cut = n - 14 to n do
            let s = String.sub s 0 cut in
            let at = Printf.sprintf "%s, %s, cut at %d of %d" name what cut n in
            let expected = reference_decode s in
            check outcome (at ^ ": fold_events") expected (whole s);
            check outcome (at ^ ": streamed") expected (streamed [ cut - 3; 1 ] s);
            List.iter
              (fun cap ->
                check Alcotest.bool
                  (Printf.sprintf "%s: feeder with buffers of %d" at cap)
                  true
                  (fed_by_kernel ~cap [ cut - 5; 2; 1 ] s
                  = fed_one_by_one ~decode:reference_decode s))
              [ 1; 2; 3; 4; 131 ]
          done)
        cases)
    [ (Pc_trace.V2, "v2", 1); (Pc_trace.V3, "v3", 4) ]

let () =
  Alcotest.run "tea_decode"
    [
      ( "kernel",
        [
          Alcotest.test_case "hostile varints are Corrupt" `Quick test_hostile_varints;
          Alcotest.test_case "widest valid varints" `Quick test_widest_varints;
          Alcotest.test_case "allocation budget per block" `Quick test_allocation_budget;
          qtest prop_loaders_equal_folds;
          qtest prop_damaged_whole_equals_streamed;
          Alcotest.test_case "non-canonical and negative tokens" `Quick test_kernel_hostile;
          qtest prop_kernel_equals_feed;
          qtest prop_routing_equals_step;
          Alcotest.test_case "two-byte tokens at the token loop's edges" `Quick
            test_two_byte_tokens;
          qtest prop_kernel_equals_reference;
        ] );
    ]

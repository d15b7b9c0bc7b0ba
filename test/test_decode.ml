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
     and negative tokens are pinned as fixed cases. *)

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
  let starts = Array.make 256 0 and insns = Array.make 256 0 in
  let rec drain () =
    let m = Pc_trace.decode_blocks d starts insns 0 in
    for i = 0 to m - 1 do
      block ~asid:(Pc_trace.decoder_asid d) ~start:starts.(i) ~insns:insns.(i)
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
  with_tmp @@ fun path ->
  write_bytes path v2;
  words_per_block "load_pc_trace (PCTR2)" (fun () ->
      let _, _, len = Shard.load_pc_trace path in
      len);
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

(* The reference: every event of the whole-file fold through [Multi.feed],
   one at a time; per-asid snapshots and the block count. *)
let fed_one_by_one s =
  match whole s with
  | Error m -> Error m
  | Ok evs ->
      let m = Multi.create make_rep in
      List.iter (fun (asid, ev) -> Multi.feed m ~asid ev) evs;
      Ok (Multi.snapshots m, count_blocks evs)

(* [s] through [feeder_decode] in pieces of the given sizes (cycled),
   into run buffers of at most [cap] blocks. *)
let fed_by_kernel ~cap sizes s =
  corrupt_msg (fun () ->
      let m = Multi.create make_rep in
      let f = Multi.feeder ~buf:cap m and dec = Pc_trace.decoder () in
      let n = String.length s in
      let sizes = Array.of_list (if sizes = [] then [ n + 1 ] else sizes) in
      let off = ref 0 and i = ref 0 and blocks = ref 0 in
      while !off < n do
        let k = min (max 1 sizes.(!i mod Array.length sizes)) (n - !off) in
        blocks := !blocks + Multi.feeder_decode f dec ~off:!off ~len:k s;
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
        ] );
    ]

(* Adversarial replay scenarios: the PCTR3 event codec, the demuxing
   Multi_replayer and its per-asid run buffers, Shard.replay_events, and
   the scenario builders.

   The headline property is the PR's hard gate — demuxed replay of an
   interleaved multi-asid stream must be observationally identical (full
   per-asid Profile snapshot equality) to replaying each asid's
   projection in isolation, at jobs 1/2/4, with and without profile-
   guided repacking and superstate fusion. *)

open Tea_isa
module I = Insn
module Block = Tea_cfg.Block
module Trace = Tea_traces.Trace
module Builder = Tea_core.Builder
module Packed = Tea_core.Packed
module Compiled = Tea_core.Compiled
module Replayer = Tea_core.Replayer
module Pc_trace = Tea_core.Pc_trace
module Multi = Tea_core.Multi_replayer
module Scenario = Tea_workloads.Scenario
module Pool = Tea_parallel.Pool
module Profile = Tea_parallel.Profile
module Shard = Tea_parallel.Shard

(* A compiled-engine replayer over a private dup of [img]. *)
let compiled img = Replayer.create_compiled (Compiled.of_packed img)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let profile = Alcotest.testable Profile.pp Profile.equal

let pp_event fmt = function
  | Pc_trace.Block { start; insns } ->
      Format.fprintf fmt "Block(0x%x,%d)" start insns
  | Pc_trace.Switch { asid } -> Format.fprintf fmt "Switch(%d)" asid
  | Pc_trace.Invalidate { asid } -> Format.fprintf fmt "Invalidate(%d)" asid
  | Pc_trace.Interrupt -> Format.fprintf fmt "Interrupt"

let event = Alcotest.testable pp_event ( = )
let stamped = Alcotest.(list (pair int event))

let with_tmp f =
  let path = Filename.temp_file "tea_test_scn" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_v3 path events =
  let w = Pc_trace.open_writer ~format:Pc_trace.V3 path in
  List.iter (Pc_trace.write_event w) events;
  Pc_trace.close_writer w

let read_stamped path =
  List.rev
    (Pc_trace.fold_events path [] (fun acc ~asid ev -> (asid, ev) :: acc))

(* ---------------- PCTR3 codec ---------------- *)

let test_v3_roundtrip () =
  let events =
    [ Pc_trace.Block { start = 0x100; insns = 3 };
      Pc_trace.Switch { asid = 2 };
      Pc_trace.Block { start = 0x4000; insns = 5 };
      Pc_trace.Block { start = 0x4010; insns = 1 };
      Pc_trace.Interrupt;
      Pc_trace.Switch { asid = 0 };
      Pc_trace.Block { start = 0x108; insns = 2 };
      Pc_trace.Invalidate { asid = 2 };
      Pc_trace.Switch { asid = 2 };
      Pc_trace.Block { start = 0x4000; insns = 5 } ]
  in
  with_tmp @@ fun path ->
  write_v3 path events;
  check stamped "events round-trip with asid stamps"
    [ (0, List.nth events 0); (2, List.nth events 1); (2, List.nth events 2);
      (2, List.nth events 3); (2, List.nth events 4); (0, List.nth events 5);
      (0, List.nth events 6); (0, List.nth events 7); (2, List.nth events 8);
      (2, List.nth events 9) ]
    (read_stamped path);
  check Alcotest.int "length counts blocks only" 5 (Pc_trace.length path)

(* Per-asid delta chains: interleaving two loops must still compress, and
   decode must restore each asid's own previous-address context. *)
let test_v3_delta_chains () =
  with_tmp @@ fun path ->
  let w = Pc_trace.open_writer ~format:Pc_trace.V3 path in
  for _ = 1 to 50 do
    Pc_trace.switch_asid w 0;
    Pc_trace.write w ~start:0x1000 ~insns:1;
    Pc_trace.write w ~start:0x1010 ~insns:2;
    Pc_trace.switch_asid w 7;
    Pc_trace.write w ~start:0x9000000 ~insns:3;
    Pc_trace.write w ~start:0x9000020 ~insns:4
  done;
  Pc_trace.close_writer w;
  let blocks_of a =
    List.filter_map
      (fun (asid, ev) ->
        match ev with
        | Pc_trace.Block { start; insns } when asid = a -> Some (start, insns)
        | _ -> None)
      (read_stamped path)
  in
  let lap l = List.init 100 (fun i -> List.nth l (i mod 2)) in
  check
    Alcotest.(list (pair int int))
    "asid 0 chain" (lap [ (0x1000, 1); (0x1010, 2) ]) (blocks_of 0);
  check
    Alcotest.(list (pair int int))
    "asid 7 chain" (lap [ (0x9000000, 3); (0x9000020, 4) ]) (blocks_of 7);
  (* steady-state blocks are 1-byte dictionary tokens and switches 2
     bytes, so ~300 events should land well under 2 bytes/event even
     with the first lap's literals *)
  let size = (Unix.stat path).Unix.st_size in
  if size > 550 then
    Alcotest.failf "interleaved stream did not compress: %d bytes" size

let test_v3_writer_guards () =
  with_tmp @@ fun path ->
  let w = Pc_trace.open_writer ~format:Pc_trace.V2 path in
  Alcotest.check_raises "switch_asid on v2"
    (Invalid_argument "Pc_trace.switch_asid: events require a V3 writer")
    (fun () -> Pc_trace.switch_asid w 1);
  Pc_trace.close_writer w;
  with_tmp @@ fun path ->
  let w = Pc_trace.open_writer ~format:Pc_trace.V3 path in
  Alcotest.check_raises "negative asid"
    (Invalid_argument "Pc_trace.switch_asid: negative asid") (fun () ->
      Pc_trace.switch_asid w (-1));
  Pc_trace.close_writer w

let expect_corrupt what f =
  try
    f ();
    Alcotest.failf "%s: expected Corrupt" what
  with Pc_trace.Corrupt _ -> ()

let test_v3_corruption () =
  (* header shorter than any magic *)
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "PCT";
      close_out oc;
      expect_corrupt "truncated header" (fun () -> ignore (Pc_trace.length path)));
  (* short-but-foreign: 6 bytes that match no magic and cannot grow into
     one must read as a bad magic, not a truncated header *)
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "FOOBAR";
      close_out oc;
      Alcotest.check_raises "short foreign file" (Pc_trace.Corrupt "bad magic")
        (fun () -> ignore (Pc_trace.length path)));
  (* while a true prefix of a magic is still a truncated header *)
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "TEAPC1";
      close_out oc;
      Alcotest.check_raises "magic prefix" (Pc_trace.Corrupt "truncated header")
        (fun () -> ignore (Pc_trace.length path)));
  (* an undefined dictionary token right after the magic *)
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc "PCTR3\n";
      output_byte oc 10;
      close_out oc;
      expect_corrupt "bad dictionary token" (fun () ->
          ignore (Pc_trace.length path)));
  (* truncation inside the last record's varints *)
  with_tmp (fun path ->
      write_v3 path
        [ Pc_trace.Switch { asid = 3 };
          Pc_trace.Block { start = 0x123456; insns = 7 } ];
      let s = In_channel.with_open_bin path In_channel.input_all in
      let oc = open_out_bin path in
      output_string oc (String.sub s 0 (String.length s - 1));
      close_out oc;
      expect_corrupt "mid-run truncation" (fun () ->
          ignore (Pc_trace.length path)))

(* The single-stream view refuses a v3 event stream (replaying it as one
   stream would erase asid boundaries and cut points), whole-file and
   streamed alike, while a pure block-stream v3 file still works
   everywhere. *)
let test_v3_single_stream_view () =
  with_tmp (fun path ->
      write_v3 path
        [ Pc_trace.Block { start = 0x100; insns = 1 };
          Pc_trace.Switch { asid = 1 };
          Pc_trace.Block { start = 0x200; insns = 1 } ];
      expect_corrupt "fold on event stream" (fun () ->
          Pc_trace.fold path () (fun () ~start:_ ~insns:_ -> ()));
      expect_corrupt "load on event stream" (fun () -> ignore (Pc_trace.load path));
      expect_corrupt "single-stream decoder on event stream" (fun () ->
          Pc_trace.decoder_feed (Pc_trace.single_decoder ()) (Pc_trace.read_all path)
            (fun ~asid:_ _ -> ())));
  with_tmp (fun path ->
      write_v3 path
        [ Pc_trace.Block { start = 0x100; insns = 1 };
          Pc_trace.Block { start = 0x200; insns = 2 } ];
      let back =
        List.rev
          (Pc_trace.fold path [] (fun acc ~start ~insns -> (start, insns) :: acc))
      in
      check
        Alcotest.(list (pair int int))
        "pure-block v3 folds" [ (0x100, 1); (0x200, 2) ] back)

let test_v1_v2_backward_compat () =
  let records = [ (0x100, 1); (0x90, 4); (0x100, 1); (0x2000, 0) ] in
  List.iter
    (fun format ->
      with_tmp (fun path ->
          let w = Pc_trace.open_writer ~format path in
          List.iter (fun (start, insns) -> Pc_trace.write w ~start ~insns) records;
          Pc_trace.close_writer w;
          check stamped "old formats read as asid-0 blocks"
            (List.map
               (fun (start, insns) -> (0, Pc_trace.Block { start; insns }))
               records)
            (read_stamped path)))
    [ Pc_trace.V1; Pc_trace.V2 ]

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

let prop_v3_roundtrip =
  QCheck.Test.make ~name:"pctr3 round-trips any event stream" ~count:100
    (QCheck.make gen_events) (fun events ->
      with_tmp @@ fun path ->
      write_v3 path events;
      (* reference asid stamping: a fold over the writer's own rules *)
      let expect =
        List.rev
          (snd
             (List.fold_left
                (fun (cur, acc) ev ->
                  match ev with
                  | Pc_trace.Switch { asid } -> (asid, (asid, ev) :: acc)
                  | _ -> (cur, (cur, ev) :: acc))
                (0, []) events))
      in
      read_stamped path = expect)

(* ---------------- Multi_replayer on the hand fixture ---------------- *)

let block_at addr = Block.make Block.Branch [ (addr, I.Jmp (I.Abs 0)) ]

(* T1 cycles 0x100->0x200->0x300->0x100, T2 chains 0x400->0x300. *)
let t1 =
  Trace.linear ~id:0 ~kind:"test" ~cycle:true
    [ block_at 0x100; block_at 0x200; block_at 0x300 ]

let t2 = Trace.linear ~id:1 ~kind:"test" [ block_at 0x400; block_at 0x300 ]

let fixture_packed () = Packed.freeze (Builder.build [ t1; t2 ])

let fixture_compiled = lazy (Compiled.of_packed (fixture_packed ()))
let fixture_make _ = Replayer.create_compiled (Lazy.force fixture_compiled)

let feed_blocks m asid addrs =
  List.iter
    (fun start -> Multi.feed m ~asid (Pc_trace.Block { start; insns = 1 }))
    addrs

(* Golden interrupt unit: T1 is a cycle, so the uncut lap pair never
   exits; the mid-trace cut forces NTE with no accounting, so the second
   lap re-enters — counts identical, one extra enter, still zero exits. *)
let test_interrupt_golden () =
  let lap = [ 0x100; 0x200; 0x300 ] in
  let m = Multi.create fixture_make in
  feed_blocks m 0 lap;
  Multi.feed m ~asid:0 Pc_trace.Interrupt;
  feed_blocks m 0 lap;
  let cut = List.assoc 0 (Multi.snapshots m) in
  check Alcotest.int "interrupts counted" 1 (Multi.interrupts m 0);
  check Alcotest.int "re-entered after the cut" 2 cut.Replayer.enters;
  check Alcotest.int "no spurious exit from the cut" 0 cut.Replayer.exits;
  check Alcotest.int "coverage intact" 6 cut.Replayer.covered;
  check Alcotest.int "steps" 6 cut.Replayer.steps;
  check
    Alcotest.(list (pair int int))
    "per-state counts match the uncut run"
    (let m' = Multi.create fixture_make in
     feed_blocks m' 0 (lap @ lap);
     (List.assoc 0 (Multi.snapshots m')).Replayer.counts)
    cut.Replayer.counts;
  (* and the uncut run entered only once *)
  let m' = Multi.create fixture_make in
  feed_blocks m' 0 (lap @ lap);
  check Alcotest.int "uncut lap pair enters once"
    1 (List.assoc 0 (Multi.snapshots m')).Replayer.enters

(* Golden SMC unit: invalidation cuts T1 mid-cycle; the next block 0x400
   is T2's head, entering from NTE exactly as a fresh replay would. *)
let test_smc_golden () =
  let m = Multi.create fixture_make in
  feed_blocks m 0 [ 0x100; 0x200; 0x300 ];
  Multi.feed m ~asid:0 (Pc_trace.Invalidate { asid = 0 });
  feed_blocks m 0 [ 0x400; 0x300 ];
  let s = List.assoc 0 (Multi.snapshots m) in
  check Alcotest.int "invalidations counted" 1 (Multi.invalidations m 0);
  check Alcotest.int "T1 then T2 entered" 2 s.Replayer.enters;
  check Alcotest.int "no spurious exit" 0 s.Replayer.exits;
  check Alcotest.int "covered" 5 s.Replayer.covered;
  (* invalidating an asid that never executed is a no-op *)
  Multi.feed m ~asid:0 (Pc_trace.Invalidate { asid = 9 });
  check Alcotest.int "unknown asid untouched" 0 (Multi.invalidations m 9);
  check
    Alcotest.(list Alcotest.int)
    "no entry materialized" [ 0 ] (Multi.asids m)

let test_multi_demux_fixture () =
  (* two asids over the same automaton, interleaved by hand; demux must
     equal feeding each asid's blocks alone *)
  let a_blocks = [ 0x100; 0x200; 0x300; 0x100 ]
  and b_blocks = [ 0x400; 0x300; 0x400; 0x300 ] in
  let m = Multi.create fixture_make in
  List.iter2
    (fun a b ->
      feed_blocks m 1 [ a ];
      feed_blocks m 2 [ b ])
    a_blocks b_blocks;
  check Alcotest.(list int) "asids" [ 1; 2 ] (Multi.asids m);
  let solo blocks =
    let m' = Multi.create fixture_make in
    feed_blocks m' 5 blocks;
    List.assoc 5 (Multi.snapshots m')
  in
  check profile "asid 1 demux == isolated" (solo a_blocks)
    (List.assoc 1 (Multi.snapshots m));
  check profile "asid 2 demux == isolated" (solo b_blocks)
    (List.assoc 2 (Multi.snapshots m))

let snap_eq a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x, p) (y, q) -> x = y && Profile.equal p q)
       a b

(* The per-asid run buffers: a feeder of capacity 1-5 over random
   multi-asid streams gives every asid the snapshot that event-at-a-time
   [feed] and isolated replay give. The generator splices in the cases
   the flush rules exist for: an invalidation aimed at a non-current asid
   that still has buffered blocks, an interrupt right after a switch, and
   a rebind after [feeder_flush] mid-stream. *)
let gen_feeder_case =
  let open QCheck.Gen in
  let block =
    map
      (fun start -> Pc_trace.Block { start; insns = 1 })
      (oneofl [ 0x100; 0x200; 0x300; 0x400; 0x500 ])
  in
  let asid = int_range 0 3 in
  let blocks lo hi = list_size (int_range lo hi) block in
  let piece =
    frequency
      [ (6, map (fun b -> [ b ]) block);
        (1, map (fun asid -> [ Pc_trace.Switch { asid } ]) asid);
        (1, map (fun asid -> [ Pc_trace.Invalidate { asid } ]) asid);
        (1, return [ Pc_trace.Interrupt ]);
        ( 1,
          map3
            (fun a mine other ->
              [ Pc_trace.Switch { asid = a } ]
              @ mine
              @ [ Pc_trace.Switch { asid = (a + 1) mod 4 } ]
              @ other
              @ [ Pc_trace.Invalidate { asid = a } ])
            asid (blocks 1 4) (blocks 0 3) );
        ( 1,
          map2
            (fun a after -> (Pc_trace.Switch { asid = a } :: Pc_trace.Interrupt :: after))
            asid (blocks 0 3) ) ]
  in
  triple (int_range 1 5) (map List.concat (list_size (int_range 0 40) piece)) (float_range 0.0 1.0)

let prop_feeder_buffers =
  QCheck.Test.make
    ~name:"per-asid run buffers (buf 1-5) == feed == isolated, across a rebind"
    ~count:300
    (QCheck.make
       ~print:(fun (buf, evs, _) ->
         Printf.sprintf "buf %d, %d events" buf (List.length evs))
       gen_feeder_case)
    (fun (buf, events, at) ->
      with_tmp @@ fun path ->
      write_v3 path events;
      let stamped = read_stamped path in
      let one_at_a_time = Multi.create fixture_make in
      List.iter (fun (asid, ev) -> Multi.feed one_at_a_time ~asid ev) stamped;
      let m = Multi.create fixture_make in
      let f = Multi.feeder ~buf m in
      let k = int_of_float (at *. float_of_int (List.length stamped)) in
      List.iteri
        (fun i (asid, ev) ->
          if i = k then begin
            Multi.feeder_flush f;
            Multi.rebind m (Replayer.Compiled (Lazy.force fixture_compiled))
          end;
          Multi.feeder_feed f ~asid ev)
        stamped;
      Multi.feeder_flush f;
      let buffered = Multi.snapshots m in
      snap_eq buffered (Multi.snapshots one_at_a_time)
      && snap_eq buffered (Multi.replay_isolated fixture_make path))

(* An asid storm over one shared compiled image: opening an asid costs
   its replayer — counters, run boundaries and a small constant — plus
   its feeder's 256-block run buffers, never a compile. 64 four-block
   traces give 257 slots, so a per-asid compile (closures, region
   tables) would cost several times the bound. *)
let test_asid_cost_bound () =
  let img =
    Packed.freeze
      (Builder.build
         (List.init 64 (fun id ->
              Trace.linear ~id ~kind:"test"
                (List.init 4 (fun k -> block_at (0x10000 + (id * 0x100) + (k * 0x10)))))))
  in
  let c = Compiled.of_packed img in
  let m = Multi.create (fun _ -> Replayer.create_compiled c) in
  let f = Multi.feeder ~buf:256 m in
  let open_asid asid =
    Multi.feeder_block f ~asid ~start:0x10000 ~insns:1;
    Multi.feeder_flush f
  in
  open_asid 0;
  let n = 255 in
  let before = Gc.allocated_bytes () in
  for asid = 1 to n do
    open_asid asid
  done;
  let per_asid = (Gc.allocated_bytes () -. before) /. float_of_int n in
  let array k = float_of_int ((k + 1) * (Sys.word_size / 8)) in
  let bound =
    array (Packed.n_counters img)
    +. array (Packed.n_slots img)
    +. (2. *. array 256) +. 1024.
  in
  check Alcotest.int "every asid replayed its block" (n + 1)
    (List.length (Multi.asids m));
  if per_asid > bound then
    Alcotest.failf "%.0f bytes allocated per new asid, bound %.0f" per_asid
      bound

(* ---------------- workload pipeline fixtures ----------------

   Four small generated workloads, each recorded (MRET) and captured
   once; every engine flavor (flat, repacked, fused, repacked+fused) is
   derived from the same stream, so the expensive record/capture work is
   shared across all scenario tests and qcheck cases. *)

type wl = {
  wl_name : string;
  wl_stream : Scenario.stream; (* asid is rewritten per test *)
  wl_flat : Packed.t;
  wl_repacked : Packed.t;
  wl_fused : Packed.t;
  wl_tuned : Packed.t; (* repacked then fused *)
}

let make_wl name image =
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy image in
  let flat =
    Packed.freeze (Builder.build (Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set))
  in
  let path = Filename.temp_file "tea_test_wl" ".trc" in
  let stream =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let _ = Tea_pinsim.Trace_capture.record image path in
        Scenario.load_stream ~asid:0 ~name path)
  in
  let starts = stream.Scenario.starts and len = stream.Scenario.len in
  let repacked =
    Tea_opt.Repack.repack flat (Tea_opt.Repack.collect flat starts ~len)
  in
  let tuned =
    Tea_opt.Fuse.fuse
      ~profile:(Tea_opt.Repack.collect repacked starts ~len)
      repacked
  in
  {
    wl_name = name;
    wl_stream = stream;
    wl_flat = flat;
    wl_repacked = repacked;
    wl_fused = Tea_opt.Fuse.fuse flat;
    wl_tuned = tuned;
  }

let workloads =
  lazy
    [| make_wl "copy" (Tea_workloads.Micro.copy_loop ~words:4 ~passes:3 ());
       make_wl "listscan"
         (Tea_workloads.Micro.list_scan ~nodes:16 ~match_every:2 ~passes:2 ());
       make_wl "branchy" (Tea_workloads.Micro.branchy_loop ~iters:40 ());
       make_wl "nested" (Tea_workloads.Micro.nested_loop ~outer:4 ~inner:6 ()) |]

let engine_of wl = function
  | `Flat -> wl.wl_flat
  | `Pgo -> wl.wl_repacked
  | `Fuse -> wl.wl_fused
  | `Tuned -> wl.wl_tuned

let stream_as asid wl =
  Scenario.stream ~asid ~name:wl.wl_name ~starts:wl.wl_stream.Scenario.starts
    ~insns:wl.wl_stream.Scenario.insns ~len:wl.wl_stream.Scenario.len

(* The gate, as a reusable assertion: write the scenario, replay demuxed
   (Multi_replayer at jobs 1, Shard.replay_events on a pool otherwise)
   and isolated, compare full per-asid snapshots. *)
let gate_scenario ?(jobs = [ 1 ]) ~engine wls scn =
  let selected = Array.of_list wls in
  let img_for a = engine_of selected.(a) engine in
  let make a = compiled (img_for a) in
  with_tmp @@ fun path ->
  let _ = Scenario.write_file path scn in
  let isolated = Multi.replay_isolated make path in
  List.for_all
    (fun jobs ->
      let demuxed =
        if jobs = 1 then Multi.snapshots (Multi.replay_events make path)
        else
          Pool.with_pool ~jobs (fun pool ->
              Shard.replay_events pool img_for path)
      in
      snap_eq demuxed isolated)
    jobs

let test_scenario_builders () =
  let wls = Lazy.force workloads in
  let streams = [ stream_as 0 wls.(0); stream_as 1 wls.(1) ] in
  (* interleave: all blocks present, switches only on asid change *)
  let evs = Scenario.events (Scenario.interleave ~quantum:4 streams) in
  let blocks =
    List.length (List.filter (function Pc_trace.Block _ -> true | _ -> false) evs)
  in
  check Alcotest.int "interleave preserves every block"
    (wls.(0).wl_stream.Scenario.len + wls.(1).wl_stream.Scenario.len)
    blocks;
  (* smc: one invalidation per full period *)
  let evs = Scenario.events (Scenario.smc ~period:10 (stream_as 0 wls.(0))) in
  let invs =
    List.length
      (List.filter (function Pc_trace.Invalidate _ -> true | _ -> false) evs)
  in
  check Alcotest.int "smc invalidation count"
    ((wls.(0).wl_stream.Scenario.len - 1) / 10)
    invs;
  (* interrupt: exactly one cut at the default midpoint *)
  let evs = Scenario.events (Scenario.interrupt (stream_as 0 wls.(0))) in
  check Alcotest.int "single midpoint interrupt" 1
    (List.length
       (List.filter (function Pc_trace.Interrupt -> true | _ -> false) evs));
  Alcotest.check_raises "duplicate asids rejected"
    (Invalid_argument "Scenario.interleave: duplicate asid 0") (fun () ->
      Scenario.interleave [ stream_as 0 wls.(0); stream_as 0 wls.(1) ]
        (fun _ -> ()))

let test_smc_gate_all_engines () =
  let wls = Lazy.force workloads in
  List.iter
    (fun engine ->
      let s = stream_as 0 wls.(1) in
      if not (gate_scenario ~jobs:[ 1; 2; 4 ] ~engine [ wls.(1) ]
                (Scenario.smc ~period:7 s))
      then Alcotest.fail "smc demuxed replay diverged from isolated")
    [ `Flat; `Pgo; `Fuse; `Tuned ]

let test_interrupt_gate_all_engines () =
  let wls = Lazy.force workloads in
  List.iter
    (fun engine ->
      let s = stream_as 0 wls.(2) in
      if not (gate_scenario ~jobs:[ 1; 2; 4 ] ~engine [ wls.(2) ]
                (Scenario.interrupt ~every:9 s))
      then Alcotest.fail "interrupt demuxed replay diverged from isolated")
    [ `Flat; `Pgo; `Fuse; `Tuned ]

(* Seam regression for the satellite audit: quantum 1 maximizes asid
   switches, so at jobs 4 nearly every chunk seam of a naive single-
   stream shard would land on a switch boundary. Per-asid replay must
   keep the gate regardless. *)
let test_seam_on_switch_boundary () =
  let wls = Array.to_list (Lazy.force workloads) in
  let streams = List.mapi (fun a wl -> stream_as a wl) wls in
  if
    not
      (gate_scenario ~jobs:[ 4 ] ~engine:`Flat wls
         (Scenario.interleave ~quantum:1 streams))
  then Alcotest.fail "quantum-1 interleave diverged at jobs 4"

(* The headline qcheck differential: random subsets of 2-4 workloads,
   random quantum and schedule, every engine flavor, at jobs 1/2/4. *)
let gen_interleave_case =
  let open QCheck.Gen in
  let* n = int_range 2 4 in
  let order = [| 0; 1; 2; 3 |] in
  let* () = shuffle_a order in
  let picks = Array.to_list (Array.sub order 0 n) in
  let* quantum = int_range 1 16 in
  let* schedule =
    oneof
      [ return Scenario.Round_robin;
        map (fun s -> Scenario.Random_sched s) (int_range 0 1000) ]
  in
  let* engine = oneofl [ `Flat; `Pgo; `Fuse; `Tuned ] in
  return (picks, quantum, schedule, engine)

let prop_interleave_gate =
  QCheck.Test.make
    ~name:
      "interleaved demuxed replay == isolated per-asid replay (jobs 1/2/4, \
       flat/pgo/fuse/tuned)"
    ~count:12
    (QCheck.make gen_interleave_case)
    (fun (picks, quantum, schedule, engine) ->
      let all = Lazy.force workloads in
      let wls = List.map (fun i -> all.(i)) picks in
      let streams = List.mapi (fun a wl -> stream_as a wl) wls in
      gate_scenario ~jobs:[ 1; 2; 4 ] ~engine wls
        (Scenario.interleave ~quantum ~schedule streams))

(* Interleave composed with cuts: invalidations and interrupts injected
   into a multi-asid schedule still satisfy the gate. *)
let test_mixed_hazards_gate () =
  let all = Lazy.force workloads in
  let wls = [ all.(0); all.(1); all.(3) ] in
  let streams = List.mapi (fun a wl -> stream_as a wl) wls in
  let scn emit =
    let k = ref 0 in
    Scenario.interleave ~quantum:5 streams (fun ev ->
        emit ev;
        incr k;
        if !k mod 37 = 0 then emit (Pc_trace.Invalidate { asid = !k mod 3 });
        if !k mod 53 = 0 then emit Pc_trace.Interrupt)
  in
  List.iter
    (fun engine ->
      if not (gate_scenario ~jobs:[ 1; 2; 4 ] ~engine wls scn) then
        Alcotest.fail "mixed-hazard demuxed replay diverged from isolated")
    [ `Flat; `Tuned ]

let test_shard_load_events () =
  let wls = Lazy.force workloads in
  let s = stream_as 0 wls.(0) in
  with_tmp @@ fun path ->
  let _ = Scenario.write_file path (Scenario.smc ~period:5 s) in
  let runs = Shard.load_events path in
  (match runs with
  | [ (0, rs) ] ->
      check Alcotest.int "blocks preserved across cuts"
        s.Scenario.len
        (List.fold_left (fun acc r -> acc + r.Shard.len) 0 rs);
      check Alcotest.int "one run per period"
        (1 + ((s.Scenario.len - 1) / 5))
        (List.length rs)
  | _ -> Alcotest.fail "expected a single asid");
  (* v1/v2 files load as one uncut asid-0 run *)
  with_tmp @@ fun p2 ->
  let w = Pc_trace.open_writer p2 in
  Pc_trace.write w ~start:0x10 ~insns:1;
  Pc_trace.write w ~start:0x20 ~insns:2;
  Pc_trace.close_writer w;
  match Shard.load_events p2 with
  | [ (0, [ r ]) ] -> check Alcotest.int "v2 single run" 2 r.Shard.len
  | _ -> Alcotest.fail "expected one asid-0 run"

let () =
  Alcotest.run "tea_scenario"
    [
      ( "pctr3",
        [
          Alcotest.test_case "round-trip with events" `Quick test_v3_roundtrip;
          Alcotest.test_case "per-asid delta chains" `Quick test_v3_delta_chains;
          Alcotest.test_case "writer guards" `Quick test_v3_writer_guards;
          Alcotest.test_case "corruption" `Quick test_v3_corruption;
          Alcotest.test_case "single-stream view" `Quick
            test_v3_single_stream_view;
          Alcotest.test_case "v1/v2 backward compat" `Quick
            test_v1_v2_backward_compat;
          qtest prop_v3_roundtrip;
        ] );
      ( "multi_replayer",
        [
          Alcotest.test_case "interrupt golden" `Quick test_interrupt_golden;
          Alcotest.test_case "smc golden" `Quick test_smc_golden;
          Alcotest.test_case "hand-interleaved demux" `Quick
            test_multi_demux_fixture;
          qtest prop_feeder_buffers;
          Alcotest.test_case "asid storm: per-asid allocation bounded" `Quick
            test_asid_cost_bound;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "builders" `Quick test_scenario_builders;
          Alcotest.test_case "smc gate (all engines, jobs 1/2/4)" `Quick
            test_smc_gate_all_engines;
          Alcotest.test_case "interrupt gate (all engines, jobs 1/2/4)" `Quick
            test_interrupt_gate_all_engines;
          Alcotest.test_case "seam on switch boundary" `Quick
            test_seam_on_switch_boundary;
          Alcotest.test_case "mixed hazards gate" `Quick test_mixed_hazards_gate;
          Alcotest.test_case "shard event demux" `Quick test_shard_load_events;
          qtest prop_interleave_gate;
        ] );
    ]

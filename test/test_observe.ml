(* The live introspection plane: drift comparator, histogram quantiles,
   exposition rendering, the JSONL event log, the TEAEP1 edge-profile
   codec, and the dispatch tiers read off the replay counters.

   The headline gate mirrors the daemon gate one level up: the tiers of
   a live tea_serve fleet (batched feeder drain, jobs 1/2/4, flat and
   repacked+fused images) must equal — Tierstat pointwise — the tiers of
   replaying the same streams offline, sequentially; and a scrape issued
   after the last session completed must return the server's exposition
   byte-for-byte, because scrapes are pure observers. The tier oracle
   property checks {!Tierstat.of_counters} against a step-at-a-time
   classification written here. *)

open Tea_isa
module I = Insn
module Block = Tea_cfg.Block
module Trace = Tea_traces.Trace
module Builder = Tea_core.Builder
module Packed = Tea_core.Packed
module Replayer = Tea_core.Replayer
module Pc_trace = Tea_core.Pc_trace
module Multi = Tea_core.Multi_replayer
module Tierstat = Tea_core.Tierstat
module Profile = Tea_parallel.Profile
module Metrics = Tea_telemetry.Metrics
module Repack = Tea_opt.Repack
module Drift = Tea_observe.Drift
module Events = Tea_observe.Events
module Exposition = Tea_observe.Exposition
module Frame = Tea_serve.Frame
module Server = Tea_serve.Server
module Client = Tea_serve.Client

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let feps = Alcotest.float 1e-9

let tierstat =
  Alcotest.testable
    (fun fmt (s : Tierstat.snapshot) ->
      Format.fprintf fmt "total=%d tiers=[%s] states=%d" (Tierstat.total s)
        (String.concat ";"
           (Array.to_list (Array.map string_of_int s.Tierstat.ts_totals)))
        (List.length s.Tierstat.ts_states))
    Tierstat.equal

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let with_tmp suffix f =
  let path = Filename.temp_file "tea_test_observe" suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* Install the global tier-totals tally around [f]; always uninstall,
   returning the final snapshot alongside [f]'s result. *)
let with_tierstat f =
  Tierstat.install ();
  match f () with
  | v -> (Tierstat.uninstall (), v)
  | exception e ->
      ignore (Tierstat.uninstall ());
      raise e

(* ---------------- drift comparator ---------------- *)

let test_drift_zero () =
  let counts = [ (0, 50); (3, 30); (7, 20) ] in
  let d = Drift.create counts in
  check feps "identical counts" 0.0 (Drift.measure d counts);
  (* scale invariance: only the mass distribution matters *)
  check feps "scaled counts" 0.0
    (Drift.measure d (List.map (fun (id, c) -> (id, 4 * c)) counts))

let test_drift_disjoint () =
  let d = Drift.create [ (0, 10) ] in
  check feps "disjoint supports" 2.0 (Drift.measure d [ (1, 10) ])

let test_drift_empty_live () =
  let d = Drift.create [ (0, 3); (1, 1) ] in
  check feps "empty live scores the reference mass" 1.0 (Drift.measure d []);
  let d0 = Drift.create [] in
  check feps "empty vs empty" 0.0 (Drift.measure d0 [])

let test_drift_monotone () =
  (* shift mass linearly from the tuned states onto new ones: the
     distance must be non-decreasing every step of the way *)
  let d = Drift.create [ (0, 50); (1, 30); (2, 20) ] in
  let live t =
    [ (0, 50 - (4 * t)); (1, 30 - (2 * t)); (2, 20 - t); (10, 4 * t); (11, 3 * t) ]
  in
  let dist = List.init 11 (fun t -> Drift.measure d (live t)) in
  check feps "t=0 is zero" 0.0 (List.hd dist);
  List.iteri
    (fun i x ->
      if i > 0 then
        check Alcotest.bool
          (Printf.sprintf "non-decreasing at t=%d" i)
          true
          (x >= List.nth dist (i - 1)))
    dist

let test_drift_threshold () =
  let d = Drift.create ~threshold:0.25 [ (0, 1) ] in
  check Alcotest.bool "at the threshold is not exceeded" false
    (Drift.exceeded d 0.25);
  check Alcotest.bool "past the threshold" true (Drift.exceeded d 0.2500001);
  check feps "default threshold" 0.25 Drift.default_threshold;
  check Alcotest.int "default k" 32 (Drift.k (Drift.create []))

let test_drift_inputs () =
  (* non-positive counts ignored, duplicate ids accumulate *)
  let d = Drift.create [ (5, -2); (7, 4); (7, 4) ] in
  check feps "dups accumulate, negatives drop" 0.0 (Drift.measure d [ (7, 8) ]);
  (match Drift.create ~k:0 [] with
  | _ -> Alcotest.fail "k = 0 must be rejected"
  | exception Invalid_argument _ -> ())

(* ---------------- histogram quantiles ---------------- *)

let hist_of samples =
  let reg = Metrics.create () in
  List.iter (fun v -> Metrics.observe_value reg "h" v) samples;
  match Metrics.find_histogram (Metrics.snapshot reg) "h" with
  | Some h -> h
  | None -> Alcotest.fail "histogram not in snapshot"

let test_quantile_empty () =
  let empty = { Metrics.hs_count = 0; hs_sum = 0; hs_buckets = [] } in
  check feps "empty histogram" 0.0 (Metrics.quantile empty 0.5)

let test_quantile_exact () =
  (* three samples in [1,2) and one in [64,128): the upper quantiles
     land exactly on the top bucket's upper bound *)
  let h = hist_of [ 1; 1; 1; 100 ] in
  check feps "p95" 128.0 (Metrics.p95 h);
  check feps "p99" 128.0 (Metrics.p99 h);
  let p50 = Metrics.p50 h in
  check Alcotest.bool "p50 inside its bucket" true (p50 >= 1.0 && p50 < 2.0);
  (* all-zero samples are the point value 0 *)
  let z = hist_of [ 0; 0; 0 ] in
  check feps "p50 of zeros" 0.0 (Metrics.p50 z);
  check feps "p99 of zeros" 0.0 (Metrics.p99 z)

let test_quantile_clamp () =
  let h = hist_of [ 1; 1; 1; 100 ] in
  check feps "q < 0 clamps to 0" (Metrics.quantile h 0.0)
    (Metrics.quantile h (-5.0));
  check feps "q > 1 clamps to 1" (Metrics.quantile h 1.0)
    (Metrics.quantile h 2.0)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in q" ~count:100
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (int_range 1 50) (int_range 0 100_000))
           (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (samples, q1, q2) ->
      let h = hist_of samples in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Metrics.quantile h lo <= Metrics.quantile h hi)

(* ---------------- exposition helpers ---------------- *)

let test_sanitize_name () =
  check Alcotest.string "dots" "serve_bytes_in"
    (Metrics.sanitize_name "serve.bytes_in");
  check Alcotest.string "leading digit" "_9lives" (Metrics.sanitize_name "9lives");
  check Alcotest.string "empty" "_" (Metrics.sanitize_name "");
  check Alcotest.string "colon kept" "a:b" (Metrics.sanitize_name "a:b");
  check Alcotest.string "spaces and quotes" "a_b_c"
    (Metrics.sanitize_name "a b\"c")

let test_escape_label () =
  check Alcotest.string "backslash, quote, newline" "a\\\"b\\\\c\\nd"
    (Metrics.escape_label "a\"b\\c\nd");
  check Alcotest.string "plain" "plain" (Metrics.escape_label "plain")

let test_exposition_render () =
  let reg = Metrics.create () in
  Metrics.count reg "serve.bytes_in" 7;
  Metrics.count reg "9 weird name" 1;
  Metrics.observe_value reg "lat" 0;
  Metrics.observe_value reg "lat" 3;
  let tiers =
    {
      Tierstat.ts_totals = [| 0; 1; 7 |];
      ts_states = [ (4, [| 0; 1; 4 |]); (10, [| 0; 0; 3 |]) ];
    }
  in
  let got =
    Exposition.render ~tiers ~drift:(0.5, 0.25) (Metrics.snapshot reg)
  in
  let expect =
    "# TYPE tea_counter counter\n\
     tea_counter{name=\"_9_weird_name\"} 1\n\
     tea_counter{name=\"serve_bytes_in\"} 7\n\
     # TYPE tea_histogram histogram\n\
     tea_histogram_bucket{name=\"lat\",le=\"0\"} 1\n\
     tea_histogram_bucket{name=\"lat\",le=\"3\"} 2\n\
     tea_histogram_bucket{name=\"lat\",le=\"+Inf\"} 2\n\
     tea_histogram_count{name=\"lat\"} 2\n\
     tea_histogram_sum{name=\"lat\"} 3\n\
     tea_histogram_quantile{name=\"lat\",q=\"0.5\"} 0\n\
     tea_histogram_quantile{name=\"lat\",q=\"0.95\"} 4\n\
     tea_histogram_quantile{name=\"lat\",q=\"0.99\"} 4\n\
     # TYPE tea_dispatch_tier_total counter\n\
     tea_dispatch_tier_total{tier=\"hash\"} 0\n\
     tea_dispatch_tier_total{tier=\"miss\"} 1\n\
     tea_dispatch_tier_total{tier=\"compiled\"} 7\n\
     # TYPE tea_dispatch_state_total counter\n\
     tea_dispatch_state_total{state=\"4\",tier=\"miss\"} 1\n\
     tea_dispatch_state_total{state=\"4\",tier=\"compiled\"} 4\n\
     tea_dispatch_state_total{state=\"10\",tier=\"compiled\"} 3\n\
     # TYPE tea_drift_l1 gauge\n\
     tea_drift_l1 0.5\n\
     # TYPE tea_drift_threshold gauge\n\
     tea_drift_threshold 0.25\n"
  in
  check Alcotest.string "rendered exposition" expect got;
  (* deterministic: a function of the snapshots alone *)
  check Alcotest.string "render is deterministic" got
    (Exposition.render ~tiers ~drift:(0.5, 0.25) (Metrics.snapshot reg));
  check Alcotest.string "empty snapshot renders empty" ""
    (Exposition.render Metrics.empty)

(* ---------------- JSONL event log ---------------- *)

let test_events_golden () =
  with_tmp ".jsonl" @@ fun path ->
  let e = Events.open_file ~clock:(fun () -> 42.03125) path in
  Events.emit e "session_open" [ ("session", Events.I 3) ];
  Events.emit e "note"
    [ ("msg", Events.S "a\"b\\c\nd"); ("x", Events.F 0.5) ];
  Events.close e;
  let expect =
    "{\"seq\":0,\"ts\":42.031250,\"event\":\"session_open\",\"session\":3}\n\
     {\"seq\":1,\"ts\":42.031250,\"event\":\"note\",\"msg\":\"a\\\"b\\\\c\\nd\",\"x\":0.500000}\n"
  in
  check Alcotest.string "JSONL golden" expect (read_file path)

(* ---------------- TEAEP1 edge-profile codec ---------------- *)

let expect_failure name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Failure" name
  | exception Failure _ -> ()

let test_teaep_roundtrip () =
  let prof =
    {
      Repack.visits = [| 0; 5; 300_000; 1 |];
      taken = [| 1; 0; 7; 128; 3 |];
      misses = [| 2; 0; 0; 9 |];
    }
  in
  with_tmp ".teaep" @@ fun path ->
  Repack.save_profile path prof;
  check Alcotest.bool "roundtrip" true (Repack.load_profile path = prof);
  let bytes = read_file path in
  let write s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  write "NOTAPROFILE";
  expect_failure "bad magic" (fun () -> Repack.load_profile path);
  write (String.sub bytes 0 (String.length bytes - 1));
  expect_failure "truncation" (fun () -> Repack.load_profile path);
  write (bytes ^ "\x00");
  expect_failure "trailing bytes" (fun () -> Repack.load_profile path);
  (* 2^30 - 1 slots in a 13-byte file: refused before any allocation *)
  write "TEAEP1\xff\xff\xff\xff\x03\x00\x01";
  expect_failure "inflated lengths" (fun () -> Repack.load_profile path);
  (* a 9-byte varint that decodes negative *)
  write "TEAEP1\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff\x7f\x00";
  expect_failure "negative value" (fun () -> Repack.load_profile path)

let varint v =
  let b = Buffer.create 10 in
  let v = ref v in
  while !v land lnot 0x7f <> 0 do
    Buffer.add_char b (Char.chr (0x80 lor (!v land 0x7f)));
    v := !v lsr 7
  done;
  Buffer.add_char b (Char.chr !v);
  Buffer.contents b

(* A TEAEP1 file mangled one of three ways. *)
type mangle =
  | Truncate of int  (** keep this many bytes (mod the length) *)
  | Flip of int * int  (** byte position (mod the length), bit *)
  | Inflate of int * int  (** header lengths: slots, edges *)

let gen_mangled =
  let open QCheck.Gen in
  let counts = array_size (int_range 1 12) (oneof [ int_range 0 300; int_bound max_int ]) in
  let mangle =
    oneof
      [ map (fun n -> Truncate n) nat;
        map2 (fun i b -> Flip (i, b)) nat (int_range 0 7);
        map2
          (fun a b -> Inflate (a, b))
          (oneof [ int_range 1 64; int_range 1 0x40000000; int_bound max_int ])
          (oneof [ int_range 0 64; int_range 0 0x40000000; int_bound max_int ]) ]
  in
  pair (triple counts counts counts) mangle

let prop_teaep_hostile =
  (* every mangled file is either refused with the loader's own Failure
     or loads a profile that round-trips; no other exception, and no
     allocation sized from a length the file cannot hold *)
  QCheck.Test.make ~name:"mangled TEAEP1: typed Failure or a round-trip"
    ~count:500 (QCheck.make gen_mangled)
    (fun ((visits, taken, misses), mangle) ->
      let misses = Array.init (Array.length visits) (fun i ->
          misses.(i mod Array.length misses)) in
      let prof = { Repack.visits; taken; misses } in
      with_tmp ".teaep" @@ fun path ->
      Repack.save_profile path prof;
      let bytes = read_file path in
      let n = String.length bytes in
      let mangled =
        match mangle with
        | Truncate k -> String.sub bytes 0 (k mod n)
        | Flip (i, bit) ->
            let b = Bytes.of_string bytes in
            let i = i mod n in
            Bytes.set b i (Char.chr (Char.code bytes.[i] lxor (1 lsl bit)));
            Bytes.to_string b
        | Inflate (slots, edges) ->
            let header =
              String.length "TEAEP1"
              + String.length (varint (Array.length visits))
              + String.length (varint (Array.length taken))
            in
            "TEAEP1" ^ varint slots ^ varint edges
            ^ String.sub bytes header (n - header)
      in
      let oc = open_out_bin path in
      output_string oc mangled;
      close_out oc;
      match Repack.load_profile path with
      | p ->
          Repack.save_profile path p;
          Repack.load_profile path = p
      | exception Failure msg ->
          String.starts_with ~prefix:"Repack.load_profile: " msg)

(* ---------------- fixtures (the test_serve shape) ---------------- *)

let block_at addr = Block.make Block.Branch [ (addr, I.Jmp (I.Abs 0)) ]

let t1 =
  Trace.linear ~id:0 ~kind:"test" [ block_at 0x100; block_at 0x200; block_at 0x300 ]

let t2 = Trace.linear ~id:1 ~kind:"test" [ block_at 0x400; block_at 0x300 ]

let fixture_packed () = Packed.freeze (Builder.build [ t1; t2 ])

let multi_tiers image m =
  let acc = Array.make (Packed.n_counters image) 0 in
  Multi.add_edge_counts m acc;
  Tierstat.of_counters image acc

let compiled img =
  Replayer.create_compiled (Tea_core.Compiled.of_packed (Packed.dup img))

let fixture_starts () =
  Array.init 60 (fun i ->
      List.nth [ 0x100; 0x200; 0x300; 0x400; 0x300 ] (i mod 5))

let fixture_repacked () =
  let packed = fixture_packed () in
  let starts = fixture_starts () in
  Repack.repack packed (Repack.collect packed starts ~len:(Array.length starts))

let fixture_tuned () =
  let packed = fixture_repacked () in
  let starts = fixture_starts () in
  let prof = Repack.collect packed starts ~len:(Array.length starts) in
  Tea_opt.Fuse.fuse ~profile:prof packed

let bytes_of_events ?(format = Pc_trace.V3) events =
  with_tmp ".trc" @@ fun path ->
  let w = Pc_trace.open_writer ~format path in
  List.iter (Pc_trace.write_event w) events;
  Pc_trace.close_writer w;
  Pc_trace.read_all path

let stamped_of_bytes s =
  with_tmp ".trc" @@ fun path ->
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  List.rev
    (Pc_trace.fold_events path [] (fun acc ~asid ev -> (asid, ev) :: acc))

let count_blocks s =
  List.length
    (List.filter
       (fun (_, ev) -> match ev with Pc_trace.Block _ -> true | _ -> false)
       (stamped_of_bytes s))

(* Sequential offline replay of one stream: its fleet profile and its
   dispatch tiers, read off every asid's counters summed. *)
let offline_of_bytes image s =
  with_tmp ".trc" @@ fun path ->
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  let m =
    Multi.replay_events (fun _ -> compiled image) path
  in
  (Profile.merge_all (List.map snd (Multi.snapshots m)), multi_tiers image m)

let sock_path () =
  let p = Filename.temp_file "tea_test_observe" ".sock" in
  Sys.remove p;
  p

let mixed_streams () =
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
    v2 [ 0x300; 0x400 ];
    v3 ]

(* ---------------- dispatch tiers ---------------- *)

let prop_tier_sum =
  (* every resolved block lands in exactly one tier, the per-state rows
     partition the totals, and the installed totals, the counters' totals
     and the profile's in-trace / global-hit / global-miss counts agree *)
  let gen_events =
    let open QCheck.Gen in
    let block =
      map2
        (fun start insns -> Pc_trace.Block { start; insns })
        (int_range 0 0xFFFF) (int_range 0 4)
    in
    let ev =
      frequency
        [ (6, block);
          (1, map (fun asid -> Pc_trace.Switch { asid }) (int_range 0 3));
          (1, map (fun asid -> Pc_trace.Invalidate { asid }) (int_range 0 3));
          (1, return Pc_trace.Interrupt) ]
    in
    list_size (int_range 0 120) ev
  in
  QCheck.Test.make ~name:"tier counters sum to blocks replayed" ~count:30
    (QCheck.make gen_events) (fun events ->
      let s = bytes_of_events events in
      let blocks = count_blocks s in
      let image = fixture_tuned () in
      let installed, (p, snap) =
        with_tierstat (fun () -> offline_of_bytes image s)
      in
      let state_sums = Array.make Tierstat.n_tiers 0 in
      List.iter
        (fun (_, row) ->
          Array.iteri (fun t v -> state_sums.(t) <- state_sums.(t) + v) row)
        snap.Tierstat.ts_states;
      let from_profile = Array.make Tierstat.n_tiers 0 in
      from_profile.(Tierstat.t_hash) <- p.Profile.global_hits;
      from_profile.(Tierstat.t_miss) <- p.Profile.global_misses;
      from_profile.(Tierstat.t_compiled) <- p.Profile.in_trace_hits;
      Tierstat.total snap = blocks
      && state_sums = snap.Tierstat.ts_totals
      && installed.Tierstat.ts_totals = snap.Tierstat.ts_totals
      && from_profile = snap.Tierstat.ts_totals)

let test_feeder_feed_tiers () =
  (* event-at-a-time feeding ({!Packed.step}) and the batching feeder
     (the compiled closures, chain matchers included) attribute every
     block to the same source state and the same in-trace / hash / miss
     resolution, on flat, repacked and fused images *)
  let evs = List.concat_map stamped_of_bytes (mixed_streams ()) in
  let fused () = Tea_opt.Fuse.fuse (fixture_repacked ()) in
  check Alcotest.bool "fixture fuses" true (Packed.is_fused (fused ()));
  List.iter
    (fun image_of ->
      let image = image_of () in
      let fed =
        let m = Multi.create (fun _ -> compiled image) in
        List.iter (fun (asid, ev) -> Multi.feed m ~asid ev) evs;
        multi_tiers image m
      in
      let batched =
        let m = Multi.create (fun _ -> compiled image) in
        let f = Multi.feeder ~buf:3 m in
        List.iter (fun (asid, ev) -> Multi.feeder_feed f ~asid ev) evs;
        Multi.feeder_flush f;
        multi_tiers image m
      in
      check tierstat "feeder == feed" fed batched)
    [ fixture_packed; fixture_repacked; fused ]

(* The tier oracle: step the image one block at a time, classify each
   step by the {!Packed.stats} counter it moved, and charge it to the
   original id of the state it stepped from. At [swap_at] it crosses to
   the other layout as {!Replayer.rebind} does. *)
let oracle_tiers (from_img, to_img) ~swap_at starts =
  let module T = Tea_core.Transition in
  let rows = Hashtbl.create 16 in
  let img = ref (Packed.dup from_img) in
  let counts = Array.make (Packed.n_counters from_img) 0 in
  let state = ref Tea_core.Automaton.nte in
  Array.iteri
    (fun i pc ->
      if i = swap_at then begin
        let o = Packed.orig_state !img !state in
        img := Packed.dup to_img;
        state := Packed.slot_of_state !img o
      end;
      let st = Packed.stats !img in
      let hits = st.T.in_trace_hits and ghits = st.T.global_hits in
      let src = Packed.orig_state !img !state in
      state := Packed.step !img counts !state pc;
      let tier =
        if st.T.in_trace_hits > hits then Tierstat.t_compiled
        else if st.T.global_hits > ghits then Tierstat.t_hash
        else Tierstat.t_miss
      in
      let row =
        match Hashtbl.find_opt rows src with
        | Some r -> r
        | None ->
            let r = Array.make Tierstat.n_tiers 0 in
            Hashtbl.add rows src r;
            r
      in
      row.(tier) <- row.(tier) + 1)
    starts;
  let ts_states =
    Hashtbl.fold (fun st row acc -> (st, row) :: acc) rows []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let ts_totals = Array.make Tierstat.n_tiers 0 in
  List.iter
    (fun (_, row) -> Array.iteri (fun t v -> ts_totals.(t) <- ts_totals.(t) + v) row)
    ts_states;
  { Tierstat.ts_totals; ts_states }

let oracle_addrs = [| 0x100; 0x200; 0x300; 0x400; 0x300; 0x900; 0x5000 |]

(* flat, repacked and fused layouts tuned on a stream where the second
   trace is hot, so repacking really renumbers states *)
let oracle_ladder () =
  let flat = fixture_packed () in
  let skewed =
    Array.init 70 (fun i ->
        List.nth [ 0x100; 0x200; 0x300; 0x400; 0x300; 0x400; 0x300 ] (i mod 7))
  in
  let len = Array.length skewed in
  let repacked = Repack.repack flat (Repack.collect flat skewed ~len) in
  [| flat; repacked; Tea_opt.Fuse.fuse repacked |]

let test_oracle_ladder () =
  let l = oracle_ladder () in
  check Alcotest.bool "the repacked layout renumbers states" true
    (List.exists
       (fun s -> Packed.orig_state l.(1) s <> s)
       (List.init (Packed.n_slots l.(1)) Fun.id));
  check Alcotest.bool "the fused layout has chains" true (Packed.is_fused l.(2))

let prop_tier_oracle =
  QCheck.Test.make
    ~name:"of_counters == step oracle, across seams and a rebind" ~count:200
    (QCheck.make
       QCheck.Gen.(
         quad
           (list_size (int_range 1 150) (int_range 0 1000))
           (list_size (int_range 0 6) (int_range 0 1000))
           (int_range 0 1000)
           (pair (int_range 0 2) (int_range 0 2))))
    (fun (picks, rawseams, rawswap, (from_i, to_i)) ->
      let starts =
        Array.of_list
          (List.map (fun i -> oracle_addrs.(i mod Array.length oracle_addrs)) picks)
      in
      let len = Array.length starts in
      let insns = Array.make len 1 in
      let ladder = oracle_ladder () in
      let swap_at = rawswap mod (len + 1) in
      let seams =
        List.sort_uniq compare
          (swap_at :: List.map (fun c -> c mod (len + 1)) rawseams)
      in
      let rep = compiled ladder.(from_i) in
      let pos = ref 0 in
      List.iter
        (fun hi ->
          Replayer.feed_run rep ~off:!pos ~insns starts ~len:(hi - !pos);
          pos := hi;
          if hi = swap_at then
            Replayer.rebind rep
              (Replayer.Compiled
                 (Tea_core.Compiled.of_packed (Packed.dup ladder.(to_i)))))
        (seams @ [ len ]);
      Tierstat.equal (Replayer.tiers rep)
        (oracle_tiers (ladder.(from_i), ladder.(to_i)) ~swap_at starts))

let test_one_counter_per_block () =
  (* a hash-hit step and a hash-miss step each change exactly one
     counter by one, on the step path and in a compiled batch alike *)
  let image = fixture_packed () in
  let h1 = Option.get (Packed.head_of image 0x100) in
  let changed before after =
    List.filter
      (fun i -> before.(i) <> after.(i))
      (List.init (Array.length before) Fun.id)
    |> List.map (fun i -> after.(i) - before.(i))
  in
  let counters rep =
    let acc = Array.make (Packed.n_counters image) 0 in
    Replayer.add_edge_counts rep acc;
    acc
  in
  List.iter
    (fun (what, src, pc) ->
      let step = Packed.dup image in
      let c = Array.make (Packed.n_counters step) 0 in
      ignore (Packed.step step c src pc);
      check Alcotest.(list int) ("step: " ^ what) [ 1 ]
        (changed (Array.make (Array.length c) 0) c);
      let rep = compiled image in
      Replayer.set_state rep src;
      let before = counters rep in
      Replayer.feed_run rep [| pc |] ~len:1;
      check Alcotest.(list int) ("compiled: " ^ what) [ 1 ]
        (changed before (counters rep)))
    [ ("hash hit", Tea_core.Automaton.nte, 0x100);
      ("hash miss", h1, 0x9999);
      ("hash hit from a trace", h1, 0x400) ]

(* ---------------- the live gate ---------------- *)

(* Serve [streams] sequentially through a live daemon with a drift
   comparator attached; scrape before the first session and after the
   last, and read the tiers and the offline exposition after the driver
   returned. *)
let serve_observed ~jobs ~image ~drift streams =
  let srv = Server.create ~jobs ~image ~drift (Frame.Unix_sock (sock_path ())) in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run srv) in
  let first = Client.scrape (Server.addr srv) in
  List.iter
    (fun s -> ignore (Client.replay_string ~chunk:7 (Server.addr srv) s))
    streams;
  let last = Client.scrape (Server.addr srv) in
  Server.stop srv;
  Domain.join driver;
  let expo = Server.exposition srv in
  ( Server.tiers srv,
    first,
    last,
    expo,
    Server.drift_distance srv,
    Server.metrics srv,
    Server.completed srv,
    Server.disconnected srv )

let test_live_equals_offline () =
  List.iter
    (fun image_of ->
      let streams = mixed_streams () in
      let blocks_expected =
        List.fold_left (fun acc s -> acc + count_blocks s) 0 streams
      in
      let ref_image = image_of () in
      let offline = List.map (offline_of_bytes ref_image) streams in
      let offline_fleet = Profile.merge_all (List.map fst offline) in
      let offline_snap = Tierstat.merge_all (List.map snd offline) in
      check Alcotest.int "offline tier sum == blocks" blocks_expected
        (Tierstat.total offline_snap);
      List.iter
        (fun jobs ->
          let image = image_of () in
          (* tune the comparator to the very profile this fleet will
             produce: the live gauge must come back exactly zero *)
          let drift = Drift.create offline_fleet.Profile.counts in
          let live_snap, first, last, expo, dd, m, completed, disconnected =
            serve_observed ~jobs ~image ~drift streams
          in
          check tierstat
            (Printf.sprintf "live tiers == offline (jobs %d)" jobs)
            offline_snap live_snap;
          check Alcotest.string "post-run scrape == exposition" expo last;
          check Alcotest.bool "pre-run scrape differs" true (first <> last);
          (match dd with
          | Some (d, th) ->
              check feps "drift gauge is zero against its own fleet" 0.0 d;
              check feps "threshold" Drift.default_threshold th
          | None -> Alcotest.fail "drift_distance expected");
          check Alcotest.bool "tier family exposed" true
            (contains last "tea_dispatch_tier_total{tier=\"compiled\"}");
          check Alcotest.bool "drift gauge exposed" true
            (contains last "tea_drift_l1 0\n");
          check Alcotest.bool "session histograms exposed" true
            (contains last "tea_histogram_bucket{name=\"serve_session_blocks\"");
          check Alcotest.int "completed" (List.length streams) completed;
          check Alcotest.int "scrapes are not disconnects" 0 disconnected;
          check
            Alcotest.(option int)
            "blocks counter" (Some blocks_expected)
            (Metrics.find_counter m "serve.blocks");
          check
            Alcotest.(option int)
            "sessions_completed"
            (Some (List.length streams))
            (Metrics.find_counter m "serve.sessions_completed"))
        [ 1; 2; 4 ])
    [ fixture_packed; fixture_tuned ]

let test_scrape_not_a_session () =
  (* scrapes must not count toward until_sessions, completions or
     disconnects, and must render even before any session arrived *)
  let image = fixture_packed () in
  let streams = mixed_streams () in
  let srv = Server.create ~jobs:2 ~image (Frame.Unix_sock (sock_path ())) in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run ~until_sessions:2 srv) in
  let s0 = Client.scrape (Server.addr srv) in
  check Alcotest.bool "cold scrape renders the tier family" true
    (contains s0 "tea_dispatch_tier_total{tier=\"miss\"} 0");
  ignore (Client.replay_string (Server.addr srv) (List.nth streams 0));
  let s1 = Client.scrape (Server.addr srv) in
  check Alcotest.bool "mid-run scrape sees the first session" true
    (contains s1 "tea_counter{name=\"serve_sessions_completed\"} 1");
  ignore (Client.replay_string (Server.addr srv) (List.nth streams 1));
  (* until_sessions = 2: the two scrapes did not count, so the driver
     returns exactly now *)
  Domain.join driver;
  check Alcotest.int "completed" 2 (Server.completed srv);
  check Alcotest.int "no disconnects" 0 (Server.disconnected srv)

let test_daemon_events () =
  (* the daemon's JSONL stream: open/close per completed session,
     open/abort for a rude client, seqs dense and in order *)
  let image = fixture_packed () in
  with_tmp ".jsonl" @@ fun path ->
  let events = Events.open_file ~clock:(fun () -> 1.5) path in
  let srv = Server.create ~jobs:2 ~image ~events (Frame.Unix_sock (sock_path ())) in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run ~until_sessions:3 srv) in
  let s = List.hd (mixed_streams ()) in
  ignore (Client.replay_string (Server.addr srv) s);
  ignore (Client.replay_string (Server.addr srv) s);
  (match Client.replay_string (Server.addr srv) "FOOBARBAZ" with
  | _ -> Alcotest.fail "corrupt stream must be rejected"
  | exception Client.Server_error _ -> ());
  Domain.join driver;
  Events.close events;
  let lines = String.split_on_char '\n' (String.trim (read_file path)) in
  let kind_of line =
    match String.index_opt line ':' with
    | None -> "?"
    | Some _ ->
        (* {"seq":N,"ts":T,"event":"kind",...} *)
        let marker = "\"event\":\"" in
        let rec find i =
          if i + String.length marker > String.length line then "?"
          else if String.sub line i (String.length marker) = marker then begin
            let start = i + String.length marker in
            let stop = String.index_from line start '"' in
            String.sub line start (stop - start)
          end
          else find (i + 1)
        in
        find 0
  in
  check
    Alcotest.(list string)
    "event kinds in order"
    [ "session_open"; "session_close"; "session_open"; "session_close";
      "session_open"; "session_abort" ]
    (List.map kind_of lines);
  List.iteri
    (fun i line ->
      let prefix = Printf.sprintf "{\"seq\":%d,\"ts\":1.500000," i in
      check Alcotest.bool
        (Printf.sprintf "line %d has a dense seq and the fixed clock" i)
        true
        (String.length line >= String.length prefix
        && String.sub line 0 (String.length prefix) = prefix))
    lines

let () =
  Alcotest.run "tea_observe"
    [
      ( "drift",
        [
          Alcotest.test_case "zero on identical profiles" `Quick test_drift_zero;
          Alcotest.test_case "two on disjoint supports" `Quick
            test_drift_disjoint;
          Alcotest.test_case "empty live" `Quick test_drift_empty_live;
          Alcotest.test_case "monotone under mass shift" `Quick
            test_drift_monotone;
          Alcotest.test_case "threshold edge" `Quick test_drift_threshold;
          Alcotest.test_case "input hygiene" `Quick test_drift_inputs;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "empty" `Quick test_quantile_empty;
          Alcotest.test_case "exact on bucket bounds" `Quick test_quantile_exact;
          Alcotest.test_case "clamping" `Quick test_quantile_clamp;
          qtest prop_quantile_monotone;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "sanitize_name" `Quick test_sanitize_name;
          Alcotest.test_case "escape_label" `Quick test_escape_label;
          Alcotest.test_case "deterministic render" `Quick
            test_exposition_render;
        ] );
      ( "events",
        [ Alcotest.test_case "JSONL golden" `Quick test_events_golden ] );
      ( "teaep",
        [
          Alcotest.test_case "TEAEP1 round-trip" `Quick test_teaep_roundtrip;
          qtest prop_teaep_hostile;
        ] );
      ( "tiers",
        [
          qtest prop_tier_sum;
          Alcotest.test_case "feeder == feed attribution" `Quick
            test_feeder_feed_tiers;
          Alcotest.test_case "oracle layouts differ" `Quick test_oracle_ladder;
          qtest prop_tier_oracle;
          Alcotest.test_case "one counter per resolved block" `Quick
            test_one_counter_per_block;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "gate: live == offline, scrape == exposition"
            `Quick test_live_equals_offline;
          Alcotest.test_case "scrapes are pure observers" `Quick
            test_scrape_not_a_session;
          Alcotest.test_case "JSONL event stream" `Quick test_daemon_events;
        ] );
    ]

(* Differential tests of the packed flat-array image — stepped one address
   at a time ({!Packed.step}) and batch-replayed through the compiled
   engine — against the reference Transition engine: same DFA, two
   implementations. Replay over the packed image must reproduce the
   reference engine's state sequences, coverage and profiles bit-for-bit
   on arbitrary automata and address streams — that equivalence is what
   makes the fast path trustworthy. *)

open Tea_isa
module I = Insn
module Block = Tea_cfg.Block
module Trace = Tea_traces.Trace
module Automaton = Tea_core.Automaton
module Builder = Tea_core.Builder
module Transition = Tea_core.Transition
module Packed = Tea_core.Packed
module Compiled = Tea_core.Compiled
module Replayer = Tea_core.Replayer
module Serialize = Tea_core.Serialize
module Pc_trace = Tea_core.Pc_trace
module Repack = Tea_opt.Repack
module Fuse = Tea_opt.Fuse

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let block_at addr = Block.make Block.Branch [ (addr, I.Jmp (I.Abs 0)) ]

(* A compiled-engine replayer over [img] (stats derive from its own
   counters). *)
let compiled img = Replayer.create_compiled (Compiled.of_packed img)

(* Fixtures shared with test_core: T1 cycles 0x100->0x200->0x300->0x100,
   T2 chains 0x400->0x300 (0x300 duplicated across traces). *)
let t1 =
  Trace.linear ~id:0 ~kind:"test" ~cycle:true
    [ block_at 0x100; block_at 0x200; block_at 0x300 ]

let t2 = Trace.linear ~id:1 ~kind:"test" [ block_at 0x400; block_at 0x300 ]

(* ---------------- Random workload generation ---------------- *)

(* A pool of block addresses; streams also draw from the tail addresses no
   trace ever contains, to exercise the NTE miss path. *)
let pool_size = 16

let pool i = 0x1000 + (0x10 * (i mod (pool_size + 4)))

(* A generated trace: up to 6 TBBs over the pool, each state with up to 3
   in-trace successors (deduplicated by label so the automaton stays
   deterministic). Multi-successor states give the packed engine spans
   longer than one entry — the binary search actually searches. *)
let gen_trace id rand =
  let open QCheck.Gen in
  let n = int_range 1 6 rand in
  let idxs = Array.init n (fun _ -> int_range 0 (pool_size - 1) rand) in
  let blocks = Array.map (fun i -> block_at (pool i)) idxs in
  let succs =
    Array.init n (fun _ ->
        let k = int_range 0 3 rand in
        let chosen = List.init k (fun _ -> int_range 0 (n - 1) rand) in
        (* one successor per distinct label (= target block start) *)
        let seen = Hashtbl.create 4 in
        List.filter
          (fun j ->
            let label = pool idxs.(j) in
            if Hashtbl.mem seen label then false
            else begin
              Hashtbl.add seen label ();
              true
            end)
          chosen)
  in
  Trace.make ~id ~kind:"gen" blocks succs

type workload = {
  w_traces : Trace.t list;
  w_stream : (int * int) list; (* (address, insns) *)
  w_config : int;
}

let gen_workload =
  let open QCheck.Gen in
  let gen rand =
    let n_traces = int_range 1 5 rand in
    let w_traces = List.init n_traces (fun id -> gen_trace id rand) in
    let n_steps = int_range 0 200 rand in
    let w_stream =
      List.init n_steps (fun _ ->
          (pool (int_range 0 (pool_size + 3) rand), int_range 0 4 rand))
    in
    { w_traces; w_stream; w_config = int_range 0 2 rand }
  in
  QCheck.make
    ~print:(fun w ->
      Printf.sprintf "traces=%d stream=%d config=%d"
        (List.length w.w_traces) (List.length w.w_stream) w.w_config)
    gen

let config_of = function
  | 0 -> Transition.config_global_local
  | 1 -> Transition.config_global_no_local
  | _ -> Transition.config_no_global_local

type observation = {
  o_states : Automaton.state list;
  o_covered : int;
  o_total : int;
  o_enters : int;
  o_exits : int;
  o_counts : (Automaton.state * int) list;
  o_stats : int * int * int * int * int;
}

let observe rep stream feed =
  let states = List.map (fun (addr, insns) -> feed rep addr insns) stream in
  let st = Replayer.stats rep in
  {
    o_states = states;
    o_covered = Replayer.covered_insns rep;
    o_total = Replayer.total_insns rep;
    o_enters = Replayer.trace_enters rep;
    o_exits = Replayer.trace_exits rep;
    o_counts = Replayer.tbb_counts rep;
    o_stats =
      ( st.Transition.steps,
        st.Transition.in_trace_hits,
        st.Transition.cache_hits,
        st.Transition.global_hits,
        st.Transition.global_misses );
  }

let feed_one rep addr insns =
  Replayer.feed_addr rep ~insns addr;
  Replayer.state rep

(* The differential property: reference and packed-image replays of the
   same workload agree on every observable. *)
let prop_packed_equals_reference =
  QCheck.Test.make ~name:"packed replay == reference replay" ~count:300
    gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      if Automaton.check_deterministic auto <> Ok () then
        QCheck.Test.fail_report "generated automaton not deterministic";
      let reference =
        observe
          (Replayer.create (Transition.create (config_of w.w_config) auto))
          w.w_stream feed_one
      in
      let packed_img = Packed.freeze auto in
      let packed =
        observe (compiled packed_img) w.w_stream feed_one
      in
      let rs, ri, rc, rg, rm = reference.o_stats in
      let ps, pi, pc, pg, pm = packed.o_stats in
      reference.o_states = packed.o_states
      && reference.o_covered = packed.o_covered
      && reference.o_total = packed.o_total
      && reference.o_enters = packed.o_enters
      && reference.o_exits = packed.o_exits
      && reference.o_counts = packed.o_counts
      && rs = ps && ri = pi && rm = pm
      (* packed has no local caches: cross-trace resolutions the reference
         engine splits between cache and container all land in global_hits *)
      && pc = 0
      && pg = rc + rg
      && Packed.check packed_img auto = Ok ())

(* Round-tripping the packed image through bytes must not change replay
   behaviour in any observable way. *)
let prop_serialized_packed_equals_fresh =
  QCheck.Test.make ~name:"packed_of_binary(packed_to_binary) replays identically"
    ~count:100 gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      let packed = Packed.freeze auto in
      let loaded = Serialize.packed_of_binary (Serialize.packed_to_binary packed) in
      let a = observe (compiled packed) w.w_stream feed_one in
      let b = observe (compiled loaded) w.w_stream feed_one in
      a = b
      && Packed.n_states loaded = Packed.n_states packed
      && Packed.n_edges loaded = Packed.n_edges packed
      && Packed.n_heads loaded = Packed.n_heads packed)

(* Batched feed_run must be exactly len feed_addr calls, on both engines. *)
let prop_feed_run_equals_feed_addr =
  QCheck.Test.make ~name:"feed_run == repeated feed_addr" ~count:100
    gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      let addrs = Array.of_list (List.map fst w.w_stream) in
      let insns = Array.of_list (List.map snd w.w_stream) in
      let len = Array.length addrs in
      let engines =
        [
          (fun () -> Replayer.create (Transition.create (config_of w.w_config) auto));
          (fun () -> compiled (Packed.freeze auto));
        ]
      in
      List.for_all
        (fun mk ->
          let one = mk () in
          List.iter (fun (addr, ins) -> Replayer.feed_addr one ~insns:ins addr) w.w_stream;
          let batched = mk () in
          Replayer.feed_run batched ~insns addrs ~len;
          let s1 = Replayer.stats one and s2 = Replayer.stats batched in
          Replayer.state one = Replayer.state batched
          && Replayer.coverage one = Replayer.coverage batched
          && Replayer.tbb_counts one = Replayer.tbb_counts batched
          && Replayer.trace_enters one = Replayer.trace_enters batched
          && Replayer.trace_exits one = Replayer.trace_exits batched
          (* the compiled batch captures the step costs at build time, so
             the simulated cost accounting must agree exactly too *)
          && s1.Transition.steps = s2.Transition.steps
          && s1.Transition.in_trace_hits = s2.Transition.in_trace_hits
          && s1.Transition.cache_hits = s2.Transition.cache_hits
          && s1.Transition.global_hits = s2.Transition.global_hits
          && s1.Transition.global_misses = s2.Transition.global_misses
          && Replayer.cycles one = Replayer.cycles batched)
        engines)

(* ---------------- Freeze / layout unit tests ---------------- *)

let test_freeze_shape () =
  let auto = Builder.build [ t1; t2 ] in
  let p = Packed.freeze auto in
  check Alcotest.int "live states" (Automaton.n_states auto) (Packed.n_states p);
  (* n_transitions counts NTE->head entries too; packed keeps those in the
     hash, not the edge spans *)
  check Alcotest.int "in-trace edges" 4 (Packed.n_edges p);
  check Alcotest.int "heads" 2 (Packed.n_heads p);
  check Alcotest.(option int) "head 0x100" (Automaton.head_of auto 0x100)
    (Packed.head_of p 0x100);
  check Alcotest.(option int) "head 0x400" (Automaton.head_of auto 0x400)
    (Packed.head_of p 0x400);
  check Alcotest.(option int) "head miss" None (Packed.head_of p 0x999);
  check Alcotest.bool "self-check" true (Packed.check p auto = Ok ());
  let r = Packed.to_raw p in
  check Alcotest.int "offsets cover edges"
    (Array.length r.Packed.labels)
    r.Packed.offsets.(Array.length r.Packed.offsets - 1);
  (* NTE (state 0) has an empty span: its transitions live in the hash *)
  check Alcotest.int "nte span empty" 0 r.Packed.offsets.(1)

let test_step_matches_reference_fixture () =
  let auto = Builder.build [ t1; t2 ] in
  let p = Packed.freeze auto in
  let c = Array.make (Packed.n_counters p) 0 in
  let cy = ref 0 in
  let h1 = Option.get (Automaton.head_of auto 0x100) in
  check Alcotest.int "enter t1" h1 (Packed.step p c cy Automaton.nte 0x100);
  let s2 = Option.get (Automaton.next_in_trace auto h1 0x200) in
  check Alcotest.int "in-trace" s2 (Packed.step p c cy h1 0x200);
  (* trace-to-trace transfer goes through the hash *)
  let h2 = Option.get (Automaton.head_of auto 0x400) in
  check Alcotest.int "cross-trace" h2 (Packed.step p c cy h1 0x400);
  check Alcotest.int "cold pc to NTE" Automaton.nte
    (Packed.step p c cy h1 0x9999);
  (* one counter per step: the in-trace edge, the source's hash hit, or
     its hash miss *)
  let sum = Array.fold_left ( + ) 0 in
  check Alcotest.int "one counter per step" 4 (sum c);
  let ep = Packed.edge_profile p c in
  check Alcotest.int "edge visits" 4 (sum ep.Packed.visits);
  check Alcotest.int "edges taken" 1 (sum ep.Packed.taken);
  check Alcotest.int "span misses" 3 (sum ep.Packed.misses);
  let ne = Packed.n_edges p and n = Packed.n_slots p in
  let block base =
    List.filter (fun (_, v) -> v > 0) (List.init n (fun o -> (o, c.(base + o))))
  in
  check Alcotest.(list (pair int int)) "hash hits by source"
    [ (Automaton.nte, 1); (h1, 1) ] (block ne);
  check Alcotest.(list (pair int int)) "hash misses by source" [ (h1, 1) ]
    (block (ne + n));
  check Alcotest.bool "cycles charged" true (!cy > 0);
  (* the same four steps through a replayer over the image: its stats
     are derived from its own counters, its cycles are its own *)
  let r = compiled p in
  Replayer.feed_addr r 0x100;
  Replayer.feed_addr r 0x200;
  Replayer.set_state r h1;
  Replayer.feed_addr r 0x400;
  Replayer.set_state r h1;
  Replayer.feed_addr r 0x9999;
  let st = Replayer.stats r in
  check Alcotest.int "steps" 4 st.Transition.steps;
  check Alcotest.int "in-trace hits" 1 st.Transition.in_trace_hits;
  check Alcotest.int "global hits" 2 st.Transition.global_hits;
  check Alcotest.int "misses" 1 st.Transition.global_misses;
  check Alcotest.int "no caches" 0 st.Transition.cache_hits;
  check Alcotest.int "replayer cycles" !cy (Replayer.cycles r);
  let total = Array.make (Packed.n_counters p) 0 in
  Replayer.add_edge_counts r total;
  check Alcotest.(array int) "replayer counters" c total;
  (* nothing lives on the image: a fresh replayer over it reads zero *)
  let fresh = compiled p in
  check Alcotest.int "reset" 0 (Replayer.stats fresh).Transition.steps;
  check Alcotest.int "reset cycles" 0 (Replayer.cycles fresh)

let test_stale_after_mutation () =
  let auto = Builder.build [ t1 ] in
  let p = Packed.freeze auto in
  check Alcotest.bool "fresh" true (Packed.check p auto = Ok ());
  Automaton.add_trace auto t2;
  check Alcotest.bool "stale detected" true (Packed.check p auto <> Ok ());
  (* re-freezing picks the new trace up *)
  let p' = Packed.freeze auto in
  check Alcotest.bool "refrozen" true (Packed.check p' auto = Ok ());
  check Alcotest.bool "new head visible" true (Packed.head_of p' 0x400 <> None)

let test_step_bad_state () =
  let p = Packed.freeze (Builder.build [ t1 ]) in
  let c = Array.make (Packed.n_counters p) 0 in
  Alcotest.check_raises "way out of range"
    (Invalid_argument "Packed.step: state id outside the frozen image")
    (fun () -> ignore (Packed.step p c (ref 0) 9999 0x100));
  Alcotest.check_raises "negative"
    (Invalid_argument "Packed.step: state id outside the frozen image")
    (fun () -> ignore (Packed.step p c (ref 0) (-1) 0x100))

let test_empty_automaton () =
  let p = Packed.freeze (Automaton.create ()) in
  check Alcotest.int "no states" 0 (Packed.n_states p);
  check Alcotest.int "no edges" 0 (Packed.n_edges p);
  check Alcotest.int "no heads" 0 (Packed.n_heads p);
  check Alcotest.int "everything is NTE" Automaton.nte
    (Packed.step p (Array.make (Packed.n_counters p) 0) (ref 0) Automaton.nte
       0x100);
  let r = compiled p in
  Replayer.feed_addr r 0x100;
  check Alcotest.int "miss counted" 1 (Replayer.stats r).Transition.global_misses

let test_state_insns () =
  let auto = Builder.build [ t1 ] in
  let p = Packed.freeze auto in
  let h = Option.get (Automaton.head_of auto 0x100) in
  check Alcotest.int "head insns" 1 (Packed.state_insns p h);
  check Alcotest.int "nte insns" 0 (Packed.state_insns p Automaton.nte);
  check Alcotest.int "out of range" 0 (Packed.state_insns p 12345)

(* ---------------- Replayer fast path ---------------- *)

let test_feed_run_validation () =
  let rep = compiled (Packed.freeze (Builder.build [ t1 ])) in
  let addrs = [| 0x100; 0x200 |] in
  Alcotest.check_raises "len too large"
    (Invalid_argument "Replayer.feed_run: len out of range") (fun () ->
      Replayer.feed_run rep addrs ~len:3);
  Alcotest.check_raises "negative len"
    (Invalid_argument "Replayer.feed_run: len out of range") (fun () ->
      Replayer.feed_run rep addrs ~len:(-1));
  Alcotest.check_raises "short insns"
    (Invalid_argument "Replayer.feed_run: insns array shorter than len")
    (fun () -> Replayer.feed_run rep ~insns:[| 1 |] addrs ~len:2);
  (* a len prefix is allowed *)
  Replayer.feed_run rep addrs ~len:1;
  check Alcotest.int "one step" 1 (Replayer.stats rep).Transition.steps

let test_packed_replayer_profile () =
  (* mirror of test_core's replayer profile test, on the compiled engine *)
  let auto = Builder.build [ t1 ] in
  let rep = compiled (Packed.freeze auto) in
  let addrs = [| 0x100; 0x200; 0x300; 0x100; 0x200; 0x300; 0x999 |] in
  Replayer.feed_run rep ~insns:(Array.make 7 1) addrs ~len:7;
  check Alcotest.int "covered" 6 (Replayer.covered_insns rep);
  check Alcotest.int "total" 7 (Replayer.total_insns rep);
  check Alcotest.int "one enter" 1 (Replayer.trace_enters rep);
  check Alcotest.int "one exit" 1 (Replayer.trace_exits rep);
  check Alcotest.(list (pair int int)) "per-tbb counts"
    [ (0, 2); (1, 2); (2, 2) ]
    (Replayer.trace_profile rep 0)

let test_transition_accessor_raises () =
  let rep = compiled (Packed.freeze (Builder.build [ t1 ])) in
  Alcotest.check_raises "no reference engine"
    (Invalid_argument "Replayer.transition: compiled engine") (fun () ->
      ignore (Replayer.transition rep))

(* A workload's mret automaton and its captured PC trace file. *)
let capture_workload img =
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy img in
  let auto = Builder.build (Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set) in
  let path = Filename.temp_file "tea_pk" ".trc" in
  let n = Tea_pinsim.Trace_capture.record img path in
  (auto, path, n)

(* [path] streamed through Shard.replay_pc_trace over a dup of [image] *)
let streamed image path =
  fst
    (Tea_parallel.Pool.with_pool ~jobs:1 (fun pool ->
         Tea_parallel.Shard.replay_pc_trace pool image path))

(* Chunked replay of [path] must equal one whole-array feed_run over a
   flat and a tuned (repacked, then fused) image alike: the 4096-block
   chunk cuts must be invisible, including where they land inside a
   fused chain. *)
let check_chunked_equals_whole name auto path =
  let starts, insns, len = Tea_parallel.Shard.load_pc_trace path in
  check Alcotest.bool (name ^ ": several chunks") true (len > 2 * 4096);
  let flat = Packed.freeze auto in
  let repacked =
    Tea_opt.Repack.repack flat (Tea_opt.Repack.collect flat starts ~len)
  in
  let tuned =
    Tea_opt.Fuse.fuse
      ~profile:(Tea_opt.Repack.collect repacked starts ~len)
      repacked
  in
  List.iter
    (fun (kind, image) ->
      let chunked = streamed image path in
      let whole = compiled image in
      Replayer.feed_run whole ~insns starts ~len;
      check Alcotest.bool
        (Printf.sprintf "%s %s: chunked replay == whole-array feed_run" name
           kind)
        true
        (Tea_parallel.Profile.equal chunked
           (Tea_parallel.Profile.of_replayer whole)))
    [ ("flat", flat); ("tuned", tuned) ];
  tuned

let test_pc_trace_replay_packed () =
  (* capture a real execution once; offline chunked replay must match the
     offline reference replay on every observable *)
  let auto, path, n = capture_workload (Tea_workloads.Micro.list_scan ()) in
  check Alcotest.bool "captured blocks" true (n > 1000);
  let reference =
    Pc_trace.replay (Transition.create Transition.config_global_local auto) path
  in
  let packed = streamed (Packed.freeze auto) path in
  ignore (check_chunked_equals_whole "listscan" auto path);
  Sys.remove path;
  (* profile-gated fusion keeps no listscan chain; micro:nested's inner
     loop fuses *)
  let nested, nested_path, _ =
    capture_workload (Tea_workloads.Micro.nested_loop ())
  in
  let tuned = check_chunked_equals_whole "nested" nested nested_path in
  Sys.remove nested_path;
  check Alcotest.bool "nested tuned image is fused" true (Packed.is_fused tuned);
  let reference = Tea_parallel.Profile.of_replayer reference in
  check (Alcotest.float 0.0) "coverage"
    (Tea_parallel.Profile.coverage reference)
    (Tea_parallel.Profile.coverage packed);
  check Alcotest.int "enters" reference.enters packed.enters;
  check Alcotest.int "exits" reference.exits packed.exits;
  check Alcotest.(list (pair int int)) "profiles" reference.counts packed.counts;
  check Alcotest.int "steps" reference.steps packed.steps

(* ---------------- Serialization ---------------- *)

let test_packed_binary_header () =
  let p = Packed.freeze (Builder.build [ t1; t2 ]) in
  let bin = Serialize.packed_to_binary p in
  check Alcotest.string "magic" "TEAPK1" (String.sub bin 0 6);
  let p' = Serialize.packed_of_binary bin in
  check Alcotest.bool "no automaton behind a loaded image" true
    (Packed.automaton p' = None);
  check Alcotest.bool "frozen image keeps its automaton" true
    (Packed.automaton p <> None)

let test_packed_binary_rejects_garbage () =
  let reject s =
    try
      ignore (Serialize.packed_of_binary s);
      Alcotest.failf "accepted %S" s
    with Serialize.Parse_error _ -> ()
  in
  reject "";
  reject "garbage";
  reject "TEAPK1";
  (* truncated: valid magic, then a length with no payload *)
  reject "TEAPK1\xff\xff\xff\x7f";
  (* trailing bytes after a valid image *)
  let good = Serialize.packed_to_binary (Packed.freeze (Builder.build [ t1 ])) in
  reject (good ^ "\x00")

(* TEAPK1 bytes for an arbitrary raw image, bypassing the writer (which
   only ever sees images [of_raw] already accepted): the magic, then nine
   u32-length-prefixed u32 arrays. *)
let teapk1_of_raw (r : Packed.raw) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "TEAPK1";
  let u32 v = Buffer.add_int32_le buf (Int32.of_int v) in
  List.iter
    (fun a ->
      u32 (Array.length a);
      Array.iter u32 a)
    Packed.
      [
        r.offsets;
        r.labels;
        r.targets;
        r.state_trace;
        r.state_tbb;
        r.state_start;
        r.state_insns;
        r.hash_keys;
        r.hash_vals;
      ];
  Buffer.contents buf

let test_of_raw_validation () =
  let p = Packed.freeze (Builder.build [ t1; t2 ]) in
  let r = Packed.to_raw p in
  let expect_invalid name mutate =
    let copy =
      {
        Packed.offsets = Array.copy r.Packed.offsets;
        labels = Array.copy r.Packed.labels;
        targets = Array.copy r.Packed.targets;
        state_trace = Array.copy r.Packed.state_trace;
        state_tbb = Array.copy r.Packed.state_tbb;
        state_start = Array.copy r.Packed.state_start;
        state_insns = Array.copy r.Packed.state_insns;
        hash_keys = Array.copy r.Packed.hash_keys;
        hash_vals = Array.copy r.Packed.hash_vals;
        hot_len = Array.copy r.Packed.hot_len;
        orig_of = Array.copy r.Packed.orig_of;
      }
    in
    mutate copy;
    try
      ignore (Packed.of_raw copy);
      Alcotest.failf "of_raw accepted %s" name
    with Invalid_argument _ -> ()
  in
  expect_invalid "target out of range" (fun c -> c.Packed.targets.(0) <- 9999);
  expect_invalid "non-monotone offsets" (fun c ->
      c.Packed.offsets.(1) <- c.Packed.offsets.(Array.length c.Packed.offsets - 1) + 1);
  expect_invalid "hash value out of range" (fun c ->
      Array.iteri
        (fun i k -> if k >= 0 then c.Packed.hash_vals.(i) <- 9999)
        c.Packed.hash_keys);
  expect_invalid "hash table with no empty slot" (fun c ->
      Array.iteri
        (fun i _ ->
          c.Packed.hash_keys.(i) <- 0x10000 + i;
          c.Packed.hash_vals.(i) <- 1)
        c.Packed.hash_keys);
  expect_invalid "negative edge label" (fun c -> c.Packed.labels.(0) <- -1);
  (* every probe loop stops only at a match or an empty slot: a one-slot
     table holding 0x100 would spin forever on a lookup of 0x200 *)
  let full = { r with Packed.hash_keys = [| 0x100 |]; hash_vals = [| 1 |] } in
  (match Packed.of_raw full with
  | _ -> Alcotest.fail "of_raw accepted a hash table with no empty slot"
  | exception Invalid_argument _ -> ());
  (match Serialize.packed_of_binary (teapk1_of_raw full) with
  | _ -> Alcotest.fail "packed_of_binary accepted a full hash table"
  | exception Serialize.Parse_error _ -> ());
  (* an image with no slots has no NTE for replay to start in *)
  (match
     Packed.of_raw
       {
         Packed.offsets = [| 0 |];
         labels = [||];
         targets = [||];
         state_trace = [||];
         state_tbb = [||];
         state_start = [||];
         state_insns = [||];
         hash_keys = Array.make 8 (-1);
         hash_vals = Array.make 8 0;
         hot_len = [||];
         orig_of = [||];
       }
   with
  | _ -> Alcotest.fail "of_raw accepted an image with no slots"
  | exception Invalid_argument _ -> ());
  (* the untouched raw image is accepted *)
  let reloaded = Packed.of_raw r in
  check Alcotest.int "roundtrip states" (Packed.n_states p)
    (Packed.n_states reloaded)

(* ---------------- TEAPK1-3 byte fuzz ---------------- *)

(* A 3-state cycle of single-successor states: always fuses into a
   cyclic chain, so the fused flavor really writes TEAPK3. *)
let loop_trace =
  Trace.linear ~id:99 ~kind:"test" ~cycle:true
    [ block_at 0x100; block_at 0x200; block_at 0x300 ]

(* The flat (TEAPK1), repacked (TEAPK2) or repacked+fused (TEAPK3) image
   of a generated workload. *)
let fuzz_image w flavor =
  let flat = Packed.freeze (Builder.build (loop_trace :: w.w_traces)) in
  if flavor = 0 then flat
  else
    let addrs = Array.of_list (0x100 :: List.map fst w.w_stream) in
    let len = Array.length addrs in
    let tuned = Repack.repack flat (Repack.collect flat addrs ~len) in
    if flavor = 1 then tuned else Fuse.fuse ~min_chain:1 tuned

let u32_at s p =
  Char.code s.[p]
  lor (Char.code s.[p + 1] lsl 8)
  lor (Char.code s.[p + 2] lsl 16)
  lor (Char.code s.[p + 3] lsl 24)

(* Byte offsets of every array-length field of a well-formed image: after
   the magic (and TEAPK3's flags word) each array is a u32 length and
   that many u32 values. *)
let length_fields s =
  let rec go p acc =
    if p + 4 > String.length s then List.rev acc
    else go (p + 4 + (4 * u32_at s p)) (p :: acc)
  in
  go (if String.sub s 0 6 = "TEAPK3" then 10 else 6) []

type fuzz = {
  f_work : workload;
  f_flavor : int;  (** 0 flat, 1 repacked, 2 fused *)
  f_mutation : int;  (** 0 truncate, 1 flip bytes, 2 inflate a length *)
  f_picks : int list;  (** positions / values, reduced modulo the size *)
  f_seed : int;  (** replay stream *)
}

let gen_fuzz =
  let open QCheck.Gen in
  let gen rand =
    {
      f_work = QCheck.gen gen_workload rand;
      f_flavor = int_range 0 2 rand;
      f_mutation = int_range 0 2 rand;
      f_picks = list_size (int_range 2 8) (int_range 0 0x3FFFFFFF) rand;
      f_seed = int_range 0 0xFFFF rand;
    }
  in
  QCheck.make
    ~print:(fun f ->
      Printf.sprintf "flavor=%d mutation=%d picks=[%s] seed=%d" f.f_flavor
        f.f_mutation
        (String.concat ";" (List.map string_of_int f.f_picks))
        f.f_seed)
    gen

let mutate f s =
  let n = String.length s in
  let picks = Array.of_list f.f_picks in
  match f.f_mutation with
  | 0 -> String.sub s 0 (picks.(0) mod n)
  | 1 ->
      let b = Bytes.of_string s in
      for i = 0 to (Array.length picks / 2) - 1 do
        let p = picks.(2 * i) mod n in
        let x = 1 + (picks.((2 * i) + 1) mod 255) in
        Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor x))
      done;
      Bytes.to_string b
  | _ ->
      let b = Bytes.of_string s in
      let fields = Array.of_list (length_fields s) in
      let p = fields.(picks.(0) mod Array.length fields) in
      let old = u32_at s p in
      let v =
        match picks.(1) mod 4 with
        | 0 -> old + 1
        | 1 -> old + 1 + (picks.(1) / 4 mod 1000)
        | 2 -> 0x7FFFFFFF
        | _ -> 0xFFFFFFFE
      in
      Bytes.set_int32_le b p (Int32.of_int v);
      Bytes.to_string b

(* A short stream over the image's own labels and trace heads plus
   arbitrary PCs, so in-span hits, hash hits and misses all occur. *)
let fuzz_stream img seed =
  let rand = Random.State.make [| seed |] in
  let r = Packed.to_raw img in
  let heads =
    Array.of_list (List.filter (fun k -> k >= 0) (Array.to_list r.Packed.hash_keys))
  in
  let pick a =
    if Array.length a = 0 then Random.State.int rand 0x2000
    else a.(Random.State.int rand (Array.length a))
  in
  let addrs =
    Array.init 64 (fun _ ->
        match Random.State.int rand 3 with
        | 0 -> pick r.Packed.labels
        | 1 -> pick heads
        | _ -> Random.State.int rand 0x2000)
  in
  (addrs, Array.init 64 (fun _ -> Random.State.int rand 5))

(* Corrupt image bytes must surface as a typed [Parse_error]; anything
   the loader does accept must be an image both engines replay, and
   replay identically. *)
let prop_teapk_fuzz =
  QCheck.Test.make ~name:"mutated TEAPK1-3 bytes: Parse_error or replayable"
    ~count:1000 gen_fuzz (fun f ->
      let src = fuzz_image f.f_work f.f_flavor in
      (* the fused flavor really carries an overlay (TEAPK3) *)
      (f.f_flavor < 2 || Packed.is_fused src)
      &&
      match Serialize.packed_of_binary (mutate f (Serialize.packed_to_binary src)) with
      | exception Serialize.Parse_error _ -> true
      | img ->
          let addrs, insns = fuzz_stream img f.f_seed in
          let len = Array.length addrs in
          let batched = compiled img in
          Replayer.feed_run batched ~insns addrs ~len;
          let stepped = compiled img in
          Array.iteri
            (fun i a -> Replayer.feed_addr stepped ~insns:insns.(i) a)
            addrs;
          Replayer.state batched = Replayer.state stepped
          && Replayer.cycles batched = Replayer.cycles stepped
          && Replayer.tbb_counts batched = Replayer.tbb_counts stepped
          && Replayer.coverage batched = Replayer.coverage stepped)

let test_save_load_packed_file () =
  let img = Tea_workloads.Micro.branchy_loop () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy img in
  let auto = Builder.of_set dbt.Tea_dbt.Stardbt.set in
  let p = Packed.freeze auto in
  let path = Filename.temp_file "tea_pk" ".pki" in
  Serialize.save_packed path p;
  let loaded = Serialize.load_packed path in
  Sys.remove path;
  check Alcotest.int "states" (Packed.n_states p) (Packed.n_states loaded);
  check Alcotest.int "edges" (Packed.n_edges p) (Packed.n_edges loaded);
  check Alcotest.int "heads" (Packed.n_heads p) (Packed.n_heads loaded)

(* ---------------- Table 4 engine column (end to end) ---------------- *)

let test_overhead_ordering_with_compiled () =
  let p = Option.get (Tea_workloads.Spec2000.by_name "168.wupwise") in
  let img = Tea_workloads.Spec2000.image p in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy img in
  let traces = Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set in
  let row = Tea_pinsim.Overhead.measure ~traces img in
  let open Tea_pinsim.Overhead in
  (* the paper's §4.2 ordering between the reference configurations... *)
  check Alcotest.bool "Empty >= Global/Local" true (row.empty >= row.global_local);
  check Alcotest.bool "Global/Local fastest reference config" true
    (row.global_local <= row.global_no_local
    && row.global_local <= row.no_global_local);
  (* ...and the compiled engine beats the best reference configuration *)
  check Alcotest.bool "Compiled <= Global/Local" true
    (row.compiled <= row.global_local);
  check Alcotest.bool "Compiled still slower than bare Pin" true
    (row.compiled >= row.without_pintool)

let () =
  Alcotest.run "tea_packed"
    [
      ( "differential",
        [
          qtest prop_packed_equals_reference;
          qtest prop_serialized_packed_equals_fresh;
          qtest prop_feed_run_equals_feed_addr;
        ] );
      ( "freeze",
        [
          Alcotest.test_case "shape" `Quick test_freeze_shape;
          Alcotest.test_case "step fixture" `Quick test_step_matches_reference_fixture;
          Alcotest.test_case "stale check" `Quick test_stale_after_mutation;
          Alcotest.test_case "bad state" `Quick test_step_bad_state;
          Alcotest.test_case "empty automaton" `Quick test_empty_automaton;
          Alcotest.test_case "state insns" `Quick test_state_insns;
        ] );
      ( "replayer",
        [
          Alcotest.test_case "feed_run validation" `Quick test_feed_run_validation;
          Alcotest.test_case "packed profile" `Quick test_packed_replayer_profile;
          Alcotest.test_case "transition accessor" `Quick test_transition_accessor_raises;
          Alcotest.test_case "pc-trace packed replay" `Quick test_pc_trace_replay_packed;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "binary header" `Quick test_packed_binary_header;
          Alcotest.test_case "rejects garbage" `Quick test_packed_binary_rejects_garbage;
          Alcotest.test_case "of_raw validation" `Quick test_of_raw_validation;
          qtest prop_teapk_fuzz;
          Alcotest.test_case "save/load file" `Quick test_save_load_packed_file;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "table4 ordering incl. compiled" `Slow
            test_overhead_ordering_with_compiled;
        ] );
    ]

(* Differential tests of the closure-threaded compiled engine
   (Tea_core.Compiled behind Tea_opt.Compile): compiled replay must be
   observationally identical — TBB mapping, coverage, enter/exit
   counters, stats and simulated cycles — to stepping the packed image
   one address at a time ({!Packed.step}) over flat, repacked and fused
   images, fed in one batch, split at an arbitrary seam or chopped into
   many short batches; TBB-identical to the reference engine; sharded
   replay through compiled workers must merge to the sequential profile
   at jobs 1/2/4; demuxed multi-asid replay through compiled engines
   must match step-at-a-time isolated per-asid replay; and the
   dispatch-tier attribution of a compiled replay must stay a total
   partition of the blocks replayed. *)

open Tea_isa
module I = Insn
module Block = Tea_cfg.Block
module Trace = Tea_traces.Trace
module Automaton = Tea_core.Automaton
module Builder = Tea_core.Builder
module Packed = Tea_core.Packed
module Compiled = Tea_core.Compiled
module Replayer = Tea_core.Replayer
module Transition = Tea_core.Transition
module Tierstat = Tea_core.Tierstat
module Multi = Tea_core.Multi_replayer
module Repack = Tea_opt.Repack
module Fuse = Tea_opt.Fuse
module Compile = Tea_opt.Compile
module Scenario = Tea_workloads.Scenario
module Pool = Tea_parallel.Pool
module Profile = Tea_parallel.Profile
module Shard = Tea_parallel.Shard

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let block_at addr = Block.make Block.Branch [ (addr, I.Jmp (I.Abs 0)) ]

(* ---------------- Random workload generation ----------------

   Same pool as test_fuse's generator: traces skew toward long
   single-successor runs so fused chains form, and a fraction of states
   get two successors so the straight-line region's bimodal arm is
   exercised; streams mix loop-shaped repetition with random addresses
   so region runs, span misses, hash hits and NTE cuts all happen. *)

let pool_size = 16

let pool i = 0x1000 + (0x10 * (i mod (pool_size + 4)))

let gen_trace id rand =
  let open QCheck.Gen in
  let n = int_range 1 8 rand in
  let idxs = Array.init n (fun _ -> int_range 0 (pool_size - 1) rand) in
  let blocks = Array.map (fun i -> block_at (pool i)) idxs in
  let succs =
    Array.init n (fun _ ->
        let k = if int_range 0 2 rand < 2 then 1 else int_range 0 3 rand in
        let chosen = List.init k (fun _ -> int_range 0 (n - 1) rand) in
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
}

let gen_workload =
  let open QCheck.Gen in
  let gen rand =
    let n_traces = int_range 1 5 rand in
    let w_traces = List.init n_traces (fun id -> gen_trace id rand) in
    let n_steps = int_range 0 120 rand in
    let raw =
      List.concat
        (List.init n_steps (fun _ ->
             if int_range 0 4 rand = 0 then
               let a = pool (int_range 0 (pool_size + 3) rand) in
               let b = pool (int_range 0 (pool_size + 3) rand) in
               let k = int_range 2 6 rand in
               List.concat (List.init k (fun _ -> [ a; b ]))
             else [ pool (int_range 0 (pool_size + 3) rand) ]))
    in
    let w_stream = List.map (fun a -> (a, int_range 0 4 rand)) raw in
    { w_traces; w_stream }
  in
  QCheck.make
    ~print:(fun w ->
      Printf.sprintf "traces=%d stream=%d" (List.length w.w_traces)
        (List.length w.w_stream))
    gen

let arrays_of_stream stream =
  ( Array.of_list (List.map fst stream),
    Array.of_list (List.map snd stream),
    List.length stream )

(* The three image variants every property sweeps: flat, profile-guided
   repacked, and repacked+fused (fusion over the stream's own profile
   would gate most chains out on these tiny workloads, so fuse
   unconditionally — the identity must hold either way). *)
let variants w addrs ~len =
  let auto = Builder.build w.w_traces in
  let flat = Packed.freeze auto in
  let tuned = Repack.repack flat (Repack.collect flat addrs ~len) in
  (auto, [ flat; tuned; Fuse.fuse tuned ])

let compiled_make img = Replayer.create_compiled (Compile.compile (Packed.dup img))

(* The oracle every batch property compares against: the same image
   stepped one address at a time ({!Replayer.feed_addr} on a compiled
   replayer runs {!Packed.step} on its base image). *)
let stepped img ~insns addrs ~len =
  let rep = compiled_make img in
  for i = 0 to len - 1 do
    Replayer.feed_addr rep ~insns:insns.(i) addrs.(i)
  done;
  rep

let compiled_replayer ?cut img ~insns addrs ~len =
  let rep = compiled_make img in
  (match cut with
  | Some c when c > 0 && c < len ->
      Replayer.feed_run rep ~insns addrs ~len:c;
      Replayer.feed_run rep ~off:c ~insns addrs ~len:(len - c)
  | _ -> Replayer.feed_run rep ~insns addrs ~len);
  rep

(* The tentpole property: compiling any image changes no replay
   observable — full snapshot equality (counts, coverage, enters/exits,
   stats, simulated cycles) plus the halt state, whether the stream is
   fed in one batch or split at an arbitrary seam (compiled dispatch is
   bounded by the threaded batch end, so a seam never moves a cycle). *)
let prop_compiled_is_identity =
  QCheck.Test.make ~name:"compiled replay == packed replay" ~count:150
    (QCheck.pair gen_workload (QCheck.int_range 0 200))
    (fun (w, cut) ->
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let _, imgs = variants w addrs ~len in
      List.for_all
        (fun img ->
          let base = stepped img ~insns addrs ~len in
          let once = compiled_replayer img ~insns addrs ~len in
          let split =
            compiled_replayer ~cut:(min cut len) img ~insns addrs ~len
          in
          Replayer.snapshot base = Replayer.snapshot once
          && Replayer.snapshot base = Replayer.snapshot split
          && Replayer.state base = Replayer.state once
          && Replayer.state base = Replayer.state split)
        imgs)

(* Against the paper-faithful engine: the TBB mapping (the answer to
   "which TBB is executing") and the boundary counters must agree with a
   reference replay of the same stream. *)
let prop_compiled_equals_reference =
  QCheck.Test.make ~name:"compiled TBB mapping == reference" ~count:100
    gen_workload (fun w ->
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let auto, imgs = variants w addrs ~len in
      let reference =
        Replayer.create (Transition.create Transition.config_global_local auto)
      in
      Replayer.feed_run reference ~insns addrs ~len;
      List.for_all
        (fun img ->
          let comp = compiled_replayer img ~insns addrs ~len in
          Replayer.tbb_counts reference = Replayer.tbb_counts comp
          && Replayer.covered_insns reference = Replayer.covered_insns comp
          && Replayer.trace_enters reference = Replayer.trace_enters comp
          && Replayer.trace_exits reference = Replayer.trace_exits comp)
        imgs)

(* feed_addr single-stepping must equal the stream chopped into many
   short feed_run batches (1..7 blocks, drawn per workload) — every cut
   lands somewhere different, including inside fused chains and region
   runs, and the batch bound is the only loop-carried variable. *)
let prop_compiled_feed_addr =
  QCheck.Test.make ~name:"compiled feed_run == repeated feed_addr" ~count:100
    (QCheck.pair gen_workload (QCheck.int_range 1 7))
    (fun (w, batch) ->
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let _, imgs = variants w addrs ~len in
      List.for_all
        (fun img ->
          let one = stepped img ~insns addrs ~len in
          let batched = compiled_make img in
          let off = ref 0 in
          while !off < len do
            let n = min batch (len - !off) in
            Replayer.feed_run batched ~off:!off ~insns addrs ~len:n;
            off := !off + n
          done;
          Replayer.snapshot one = Replayer.snapshot batched
          && Replayer.state one = Replayer.state batched)
        imgs)

(* ---------------- sharded replay through compiled workers ------------ *)

let prop_sharded_compiled_replay =
  QCheck.Test.make ~name:"compiled shards: jobs 1/2/4 == sequential" ~count:15
    gen_workload (fun w ->
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let _, imgs = variants w addrs ~len in
      List.for_all
        (fun img ->
          let pseq = Profile.of_replayer (stepped img ~insns addrs ~len) in
          List.for_all
            (fun jobs ->
              let pn =
                Pool.with_pool ~jobs (fun pool ->
                    Shard.replay_arrays pool img ~make:compiled_make ~insns
                      addrs ~len)
              in
              Profile.equal pseq pn)
            [ 1; 2; 4 ])
        imgs)

(* ---------------- multi-asid demux through compiled engines ---------- *)

let with_tmp f =
  let path = Filename.temp_file "tea_test_compile" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* Two asids with independent automata, interleaved with invalidations
   (SMC) in one PCTR3 stream: demuxed replay through per-asid compiled
   engines must produce exactly the snapshots of replaying each asid's
   projection in isolation, one event (so one {!Packed.step}) at a time,
   and demux-first sharding with compiled workers must merge to them. *)
let prop_multi_asid_compiled =
  QCheck.Test.make ~name:"multi-asid demux: compiled == packed" ~count:25
    (QCheck.pair gen_workload gen_workload)
    (fun (w0, w1) ->
      QCheck.assume
        (w0.w_stream <> [] && w1.w_stream <> []);
      let img_of w =
        let addrs, _, len = arrays_of_stream w.w_stream in
        let flat = Packed.freeze (Builder.build w.w_traces) in
        Repack.repack flat (Repack.collect flat addrs ~len)
      in
      let imgs = [| img_of w0; img_of w1 |] in
      let stream_of asid w =
        let starts, insns, len = arrays_of_stream w.w_stream in
        Scenario.stream ~asid ~name:"gen" ~starts ~insns ~len
      in
      let scn emit =
        Scenario.interleave ~quantum:3 [ stream_of 0 w0; stream_of 1 w1 ] emit;
        (* then a second, self-modifying pass of asid 0's stream *)
        emit (Tea_core.Pc_trace.Switch { asid = 0 });
        Scenario.smc ~period:17 (stream_of 0 w0) emit
      in
      with_tmp (fun path ->
          let _ = Scenario.write_file path scn in
          let packed_for asid = imgs.(asid) in
          let make asid = compiled_make (packed_for asid) in
          let want = Multi.replay_isolated make path in
          let got = Multi.snapshots (Multi.replay_events make path) in
          let sharded =
            Pool.with_pool ~jobs:2 (fun pool ->
                Shard.replay_events pool packed_for ~make:compiled_make path)
          in
          want = got
          && List.for_all2
               (fun (a1, s1) (a2, p2) -> a1 = a2 && Profile.equal s1 p2)
               want sharded))

(* ---------------- dispatch-tier partition ---------------- *)

(* A compiled replay attributes every block to exactly one of the
   compiled, hash and miss tiers: the counters' tiers partition the
   batch, and an installed tally's totals are the same. *)
let test_tier_partition () =
  let w =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 42 |]) (QCheck.gen gen_workload)
  in
  let addrs, insns, len = arrays_of_stream w.w_stream in
  let _, imgs = variants w addrs ~len in
  List.iter
    (fun img ->
      Tierstat.install ();
      let rep, installed =
        match compiled_replayer img ~insns addrs ~len with
        | rep -> (rep, Tierstat.uninstall ())
        | exception e ->
            ignore (Tierstat.uninstall ());
            raise e
      in
      let snap = Replayer.tiers rep in
      check Alcotest.int "tiers partition the batch" len (Tierstat.total snap);
      check
        Alcotest.(array int)
        "installed totals == counter totals" snap.Tierstat.ts_totals
        installed.Tierstat.ts_totals)
    imgs

(* ---------------- image statistics on a real capture ---------------- *)

let listscan_fixture () =
  let image = Tea_workloads.Micro.list_scan () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy image in
  let traces = Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set in
  let flat = Packed.freeze (Builder.build traces) in
  let path = Filename.temp_file "tea_compile" ".trc" in
  let _ = Tea_pinsim.Trace_capture.record image path in
  let starts, insns, len = Tea_parallel.Shard.load_pc_trace path in
  Sys.remove path;
  (flat, starts, insns, len)

let test_image_stats () =
  let flat, starts, insns, len = listscan_fixture () in
  let tuned = Repack.repack flat (Repack.collect flat starts ~len) in
  let c = Compile.compile (Packed.dup tuned) in
  check Alcotest.bool "one closure per state at least" true
    (Compiled.n_closures c >= Packed.n_slots (Compiled.base c));
  (* listscan is bimodal-branchy: its loop states land in the
     straight-line region, not behind chain matchers *)
  check Alcotest.bool "region states found" true (Compiled.region_states c > 0);
  check Alcotest.int "no minihash fallback" 0 (Compiled.fallback_states c);
  let d = Compile.describe c in
  check Alcotest.bool "describe mentions the region" true
    (let needle = "straight-line region states" in
     let rec has i =
       i + String.length needle <= String.length d
       && (String.sub d i (String.length needle) = needle || has (i + 1))
     in
     has 0);
  (* engine tag *)
  let rep = Replayer.create_compiled c in
  check Alcotest.bool "compiled engine reported" true
    (match Replayer.engine rep with
    | Replayer.Compiled _ -> true
    | _ -> false);
  (* compiled_replay: end-to-end identity on the capture *)
  let _, baseline, tuned_rep = Compile.compiled_replay flat ~insns starts ~len in
  check Alcotest.bool "capture replay identical" true
    (Replayer.snapshot baseline = Replayer.snapshot tuned_rep)

let () =
  Alcotest.run "tea_compile"
    [
      ( "differential",
        [
          qtest prop_compiled_is_identity;
          qtest prop_compiled_equals_reference;
          qtest prop_compiled_feed_addr;
          qtest prop_sharded_compiled_replay;
          qtest prop_multi_asid_compiled;
        ] );
      ( "attribution",
        [ Alcotest.test_case "tier partition" `Quick test_tier_partition ] );
      ( "image",
        [ Alcotest.test_case "stats and describe" `Quick test_image_stats ] );
    ]

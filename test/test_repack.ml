(* Tests of the profile-guided repacking pass (Tea_opt.Repack) and the
   repacked packed-image flavor it produces: repacking must be a pure
   permutation (identical replay observables through the id translation,
   cycles changed only per the documented scan-cost model and never upward
   on the profiling stream), the inline cache must be cost-neutral, the
   TEAPK2 serialization must round-trip, and sharded replay over a
   repacked image must merge to the sequential profile counter for
   counter. *)

open Tea_isa
module I = Insn
module Block = Tea_cfg.Block
module Trace = Tea_traces.Trace
module Automaton = Tea_core.Automaton
module Builder = Tea_core.Builder
module Packed = Tea_core.Packed
module Compiled = Tea_core.Compiled
module Replayer = Tea_core.Replayer
module Serialize = Tea_core.Serialize
module Repack = Tea_opt.Repack
module Metrics = Tea_telemetry.Metrics
module Probe = Tea_telemetry.Probe

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let block_at addr = Block.make Block.Branch [ (addr, I.Jmp (I.Abs 0)) ]

let compiled img = Replayer.create_compiled (Compiled.of_packed (Packed.dup img))

(* ---------------- Random workload generation ----------------

   Same shape as test_packed's generator: a pool of block addresses,
   traces whose states have up to 3 in-trace successors (so spans are
   long enough for prefix-vs-tail layout decisions to matter), and
   streams that also draw from addresses no trace contains. *)

let pool_size = 16

let pool i = 0x1000 + (0x10 * (i mod (pool_size + 4)))

let gen_trace id rand =
  let open QCheck.Gen in
  let n = int_range 1 6 rand in
  let idxs = Array.init n (fun _ -> int_range 0 (pool_size - 1) rand) in
  let blocks = Array.map (fun i -> block_at (pool i)) idxs in
  let succs =
    Array.init n (fun _ ->
        let k = int_range 0 3 rand in
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
    let n_steps = int_range 0 200 rand in
    let w_stream =
      List.init n_steps (fun _ ->
          (pool (int_range 0 (pool_size + 3) rand), int_range 0 4 rand))
    in
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

(* Replay observables, with engine-space state ids translated back to
   original automaton ids so flat and repacked runs are comparable. *)
type observation = {
  o_states : Automaton.state list;
  o_covered : int;
  o_total : int;
  o_enters : int;
  o_exits : int;
  o_counts : (Automaton.state * int) list;
  o_stats : int * int * int * int;
}

(* Step-at-a-time replay over [img] itself (a compiled replayer's
   feed_addr runs {!Packed.step} on its base image), so the image's
   stats, cycles and inline-cache counters record exactly this stream. *)
let observe img stream =
  let rep = Replayer.create_compiled (Compiled.of_packed img) in
  let states =
    List.map
      (fun (addr, insns) ->
        Replayer.feed_addr rep ~insns addr;
        Packed.orig_state img (Replayer.state rep))
      stream
  in
  let st = Replayer.stats rep in
  ( {
      o_states = states;
      o_covered = Replayer.covered_insns rep;
      o_total = Replayer.total_insns rep;
      o_enters = Replayer.trace_enters rep;
      o_exits = Replayer.trace_exits rep;
      o_counts = Replayer.tbb_counts rep;
      o_stats =
        ( st.Tea_core.Transition.steps,
          st.Tea_core.Transition.in_trace_hits,
          st.Tea_core.Transition.global_hits,
          st.Tea_core.Transition.global_misses );
    },
    Replayer.cycles rep )

(* The tentpole property: for any automaton and any profile — empty,
   collected on the replayed stream, or collected on a different
   (mismatched) stream — repacking changes no replay observable. Cycles
   are equal under the empty profile (identity layout, cost-neutral IC)
   and never larger under the matching profile (the per-span argmin keeps
   the source layout as a candidate); a mismatched profile may cost more,
   by design. *)
let prop_repack_pure_permutation =
  QCheck.Test.make ~name:"repack is a pure permutation" ~count:200
    gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      let flat = Packed.freeze auto in
      let addrs, _, len = arrays_of_stream w.w_stream in
      let flat_obs, flat_cycles = observe flat w.w_stream in
      let collected = Repack.collect flat addrs ~len in
      let mismatched =
        let rev = Array.of_list (List.rev_map fst w.w_stream) in
        Repack.collect flat rev ~len
      in
      List.for_all
        (fun (prof, cycle_check) ->
          let tuned = Repack.repack flat prof in
          let obs, cycles = observe tuned w.w_stream in
          Packed.is_repacked tuned
          && obs = flat_obs
          && cycle_check cycles
          (* the permutation is invertible *)
          && (let ok = ref true in
              for s = 0 to Packed.n_slots tuned - 1 do
                if Packed.slot_of_state tuned (Packed.orig_state tuned s) <> s
                then ok := false
              done;
              !ok)
          (* every step hit or missed the inline cache, exactly once *)
          && Packed.ic_hits tuned + Packed.ic_misses tuned = len)
        [
          (Repack.empty_profile flat, fun c -> c = flat_cycles);
          (collected, fun c -> c <= flat_cycles);
          (mismatched, fun _ -> true);
        ])

(* Batched feed_run on a repacked image must stay exactly len feed_addr
   calls — the compiled closures charge the IC/prefix/tail costs
   {!Packed.step} charges, and this property pins the replication. *)
let prop_feed_run_equals_feed_addr =
  QCheck.Test.make ~name:"repacked feed_run == repeated feed_addr"
    ~count:100 gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      let flat = Packed.freeze auto in
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let prof = Repack.collect flat addrs ~len in
      let tuned = Repack.repack flat prof in
      let one = compiled tuned in
      List.iter
        (fun (addr, ins) -> Replayer.feed_addr one ~insns:ins addr)
        w.w_stream;
      let batched = compiled tuned in
      Replayer.feed_run batched ~insns addrs ~len;
      let s1 = Replayer.stats one and s2 = Replayer.stats batched in
      Replayer.state one = Replayer.state batched
      && Replayer.coverage one = Replayer.coverage batched
      && Replayer.tbb_counts one = Replayer.tbb_counts batched
      && s1 = s2
      && Replayer.cycles one = Replayer.cycles batched)

(* Profiles of disjoint chunks merge into the whole-stream profile when
   the later chunk is collected from the state the walk carried in. *)
let prop_collect_merges =
  QCheck.Test.make ~name:"collect(whole) == merge(collect chunks)"
    ~count:100
    (QCheck.pair gen_workload (QCheck.int_range 0 200))
    (fun (w, cut) ->
      let auto = Builder.build w.w_traces in
      let flat = Packed.freeze auto in
      let addrs, _, len = arrays_of_stream w.w_stream in
      let cut = min cut len in
      let whole = Repack.collect flat addrs ~len in
      let first = Repack.collect flat addrs ~len:cut in
      let mid =
        let rep = compiled flat in
        Replayer.feed_run rep addrs ~len:cut;
        Replayer.state rep
      in
      let second =
        Repack.collect ~state:mid flat ~off:cut addrs ~len:(len - cut)
      in
      Repack.merge first second = whole)

(* Round-tripping a repacked image through TEAPK2 bytes preserves replay
   behaviour, layout metadata and the repacked flavor. *)
let prop_teapk2_roundtrip =
  QCheck.Test.make ~name:"TEAPK2 round-trip replays identically" ~count:100
    gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      let flat = Packed.freeze auto in
      let addrs, _, len = arrays_of_stream w.w_stream in
      let tuned = Repack.repack flat (Repack.collect flat addrs ~len) in
      let bin = Serialize.packed_to_binary tuned in
      let loaded = Serialize.packed_of_binary bin in
      let a, ca = observe tuned w.w_stream in
      let b, cb = observe loaded w.w_stream in
      String.sub bin 0 6 = "TEAPK2"
      && Packed.is_repacked loaded
      && a = b && ca = cb
      && Packed.hot_edges loaded = Packed.hot_edges tuned
      && Repack.moved_states loaded = Repack.moved_states tuned)

(* ---------------- sharded replay over a repacked image ----------------

   The acceptance bar: --jobs 4 merges to --jobs 1, profile and probe
   counter for counter. *)

let sharded_snapshot img ~insns addrs ~len jobs =
  Probe.install ();
  Fun.protect
    ~finally:(fun () -> if Probe.enabled () then ignore (Probe.uninstall ()))
    (fun () ->
      let profile =
        Tea_parallel.Pool.with_pool ~jobs (fun pool ->
            Tea_parallel.Shard.replay_arrays pool img ~insns addrs ~len)
      in
      (profile, Probe.uninstall ()))

let prop_sharded_repacked_replay =
  QCheck.Test.make ~name:"repacked replay: jobs 4 merges to jobs 1"
    ~count:20 gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      let flat = Packed.freeze auto in
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let tuned = Repack.repack flat (Repack.collect flat addrs ~len) in
      let p1, s1 = sharded_snapshot tuned ~insns addrs ~len 1 in
      let p4, s4 = sharded_snapshot tuned ~insns addrs ~len 4 in
      Tea_parallel.Profile.equal p1 p4 && Metrics.equal s1 s4)

(* ---------------- layout unit tests ---------------- *)

(* A trace whose head has three successors, so one state carries a span
   of three edges: head -> {0x2000 (hot), 0x3000, 0x4000}. *)
let fan_trace =
  Trace.make ~id:0 ~kind:"fix"
    [| block_at 0x1000; block_at 0x2000; block_at 0x3000; block_at 0x4000 |]
    [| [ 1; 2; 3 ]; [ 0 ]; [ 0 ]; [ 0 ] |]

let test_hot_prefix_ordering () =
  let auto = Builder.build [ fan_trace ] in
  let flat = Packed.freeze auto in
  (* drive the hot edge 8x, the others once each *)
  let stream =
    [ 0x1000 ]
    @ List.concat (List.init 8 (fun _ -> [ 0x2000; 0x1000 ]))
    @ [ 0x3000; 0x1000; 0x4000; 0x1000 ]
  in
  let addrs = Array.of_list stream in
  let len = Array.length addrs in
  let prof = Repack.collect flat addrs ~len in
  let tuned = Repack.repack flat prof in
  let raw = Packed.to_raw tuned in
  (* the fan state is the hottest body state, so it lands in slot 1 *)
  let s = 1 in
  let lo = raw.Packed.offsets.(s) and hi = raw.Packed.offsets.(s + 1) in
  check Alcotest.int "span of three" 3 (hi - lo);
  check Alcotest.bool "hot prefix chosen" true (raw.Packed.hot_len.(s) >= 1);
  check Alcotest.int "most-taken edge first" 0x2000 raw.Packed.labels.(lo);
  (* the tail stays sorted for the binary search *)
  let k = raw.Packed.hot_len.(s) in
  for i = lo + k to hi - 2 do
    check Alcotest.bool "tail sorted" true
      (raw.Packed.labels.(i) < raw.Packed.labels.(i + 1))
  done;
  check Alcotest.bool "hot edges counted" true (Packed.hot_edges tuned >= 1);
  (* replays of the driving stream agree, and the tuned layout is
     strictly cheaper in simulated cycles (span 3 searched every step
     before, one linear probe on the hot path now) *)
  let stream2 = List.map (fun a -> (a, 1)) stream in
  let fo, fc = observe flat stream2 and t_o, tc = observe tuned stream2 in
  check Alcotest.bool "observables equal" true (fo = t_o);
  check Alcotest.bool "cycles reduced" true (tc < fc)

let test_empty_profile_is_identity () =
  let auto = Builder.build [ fan_trace ] in
  let flat = Packed.freeze auto in
  let tuned = Repack.repack flat (Repack.empty_profile flat) in
  check Alcotest.int "no states moved" 0 (Repack.moved_states tuned);
  check Alcotest.int "no hot prefixes" 0 (Packed.hot_edges tuned);
  check Alcotest.bool "still repacked flavor" true (Packed.is_repacked tuned);
  let r0 = Packed.to_raw flat and r1 = Packed.to_raw tuned in
  check Alcotest.(list int) "same labels"
    (Array.to_list r0.Packed.labels)
    (Array.to_list r1.Packed.labels);
  check Alcotest.(list int) "same hash"
    (Array.to_list r0.Packed.hash_keys)
    (Array.to_list r1.Packed.hash_keys)

let test_profile_shape_mismatch () =
  let auto = Builder.build [ fan_trace ] in
  let flat = Packed.freeze auto in
  let other =
    Packed.freeze
      (Builder.build [ Trace.linear ~id:9 ~kind:"x" [ block_at 0x100 ] ])
  in
  let prof = Repack.empty_profile other in
  Alcotest.check_raises "wrong shape rejected"
    (Invalid_argument "Repack.repack: profile shape does not match the image")
    (fun () -> ignore (Repack.repack flat prof));
  Alcotest.check_raises "merge rejects too"
    (Invalid_argument "Repack.merge: profiles from different images")
    (fun () -> ignore (Repack.merge prof (Repack.empty_profile flat)))

(* {!Packed.step}'s IC charges the precomputed cost the scan would have
   charged, so a warm cache changes wall clock and the hit counters —
   never the simulated cycles. Two consecutive step-at-a-time replays of
   the same stream over one image (cold then warm IC) must charge
   identical cycles. *)
let test_ic_cost_neutral () =
  let auto = Builder.build [ fan_trace ] in
  let flat = Packed.freeze auto in
  let stream =
    Array.of_list
      ([ 0x1000 ] @ List.concat (List.init 20 (fun _ -> [ 0x2000; 0x1000 ])))
  in
  let len = Array.length stream in
  let tuned = Repack.repack flat (Repack.collect flat stream ~len) in
  let run () =
    (* cycles accumulate on the shared image, so charge each run by its
       delta — the point is replaying over the SAME image so the second
       run starts with a warm inline cache *)
    let before = Packed.cycles tuned in
    let rep = Replayer.create_compiled (Compiled.of_packed tuned) in
    Array.iter (fun pc -> Replayer.feed_addr rep pc) stream;
    (Packed.cycles tuned - before, Replayer.tbb_counts rep)
  in
  let c1, t1 = run () in
  let hits_cold = Packed.ic_hits tuned in
  let c2, t2 = run () in
  let hits_warm = Packed.ic_hits tuned - hits_cold in
  check Alcotest.int "cycles identical cold vs warm" c1 c2;
  check Alcotest.(list (pair int int)) "profiles identical" t1 t2;
  check Alcotest.bool "warm cache hits at least as often" true
    (hits_warm >= hits_cold)

(* ---------------- build_hash sizing (satellite fix) ---------------- *)

let test_build_hash_dedupes_before_sizing () =
  (* 5 insertions, 2 distinct addresses: the table must be sized (and
     laid out) exactly as for the deduplicated association list, with the
     last value winning per address. *)
  let dup = [ (0x100, 1); (0x200, 2); (0x100, 3); (0x100, 4); (0x200, 5) ] in
  let deduped = [ (0x100, 4); (0x200, 5) ] in
  let k1, v1 = Packed.build_hash dup 8 in
  let k2, v2 = Packed.build_hash deduped 8 in
  check Alcotest.(array int) "keys" k2 k1;
  check Alcotest.(array int) "vals" v2 v1;
  (* 2 distinct heads need only the minimum table, not one sized for 5 *)
  check Alcotest.int "table sized from distinct count" (Array.length k2)
    (Array.length k1);
  let lookup keys vals pc =
    let mask = Array.length keys - 1 in
    let rec go i =
      if keys.(i) = pc then Some vals.(i)
      else if keys.(i) < 0 then None
      else go ((i + 1) land mask)
    in
    go (Packed.hash_pc mask pc)
  in
  check Alcotest.(option int) "last value wins" (Some 4) (lookup k1 v1 0x100);
  check Alcotest.(option int) "other key" (Some 5) (lookup k1 v1 0x200);
  Alcotest.check_raises "negative address rejected"
    (Invalid_argument "Packed: negative head address") (fun () ->
      ignore (Packed.build_hash [ (-1, 0) ] 4))

(* ---------------- of_raw validation of the repacked discipline ------- *)

let repacked_fixture () =
  let auto = Builder.build [ fan_trace ] in
  let flat = Packed.freeze auto in
  let stream =
    Array.of_list ([ 0x1000 ] @ List.concat (List.init 8 (fun _ -> [ 0x2000; 0x1000 ])))
  in
  let len = Array.length stream in
  Repack.repack flat (Repack.collect flat stream ~len)

let copy_raw (r : Packed.raw) =
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

let test_of_raw_repacked_validation () =
  let tuned = repacked_fixture () in
  let r = Packed.to_raw tuned in
  let expect_invalid name mutate =
    let copy = copy_raw r in
    mutate copy;
    try
      ignore (Packed.of_raw ~repacked:true copy);
      Alcotest.failf "of_raw accepted %s" name
    with Invalid_argument _ -> ()
  in
  (* the untouched raw repacked image is accepted... *)
  ignore (Packed.of_raw ~repacked:true (copy_raw r));
  (* ...but not as a flat image: prefixes and a permuted orig_of violate
     the flat discipline *)
  (try
     ignore (Packed.of_raw (copy_raw r));
     Alcotest.fail "flat of_raw accepted a repacked layout"
   with Invalid_argument _ -> ());
  expect_invalid "hot prefix longer than span" (fun c ->
      c.Packed.hot_len.(1) <- 1 + c.Packed.offsets.(2) - c.Packed.offsets.(1));
  expect_invalid "negative hot_len" (fun c -> c.Packed.hot_len.(1) <- -1);
  expect_invalid "duplicate label in prefix" (fun c ->
      (* fan state in slot 1 has span 3, prefix >= 1 *)
      let lo = c.Packed.offsets.(1) in
      c.Packed.hot_len.(1) <- 2;
      c.Packed.labels.(lo + 1) <- c.Packed.labels.(lo));
  expect_invalid "orig_of not a permutation" (fun c ->
      c.Packed.orig_of.(1) <- c.Packed.orig_of.(2));
  expect_invalid "NTE not pinned" (fun c ->
      let tmp = c.Packed.orig_of.(0) in
      c.Packed.orig_of.(0) <- c.Packed.orig_of.(1);
      c.Packed.orig_of.(1) <- tmp)

(* ---------------- end to end: pgo_replay on a real capture ----------- *)

let test_pgo_replay_listscan () =
  let image = Tea_workloads.Micro.list_scan () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy image in
  let traces = Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set in
  let flat = Packed.freeze (Builder.build traces) in
  let path = Filename.temp_file "tea_repack" ".trc" in
  let _ = Tea_pinsim.Trace_capture.record image path in
  let starts, insns, len = Tea_parallel.Shard.load_pc_trace path in
  Sys.remove path;
  let tuned, baseline, tuned_rep =
    Repack.pgo_replay flat ~insns starts ~len
  in
  check Alcotest.bool "repacked" true (Packed.is_repacked tuned);
  check Alcotest.(list (pair int int)) "identical TBB mapping"
    (Replayer.tbb_counts baseline) (Replayer.tbb_counts tuned_rep);
  check (Alcotest.float 0.0) "identical coverage"
    (Replayer.coverage baseline) (Replayer.coverage tuned_rep);
  check Alcotest.bool "never more simulated cycles" true
    (Replayer.cycles tuned_rep <= Replayer.cycles baseline);
  (* src and returned-image counters untouched by the pgo cycle *)
  check Alcotest.int "src stats untouched" 0
    (Packed.stats flat).Tea_core.Transition.steps;
  check Alcotest.int "repacked image stats untouched" 0
    (Packed.stats tuned).Tea_core.Transition.steps

(* ---------------- --metrics golden with IC counters ---------------- *)

let update_dir = Sys.getenv_opt "TEA_GOLDEN_UPDATE"

let golden_root =
  if Sys.file_exists "goldens" then "goldens"
  else Filename.concat "test" "goldens"

let check_golden_file name actual =
  match update_dir with
  | Some dir ->
      let path = Filename.concat dir name in
      let oc = open_out_bin path in
      output_string oc actual;
      close_out oc;
      Printf.printf "updated %s (%d bytes)\n%!" path (String.length actual)
  | None ->
      let path = Filename.concat golden_root name in
      let expected =
        try
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with Sys_error _ ->
          Alcotest.failf
            "missing golden %s - regenerate with TEA_GOLDEN_UPDATE" path
      in
      if expected <> actual then begin
        let got = Filename.temp_file "tea_golden" ".got" in
        let oc = open_out_bin got in
        output_string oc actual;
        close_out oc;
        Alcotest.failf "golden mismatch for %s (actual output in %s)" name got
      end

(* The text dump `tea_tool replay micro:listscan --engine=compiled --pgo
   --metrics` produces: the flat profiling replay and the repacked replay
   back to back, alongside the counters metrics_listscan.txt already
   freezes. Every counter is simulated-time or event-count, so the
   rendering is stable byte for byte. *)
let test_metrics_repack_golden () =
  let image = Tea_workloads.Micro.list_scan () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  Probe.install ();
  let snap =
    Fun.protect
      ~finally:(fun () -> if Probe.enabled () then ignore (Probe.uninstall ()))
      (fun () ->
        let r = Tea_dbt.Stardbt.record ~strategy image in
        let traces = Tea_traces.Trace_set.to_list r.Tea_dbt.Stardbt.set in
        let _ =
          Tea_pinsim.Pintool_replay.replay ~engine:`Compiled ~pgo:true ~traces
            image
        in
        Probe.uninstall ())
  in
  check_golden_file "metrics_repack_listscan.txt"
    (Tea_report.Stats.render ~title:"telemetry" snap)

let () =
  Alcotest.run "tea_repack"
    [
      ( "differential",
        [
          qtest prop_repack_pure_permutation;
          qtest prop_feed_run_equals_feed_addr;
          qtest prop_collect_merges;
          qtest prop_teapk2_roundtrip;
          qtest prop_sharded_repacked_replay;
        ] );
      ( "layout",
        [
          Alcotest.test_case "hot-prefix ordering" `Quick
            test_hot_prefix_ordering;
          Alcotest.test_case "empty profile is identity" `Quick
            test_empty_profile_is_identity;
          Alcotest.test_case "shape mismatch rejected" `Quick
            test_profile_shape_mismatch;
          Alcotest.test_case "inline cache is cost-neutral" `Quick
            test_ic_cost_neutral;
          Alcotest.test_case "build_hash dedupes before sizing" `Quick
            test_build_hash_dedupes_before_sizing;
          Alcotest.test_case "of_raw repacked validation" `Quick
            test_of_raw_repacked_validation;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "pgo_replay on listscan" `Quick
            test_pgo_replay_listscan;
          Alcotest.test_case "--metrics golden" `Quick
            test_metrics_repack_golden;
        ] );
    ]

(* Tests of the superstate chain-fusion pass (Tea_opt.Fuse) and the
   compiled chain matchers behind it: fusion must be observationally the
   identity
   (TBB mapping, coverage, stats, simulated cycles) on any workload, over
   flat and repacked bases, in whole arrays and streamed batches; the TEAPK3
   serialization must round-trip and leave unfused images byte-identical;
   Packed.with_fusion must reject corrupt overlays; and the `info`
   description of the listscan image is frozen as a golden. *)

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
module Fuse = Tea_opt.Fuse
module Metrics = Tea_telemetry.Metrics
module Probe = Tea_telemetry.Probe

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let block_at addr = Block.make Block.Branch [ (addr, I.Jmp (I.Abs 0)) ]

(* ---------------- Random workload generation ----------------

   Same pool as test_repack's generator, but traces skew toward long
   single-successor runs (each state gets 1 successor with probability
   ~2/3, else 0..3) so chains and cycles actually form, and streams mix
   loop-shaped repetition with random addresses so both the chain match
   and the mismatch fallback paths are exercised. *)

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
             (* occasionally emit a short repeated run to seed loop-shaped
                input the cyclic fast-forward can bite on *)
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

let compiled img = Replayer.create_compiled (Compiled.of_packed img)

(* Batched replay through feed_run — the entry point that runs the
   compiled chain matchers when the image carries an overlay —
   optionally split into two batches at [cut] to exercise the
   batch-boundary rule (a chain match never crosses a batch seam). *)
let batch_snapshot ?cut img ~insns addrs ~len =
  let rep = compiled img in
  (match cut with
  | Some c when c > 0 && c < len ->
      Replayer.feed_run rep ~insns addrs ~len:c;
      Replayer.feed_run rep ~off:c ~insns addrs ~len:(len - c)
  | _ -> Replayer.feed_run rep ~insns addrs ~len);
  Replayer.snapshot rep

(* The tentpole property: fusing any image — flat or repacked — changes
   no replay observable, whether the stream is fed in one batch or
   split. *)
let prop_fusion_is_identity =
  QCheck.Test.make ~name:"fusion is observationally the identity" ~count:150
    (QCheck.pair gen_workload (QCheck.int_range 0 200))
    (fun (w, cut) ->
      let auto = Builder.build w.w_traces in
      let flat = Packed.freeze auto in
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let tuned = Repack.repack flat (Repack.collect flat addrs ~len) in
      List.for_all
        (fun base ->
          let fused = Fuse.fuse base in
          let plain = batch_snapshot base ~insns addrs ~len in
          let once = batch_snapshot fused ~insns addrs ~len in
          let split = batch_snapshot ~cut:(min cut len) fused ~insns addrs ~len in
          plain = once && plain = split)
        [ flat; tuned ])

(* Fused feed_run must also remain exactly len single steps — feed_addr
   goes through Packed.step, which ignores the overlay entirely. *)
let prop_fused_feed_run_equals_feed_addr =
  QCheck.Test.make ~name:"fused feed_run == repeated feed_addr" ~count:100
    gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      let flat = Packed.freeze auto in
      let fused = Fuse.fuse flat in
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let one = compiled fused in
      List.iter
        (fun (addr, ins) -> Replayer.feed_addr one ~insns:ins addr)
        w.w_stream;
      let batched = compiled fused in
      Replayer.feed_run batched ~insns addrs ~len;
      Replayer.snapshot one = Replayer.snapshot batched
      && Replayer.state one = Replayer.state batched)

(* Round-tripping a fused image through TEAPK3 bytes preserves the
   overlay and replay behaviour; unfused images keep writing their
   PR 1 / PR 4 magics, byte for byte. *)
let prop_teapk3_roundtrip =
  QCheck.Test.make ~name:"TEAPK3 round-trip replays identically" ~count:100
    gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      let flat = Packed.freeze auto in
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let tuned = Repack.repack flat (Repack.collect flat addrs ~len) in
      List.for_all
        (fun (base, unfused_magic) ->
          let fused = Fuse.fuse base in
          let bin = Serialize.packed_to_binary fused in
          let loaded = Serialize.packed_of_binary bin in
          let magic_ok =
            if Packed.is_fused fused then String.sub bin 0 6 = "TEAPK3"
            else String.sub bin 0 6 = unfused_magic
          in
          magic_ok
          && String.sub (Serialize.packed_to_binary base) 0 6 = unfused_magic
          && Packed.is_fused loaded = Packed.is_fused fused
          && Packed.n_chains loaded = Packed.n_chains fused
          && Packed.n_cyclic_chains loaded = Packed.n_cyclic_chains fused
          && batch_snapshot loaded ~insns addrs ~len
             = batch_snapshot fused ~insns addrs ~len
          && Serialize.packed_to_binary loaded = bin)
        [ (flat, "TEAPK1"); (tuned, "TEAPK2") ])

(* ---------------- pool replay over a fused image ----------------

   --jobs N gives --jobs 1's profile counter for counter, and the same
   probe counters and histograms except fused_steps, which counts
   chain matches and so depends on where batch seams fall. *)

let variable_counter = function "packed.fused_steps" -> true | _ -> false

let snapshots_equal_mod_ic s1 s4 =
  List.filter (fun (n, _) -> not (variable_counter n)) s1.Metrics.s_counters
  = List.filter (fun (n, _) -> not (variable_counter n)) s4.Metrics.s_counters
  && s1.Metrics.s_histograms = s4.Metrics.s_histograms

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

let prop_sharded_fused_replay =
  QCheck.Test.make ~name:"fused replay: jobs 2/4 merge to jobs 1" ~count:15
    gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      let flat = Packed.freeze auto in
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let tuned = Repack.repack flat (Repack.collect flat addrs ~len) in
      List.for_all
        (fun base ->
          let fused = Fuse.fuse base in
          let p1, s1 = sharded_snapshot fused ~insns addrs ~len 1 in
          (* the unfused sequential snapshot IS a profile *)
          let pseq = batch_snapshot base ~insns addrs ~len in
          List.for_all
            (fun jobs ->
              let pn, sn = sharded_snapshot fused ~insns addrs ~len jobs in
              Tea_parallel.Profile.equal p1 pn && snapshots_equal_mod_ic s1 sn)
            [ 2; 4 ]
          && Tea_parallel.Profile.equal p1 pseq)
        [ flat; tuned ])

(* A PC-trace file streamed in 4096-block batches, with seams inside
   fused chains and inside a cyclic chain's spin: chain matching ends at
   each batch's end and resumes from the carried state, so the streamed
   profile equals one feed_run over the whole file, cycles included.
   Each 18-block lap is a 5-block straight chain, a cold block, one
   entry into the 0x7000/0x8000 cycle spinning 5 laps, and a cold block;
   4096 mod 18 = 10 lands in the spin, 8192 mod 18 = 2 in the chain. *)
let test_stream_seams_in_chains () =
  let straight =
    Trace.make ~id:0 ~kind:"fix"
      (Array.map block_at [| 0x1000; 0x2000; 0x3000; 0x4000; 0x5000 |])
      [| [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [] |]
  in
  let cycle =
    Trace.make ~id:1 ~kind:"fix"
      (Array.map block_at [| 0x6000; 0x7000; 0x8000 |])
      [| [ 1 ]; [ 2 ]; [ 1 ] |]
  in
  let flat = Packed.freeze (Builder.build [ straight; cycle ]) in
  let fused = Fuse.fuse flat in
  check Alcotest.bool "straight and cyclic chains" true
    (Packed.n_chains fused >= 2 && Packed.n_cyclic_chains fused >= 1);
  let lap =
    [ 0x1000; 0x2000; 0x3000; 0x4000; 0x5000; 0x9990; 0x6000 ]
    @ List.concat (List.init 5 (fun _ -> [ 0x7000; 0x8000 ]))
    @ [ 0x9990 ]
  in
  let path = Filename.temp_file "tea_fuse_seams" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let w = Tea_core.Pc_trace.open_writer path in
  for i = 0 to 599 do
    List.iteri
      (fun j a -> Tea_core.Pc_trace.write w ~start:a ~insns:(1 + ((i + j) mod 3)))
      lap
  done;
  Tea_core.Pc_trace.close_writer w;
  let starts, insns, len = Tea_parallel.Shard.load_pc_trace path in
  check Alcotest.int "blocks" (600 * 18) len;
  check Alcotest.bool "seams inside chains" true
    (starts.(4095) = 0x7000 && starts.(4096) = 0x8000
    && starts.(8191) = 0x2000 && starts.(8192) = 0x3000);
  let whole = batch_snapshot fused ~insns starts ~len in
  check Alcotest.bool "fusion is the identity" true
    (whole = batch_snapshot flat ~insns starts ~len);
  List.iter
    (fun jobs ->
      let streamed, blocks =
        Tea_parallel.Pool.with_pool ~jobs (fun pool ->
            Tea_parallel.Shard.replay_pc_trace pool fused path)
      in
      check Alcotest.int "streamed block count" len blocks;
      check Alcotest.bool
        (Printf.sprintf "jobs %d: streamed == one feed_run" jobs)
        true
        (Tea_parallel.Profile.equal streamed whole))
    [ 1; 2 ]

(* ---------------- chain decomposition units ---------------- *)

(* A linear trace a -> b -> c -> d: a, b, c are forced (one successor
   each), d is a dead end, so the decomposition yields one straight
   chain of 3 members. *)
let test_straight_chain () =
  let tr =
    Trace.make ~id:0 ~kind:"fix"
      [| block_at 0x1000; block_at 0x2000; block_at 0x3000; block_at 0x4000 |]
      [| [ 1 ]; [ 2 ]; [ 3 ]; [] |]
  in
  let img = Packed.freeze (Builder.build [ tr ]) in
  let fused = Fuse.fuse img in
  check Alcotest.bool "fused" true (Packed.is_fused fused);
  check Alcotest.int "one chain" 1 (Packed.n_chains fused);
  check Alcotest.int "three members" 3 (Packed.fused_edges fused);
  check Alcotest.int "no cycles" 0 (Packed.n_cyclic_chains fused);
  check Alcotest.(array int) "length histogram" [| 3 |]
    (Packed.chain_lengths fused);
  (* source image untouched *)
  check Alcotest.bool "source unfused" false (Packed.is_fused img)

(* A self-loop: one block targeting itself is a 1-member cyclic chain,
   kept despite min_chain. *)
let test_self_loop_cyclic () =
  let tr =
    Trace.make ~id:0 ~kind:"fix" [| block_at 0x1000 |] [| [ 0 ] |]
  in
  let fused = Fuse.fuse (Packed.freeze (Builder.build [ tr ])) in
  check Alcotest.int "one chain" 1 (Packed.n_chains fused);
  check Alcotest.int "cyclic" 1 (Packed.n_cyclic_chains fused);
  check Alcotest.(array int) "single member" [| 1 |]
    (Packed.chain_lengths fused)

(* A back-edge loop a -> b -> c -> b: b has two forced predecessors so
   it heads the chain [b; c], whose last edge re-enters b — a cyclic
   chain the replayer may fast-forward. *)
let test_back_edge_cycle () =
  let tr =
    Trace.make ~id:0 ~kind:"fix"
      [| block_at 0x1000; block_at 0x2000; block_at 0x3000 |]
      [| [ 1 ]; [ 2 ]; [ 1 ] |]
  in
  let fused = Fuse.fuse (Packed.freeze (Builder.build [ tr ])) in
  check Alcotest.int "one cyclic chain" 1 (Packed.n_cyclic_chains fused);
  let lengths = Array.to_list (Packed.chain_lengths fused) in
  check Alcotest.bool "the loop body is a 2-chain" true
    (List.mem 2 lengths);
  (* replay a long spin of the loop and cross-check against the unfused
     engine — the fast-forward path in anger *)
  let spin =
    0x1000 :: List.concat (List.init 50 (fun _ -> [ 0x2000; 0x3000 ]))
  in
  let addrs = Array.of_list spin in
  let insns = Array.map (fun _ -> 1) addrs in
  let len = Array.length addrs in
  let base = Packed.freeze (Builder.build [ tr ]) in
  check Alcotest.bool "fast-forwarded replay identical" true
    (batch_snapshot base ~insns addrs ~len
    = batch_snapshot fused ~insns addrs ~len)

let test_min_chain_filter () =
  let tr =
    Trace.make ~id:0 ~kind:"fix"
      [| block_at 0x1000; block_at 0x2000; block_at 0x3000; block_at 0x4000 |]
      [| [ 1 ]; [ 2 ]; [ 3 ]; [] |]
  in
  let img = Packed.freeze (Builder.build [ tr ]) in
  (* raising min_chain above the longest run leaves the image unfused —
     and [fuse] then returns the source image itself *)
  let same = Fuse.fuse ~min_chain:4 img in
  check Alcotest.bool "no overlay" false (Packed.is_fused same);
  check Alcotest.bool "source returned" true (same == img);
  Alcotest.check_raises "min_chain 0 rejected"
    (Invalid_argument "Fuse.fuse: min_chain must be >= 1") (fun () ->
      ignore (Fuse.fuse ~min_chain:0 img))

(* ---------------- with_fusion validation ---------------- *)

let fused_fixture () =
  let tr =
    Trace.make ~id:0 ~kind:"fix"
      [| block_at 0x1000; block_at 0x2000; block_at 0x3000 |]
      [| [ 1 ]; [ 2 ]; [ 1 ] |]
  in
  let img = Packed.freeze (Builder.build [ tr ]) in
  (img, Option.get (Packed.fusion_of (Fuse.fuse img)))

let copy_fusion (f : Packed.fusion) =
  {
    Packed.fchain = Array.copy f.Packed.fchain;
    fpos = Array.copy f.Packed.fpos;
    foff = Array.copy f.Packed.foff;
    fcyc = Array.copy f.Packed.fcyc;
    fsig = Array.copy f.Packed.fsig;
    ftgt = Array.copy f.Packed.ftgt;
    fecost = Array.copy f.Packed.fecost;
  }

let test_with_fusion_validation () =
  let img, f = fused_fixture () in
  (* the untouched overlay is accepted *)
  ignore (Packed.with_fusion img (copy_fusion f));
  let expect_invalid name mutate =
    let c = copy_fusion f in
    mutate c;
    try
      ignore (Packed.with_fusion img c);
      Alcotest.failf "with_fusion accepted %s" name
    with Invalid_argument _ -> ()
  in
  expect_invalid "chain on NTE" (fun c ->
      c.Packed.fchain.(0) <- 0;
      c.Packed.fpos.(0) <- 0);
  expect_invalid "chain id out of range" (fun c ->
      let s =
        (* first chained slot *)
        let r = ref (-1) in
        Array.iteri (fun i ch -> if !r < 0 && ch >= 0 then r := i) c.Packed.fchain;
        !r
      in
      c.Packed.fchain.(s) <- 7);
  expect_invalid "duplicate position" (fun c ->
      let a = ref (-1) and b = ref (-1) in
      Array.iteri
        (fun i ch ->
          if ch >= 0 then if !a < 0 then a := i else if !b < 0 then b := i)
        c.Packed.fchain;
      c.Packed.fpos.(!b) <- c.Packed.fpos.(!a);
      c.Packed.fchain.(!b) <- c.Packed.fchain.(!a));
  expect_invalid "signature mismatch" (fun c ->
      c.Packed.fsig.(0) <- c.Packed.fsig.(0) + 1);
  expect_invalid "target mismatch" (fun c ->
      c.Packed.ftgt.(0) <- c.Packed.ftgt.(0) + 1);
  expect_invalid "wrong edge cost" (fun c ->
      c.Packed.fecost.(0) <- c.Packed.fecost.(0) + 1);
  expect_invalid "nonzero fpos on unchained slot" (fun c ->
      let s =
        let r = ref (-1) in
        Array.iteri
          (fun i ch -> if !r < 0 && ch < 0 then r := i)
          c.Packed.fchain;
        !r
      in
      c.Packed.fpos.(s) <- 1);
  expect_invalid "non-monotone foff" (fun c ->
      c.Packed.foff.(Array.length c.Packed.foff - 1) <- 0);
  expect_invalid "bad fcyc flag" (fun c -> c.Packed.fcyc.(0) <- 2)

(* Corrupt TEAPK3 bytes must fail the load (via with_fusion), not
   produce an image that replays differently. *)
let test_teapk3_corruption_rejected () =
  let img, _ = fused_fixture () in
  let fused = Fuse.fuse img in
  let bin = Bytes.of_string (Serialize.packed_to_binary fused) in
  (* flip a byte inside the fsig array (last 3 arrays are fsig, ftgt,
     fecost; step back into fsig: 3 arrays x (4 + 2*4) bytes) *)
  let off = Bytes.length bin - (3 * 12) + 4 in
  Bytes.set bin off (Char.chr (1 + Char.code (Bytes.get bin off)));
  (try
     ignore (Serialize.packed_of_binary (Bytes.to_string bin));
     Alcotest.fail "corrupt TEAPK3 accepted"
   with Serialize.Parse_error _ -> ());
  (* unknown flags word rejected too *)
  let bin2 = Bytes.of_string (Serialize.packed_to_binary fused) in
  Bytes.set bin2 6 '\xFE';
  try
    ignore (Serialize.packed_of_binary (Bytes.to_string bin2));
    Alcotest.fail "unknown TEAPK3 flags accepted"
  with Serialize.Parse_error _ -> ()

(* ---------------- end to end: fused_replay on a real capture -------- *)

let listscan_fixture () =
  let image = Tea_workloads.Micro.list_scan () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy image in
  let traces = Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set in
  let flat = Packed.freeze (Builder.build traces) in
  let path = Filename.temp_file "tea_fuse" ".trc" in
  let _ = Tea_pinsim.Trace_capture.record image path in
  let starts, insns, len = Tea_parallel.Shard.load_pc_trace path in
  Sys.remove path;
  (flat, starts, insns, len)

let test_fused_replay_listscan () =
  let flat, starts, insns, len = listscan_fixture () in
  let fused, baseline, tuned = Fuse.fused_replay flat ~insns starts ~len in
  check Alcotest.bool "fused" true (Packed.is_fused fused);
  check Alcotest.bool "chains found" true (Packed.n_chains fused > 0);
  check Alcotest.bool "identical snapshots" true
    (Replayer.snapshot baseline = Replayer.snapshot tuned);
  (* fusion stacks on PGO repacking the same way *)
  let tuned_img, _, _ = Repack.pgo_replay flat ~insns starts ~len in
  let refused = Fuse.fuse tuned_img in
  check Alcotest.bool "fuses the repacked image too" true
    (Packed.is_fused refused && Packed.is_repacked refused);
  check Alcotest.bool "repacked+fused replay identical" true
    (batch_snapshot tuned_img ~insns starts ~len
    = batch_snapshot refused ~insns starts ~len);
  (* the replayers own their stats: each counted the stream once *)
  check Alcotest.int "baseline stats" len
    (Replayer.stats baseline).Tea_core.Transition.steps;
  check Alcotest.int "fused stats" len
    (Replayer.stats tuned).Tea_core.Transition.steps

(* Profile-aware chain selection: listscan's cycle escapes through a
   bimodal state every lap or two, so its profiled expected run sits
   under the default threshold and the chain is gated out entirely —
   [fuse] returns the source image. A permissive threshold restores the
   structural result, and replay stays the identity under any choice. *)
let test_profile_filter () =
  let flat, starts, insns, len = listscan_fixture () in
  let profile = Repack.collect flat starts ~len in
  let gated = Fuse.fuse ~profile flat in
  check Alcotest.bool "low-benefit chain gated out" true (gated == flat);
  let permissive = Fuse.fuse ~profile ~min_expected_run:1.0 flat in
  check Alcotest.bool "permissive threshold keeps the cycle" true
    (Packed.is_fused permissive && Packed.n_chains permissive > 0);
  (* the whole-image coverage gate drops even run-filter survivors when
     the kept chains absorb too little of the stream *)
  let starved =
    Fuse.fuse ~profile ~min_expected_run:1.0 ~min_coverage:0.99 flat
  in
  check Alcotest.bool "coverage gate skips fusion" true (starved == flat);
  check Alcotest.bool "still the identity" true
    (batch_snapshot flat ~insns starts ~len
    = batch_snapshot permissive ~insns starts ~len);
  (* a profile shaped for a different image is rejected *)
  let other = Packed.freeze (Builder.build []) in
  check Alcotest.bool "shape mismatch rejected" true
    (match Fuse.fuse ~profile other with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------------- `info` golden on the listscan image ---------------- *)

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

(* What `tea_tool info` prints for the fused listscan image: the
   describe_packed rendering is a pure function of the arrays, so it is
   frozen byte for byte. *)
let test_info_golden () =
  let flat, _, _, _ = listscan_fixture () in
  let fused = Fuse.fuse flat in
  check_golden_file "info_listscan.txt"
    (Serialize.describe_packed flat ^ "--\n" ^ Serialize.describe_packed fused)

let () =
  Alcotest.run "tea_fuse"
    [
      ( "differential",
        [
          qtest prop_fusion_is_identity;
          qtest prop_fused_feed_run_equals_feed_addr;
          qtest prop_teapk3_roundtrip;
          qtest prop_sharded_fused_replay;
          Alcotest.test_case "stream seams inside chains" `Quick
            test_stream_seams_in_chains;
        ] );
      ( "decomposition",
        [
          Alcotest.test_case "straight chain" `Quick test_straight_chain;
          Alcotest.test_case "self-loop is cyclic" `Quick
            test_self_loop_cyclic;
          Alcotest.test_case "back-edge cycle fast-forwards" `Quick
            test_back_edge_cycle;
          Alcotest.test_case "min_chain filter" `Quick test_min_chain_filter;
        ] );
      ( "validation",
        [
          Alcotest.test_case "with_fusion rejects corrupt overlays" `Quick
            test_with_fusion_validation;
          Alcotest.test_case "corrupt TEAPK3 rejected" `Quick
            test_teapk3_corruption_rejected;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "fused_replay on listscan" `Quick
            test_fused_replay_listscan;
          Alcotest.test_case "profile-aware chain selection" `Quick
            test_profile_filter;
          Alcotest.test_case "info golden" `Quick test_info_golden;
        ] );
    ]

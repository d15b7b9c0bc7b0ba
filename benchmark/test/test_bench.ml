(* The benchmark's own logic, without spawning a daemon: order statistics
   and the p90 sample rule, seeded inputs, the oracle, the span ledger,
   scrape parsing, the compare verdicts, and BENCHMARK.json against the
   metric catalog. *)

open Tea_benchmark
module Pc_trace = Tea_core.Pc_trace
module Profile = Tea_parallel.Profile

let check = Alcotest.check
let ( // ) = Filename.concat
let feq = Alcotest.float 1e-9

(* ---- Stats ---- *)

let test_percentile () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  check (Alcotest.result feq Alcotest.string) "p90 of 1..100" (Ok 90.0)
    (Stats.percentile ~pct:90 (xs 100));
  check (Alcotest.result feq Alcotest.string) "p50 of 1..20" (Ok 10.0)
    (Stats.percentile ~pct:50 (xs 20));
  check Alcotest.bool "p90 of 99 samples has only 9 beyond" true
    (Result.is_error (Stats.percentile ~pct:90 (xs 99)));
  check Alcotest.bool "p50 of 19 samples has only 9 beyond" true
    (Result.is_error (Stats.percentile ~pct:50 (xs 19)));
  check Alcotest.bool "no samples" true (Result.is_error (Stats.percentile ~pct:50 []));
  check (Alcotest.result feq Alcotest.string) "order does not matter" (Ok 90.0)
    (Stats.percentile ~pct:90 (List.rev (xs 100)))

let test_samples_for () =
  List.iter
    (fun pct ->
      let n = Stats.samples_for ~pct in
      let xs n = List.init n float_of_int in
      check Alcotest.bool (Printf.sprintf "p%d ok at %d" pct n) true
        (Result.is_ok (Stats.percentile ~pct (xs n)));
      check Alcotest.bool (Printf.sprintf "p%d refused at %d" pct (n - 1)) true
        (Result.is_error (Stats.percentile ~pct (xs (n - 1)))))
    [ 50; 75; 90; 95; 99 ];
  check Alcotest.int "p90 needs 100" 100 (Stats.samples_for ~pct:90)

(* reference values from Python's statistics.quantiles(data, n=4) *)
let test_quartiles () =
  let q xs =
    let a, b, c = Stats.quartiles xs in
    [ a; b; c ]
  in
  check (Alcotest.list feq) "two samples" [ 0.75; 1.5; 2.25 ] (q [ 2.0; 1.0 ]);
  check (Alcotest.list feq) "1..10" [ 2.75; 5.5; 8.25 ]
    (q (List.init 10 (fun i -> float_of_int (i + 1))));
  check (Alcotest.list feq) "unsorted" [ 1.5; 3.0; 5.0 ]
    (q [ 3.0; 1.0; 4.0; 1.5; 5.0; 9.0; 2.0 ]);
  check feq "median of even count" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  check feq "spread" ((8.25 -. 2.75) /. 5.5)
    (Compare.spread (Compare.side (List.init 10 (fun i -> float_of_int (i + 1)))))

(* ---- Clock ---- *)

let test_clock () =
  let log = { (Clock.log ~ipc:false) with Clock.passes = [ 0.03; 0.01; 0.02 ] } in
  check feq "run median" 0.02 (Clock.run_median log);
  check feq "a time next to a slow pass shrinks" 1.0 (Clock.at_run_median log ~k:0.04 2.0);
  check feq "at reference speed the scale is 1" 1.0
    (Clock.scale { log with Clock.passes = [ Clock.reference_memory_s ] });
  check feq "serve runs add the ipc pass" 1.0
    (Clock.scale
       { (Clock.log ~ipc:true) with Clock.passes = [ Clock.reference_memory_s +. Clock.reference_ipc_s ] });
  let live = Clock.log ~ipc:true in
  check Alcotest.bool "a sampled pass is logged and timed" true
    (Clock.sample live 1 > 0.0 && List.length live.Clock.passes = 1);
  let m = Report.metric ~unit_:"ms" "x" 2.0 and c = Report.metric ~unit_:"count" "y" 2.0 in
  check feq "times scale" 3.0 (Clock.scale_metric 1.5 m).Report.value;
  check feq "counts do not" 2.0 (Clock.scale_metric 1.5 c).Report.value

(* ---- Inputs ---- *)

let tmp = Filename.get_temp_dir_name ()

(* a synthetic capture: a few loops with cold blocks between them *)
let synthetic n =
  {
    Inputs.starts = Array.init n (fun i -> 0x1000 + (16 * (i mod 7)) + (i / 997 * 64));
    insns = Array.init n (fun i -> 1 + (i mod 5));
    len = n;
  }

let read path = In_channel.with_open_bin path In_channel.input_all

let test_slices () =
  let cap = synthetic 60_000 in
  let plan = Inputs.slice_plan ~seed:1 ~count:32 ~lo:500 ~hi:20_000 ~tail:0.5 ~total:cap.Inputs.len in
  Array.iteri
    (fun i (off, len) ->
      check Alcotest.bool "length in range" true (len >= 500 && len <= 20_000);
      check Alcotest.bool "inside the tail" true (off >= 30_000 && off + len <= 60_000);
      let path = tmp // Printf.sprintf "tea_bench_slice_%d_%d.trc" (Unix.getpid ()) i in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Inputs.write_v2 path (Inputs.sub cap ~off ~len);
      check Alcotest.string "PCTR2 magic" "PCTR2\n" (String.sub (read path) 0 6);
      check Alcotest.int "Pc_trace.length = requested" len (Pc_trace.length path);
      let starts, insns, n = Tea_parallel.Shard.load_pc_trace path in
      check Alcotest.int "decoded length" len n;
      check Alcotest.bool "same blocks" true
        (Array.sub starts 0 n = Array.sub cap.Inputs.starts off len
        && Array.sub insns 0 n = Array.sub cap.Inputs.insns off len))
    plan;
  (* stratified lengths: one per quantile band, so the order is increasing *)
  let lens = Array.map snd plan in
  check Alcotest.bool "stratified" true
    (Array.for_all Fun.id (Array.init (Array.length lens - 1) (fun i -> lens.(i) <= lens.(i + 1))))

(* Everything the seed decides, as bytes and arrays. *)
let inputs ~seed =
  let cap = synthetic 40_000 in
  let a = synthetic 3_000 and b = { (synthetic 2_000) with Inputs.starts = Array.init 2_000 (fun i -> 0x9000 + (i mod 3)) } in
  let rotated = Inputs.rotate cap ~by:(Inputs.rotation ~seed ~salt:1 cap) in
  let path = tmp // Printf.sprintf "tea_bench_inputs_%d.trc" (Unix.getpid ()) in
  let bytes write =
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    write path;
    read path
  in
  ( Inputs.slice_plan ~seed ~count:64 ~lo:500 ~hi:5_000 ~tail:0.3 ~total:cap.Inputs.len,
    Inputs.session_order ~seed ~pool:256,
    Inputs.abort_plan ~seed ~every:64 ~sessions:4096,
    bytes (fun p -> Inputs.write_two_asid p rotated),
    bytes (fun p -> Inputs.write_interleaved ~seed p [ ("a", a); ("b", b) ]) )

let test_seeds () =
  let s1 = inputs ~seed:1 and s1' = inputs ~seed:1 and s2 = inputs ~seed:2 in
  check Alcotest.bool "same seed, same inputs" true (s1 = s1');
  let p1, o1, a1, r1, i1 = s1 and p2, o2, a2, r2, i2 = s2 in
  check Alcotest.bool "slices differ" true (p1 <> p2);
  check Alcotest.bool "session order differs" true (o1 <> o2);
  check Alcotest.bool "aborts differ" true (a1 <> a2);
  check Alcotest.bool "rotated streams differ" true (r1 <> r2);
  check Alcotest.bool "interleavings differ" true (i1 <> i2)

let test_plans () =
  let plan = Inputs.abort_plan ~seed:3 ~every:64 ~sessions:640 in
  check Alcotest.int "one abort per 64 slots" 10
    (Array.fold_left (fun a x -> if Option.is_some x then a + 1 else a) 0 plan);
  List.iter
    (fun u ->
      let b = Inputs.abort_bytes u ~size:1000 in
      check Alcotest.bool "an abort sends some but not all" true (b >= 1 && b <= 999))
    [ 0.0; 0.5; 0.999999 ];
  let order = Inputs.session_order ~seed:3 ~pool:256 in
  check (Alcotest.list Alcotest.int) "a permutation" (List.init 256 Fun.id)
    (List.sort compare (Array.to_list order));
  let s = synthetic 1_000 in
  let r = Inputs.rotate s ~by:250 in
  check Alcotest.int "rotation keeps every block" s.Inputs.len r.Inputs.len;
  check Alcotest.int "rotation starts at the offset" s.Inputs.starts.(250) r.Inputs.starts.(0);
  check Alcotest.int "rotation wraps" s.Inputs.starts.(0) r.Inputs.starts.(750)

(* ---- Oracle ---- *)

let test_oracle () =
  let open Tea_isa in
  let block_at addr = Tea_cfg.Block.make Tea_cfg.Block.Branch [ (addr, Insn.Jmp (Insn.Abs 0)) ] in
  let tr = Tea_traces.Trace.linear ~id:0 ~kind:"test" ~cycle:true (List.map block_at [ 0x100; 0x200; 0x300 ]) in
  let auto = Tea_core.Builder.build [ tr ] in
  let lap = [| 0x100; 0x200; 0x300; 0x999 |] in
  let s = { Inputs.starts = Array.init 4000 (fun i -> lap.(i mod 4)); insns = Array.make 4000 3; len = 4000 } in
  let expected = Oracle.of_stream auto s in
  let got =
    Tea_parallel.Pool.with_pool ~jobs:2 (fun pool ->
        Tea_parallel.Shard.replay_arrays pool (Tea_core.Packed.freeze auto)
          ~make:Pipeline.make_compiled ~insns:s.Inputs.insns s.Inputs.starts ~len:s.Inputs.len)
  in
  check Alcotest.bool "compiled sharded replay matches the reference" true
    (Result.is_ok (Oracle.check ~expected got));
  check Alcotest.bool "engine-specific fields are ignored" true
    (Result.is_ok (Oracle.check ~expected { got with Profile.cycles = 0; cache_hits = 7 }));
  check Alcotest.bool "a wrong count is caught" true
    (Result.is_error (Oracle.check ~expected { got with Profile.covered = got.Profile.covered + 1 }));
  check Alcotest.bool "wrong per-state counts are caught" true
    (Result.is_error (Oracle.check ~expected { got with Profile.counts = [] }))

(* ---- Ledger ---- *)

let test_ledger () =
  let l = Ledger.create () in
  Ledger.root l "round" (fun () ->
      Ledger.leaf l ~blocks:10 "a" (fun () -> Unix.sleepf 0.02);
      Ledger.leaf l ~blocks:30 "b" (fun () -> Unix.sleepf 0.01);
      Unix.sleepf 0.01);
  check Alcotest.bool "valid" true (Result.is_ok (Ledger.validate l));
  let nodes = Ledger.nodes l in
  let root = List.hd (Ledger.named "round" nodes) in
  let _, _, blocks = Ledger.total nodes "a" in
  check Alcotest.int "blocks tagged" 10 blocks;
  check Alcotest.bool "children cover the leaves" true
    (Float.abs (root.Ledger.children -. (Ledger.dur (List.hd (Ledger.named "a" nodes))
                                         +. Ledger.dur (List.hd (Ledger.named "b" nodes)))) < 1e-9);
  check Alcotest.bool "root self time is the untraced part" true
    (Ledger.self root >= 0.009 && Ledger.self root < Ledger.dur root)

(* ---- Daemon scrape parsing ---- *)

let test_scrape () =
  let text =
    "# TYPE tea_counter counter\n\
     tea_counter{name=\"serve_disconnects\"} 3\n\
     tea_histogram_quantile{name=\"serve_queue_depth\",q=\"0.5\"} 12.5\n\
     tea_histogram_count{name=\"serve_queue_depth\"} 4\n\
     tea_dispatch_tier_total{tier=\"hash\"} 99\n\
     tea_dispatch_state_total{state=\"3\",tier=\"hash\"} 5\n\
     # TYPE tea_image_epoch gauge\n\
     tea_image_epoch 2\n"
  in
  let s = Daemon.parse_scrape text in
  check feq "counter" 3.0 (Daemon.series s "serve_disconnects");
  check feq "quantile" 12.5 (Daemon.series s "serve_queue_depth@0.5");
  check feq "count" 4.0 (Daemon.series s "serve_queue_depth@count");
  check feq "tier" 99.0 (Daemon.series s "tier.hash");
  check feq "gauge" 2.0 (Daemon.series s "tea_image_epoch");
  check feq "absent is 0" 0.0 (Daemon.series s "serve_swaps")

(* ---- Compare ---- *)

let verdict ?(better = Catalog.Lower) ~bound a b =
  let _, _, _, v = Compare.judge ~better ~bound:(Some bound) a b in
  Compare.verdict_name v

let test_compare () =
  let a = [ 100.0; 101.0; 99.0; 100.5; 99.5 ] in
  let shift k = List.map (fun x -> x *. k) a in
  check Alcotest.string "within the bound" "ok" (verdict ~bound:0.10 a (shift 1.05));
  check Alcotest.string "worse by more than the bound" "REGRESSION" (verdict ~bound:0.10 a (shift 1.2));
  check Alcotest.string "clearly better" "better" (verdict ~bound:0.10 a (shift 0.8));
  check Alcotest.string "higher is better: a drop regresses" "REGRESSION"
    (verdict ~better:Catalog.Higher ~bound:0.10 a (shift 0.8));
  check Alcotest.string "higher is better: a rise is better" "better"
    (verdict ~better:Catalog.Higher ~bound:0.10 a (shift 1.2));
  let noisy = [ 60.0; 100.0; 140.0; 80.0; 120.0 ] in
  check Alcotest.string "spread wider than the bound" "unresolved" (verdict ~bound:0.10 noisy (shift 1.02));
  check Alcotest.string "noisy, but every run better" "better"
    (verdict ~bound:0.10 noisy (List.map (fun _ -> 10.0) noisy));
  let _, _, _, v = Compare.judge ~better:Catalog.Lower ~bound:None a (shift 3.0) in
  check Alcotest.string "no bound, no verdict" "-" (Compare.verdict_name v)

let test_compare_rows () =
  let run seed v =
    {
      Report.workload = "w";
      seed;
      seconds = 1;
      traced = false;
      correct = true;
      attempted = 1;
      failed = 0;
      e2e = [ Report.metric "setup_s" v; Report.metric "peak_rss_mb" 10.0 ];
      layers = [];
      extra = [];
      errors = [];
    }
  in
  let specs = Compare.load_spec ("../.." // "BENCHMARK.json") in
  let a = List.map (fun v -> run 1 v) [ 1.0; 1.01; 0.99 ] and b = List.map (fun v -> run 1 v) [ 2.0; 2.02; 1.98 ] in
  let rows = Compare.rows specs a b in
  check (Alcotest.list Alcotest.string) "catalog order" [ "peak_rss_mb"; "setup_s" ]
    (List.map (fun r -> r.Compare.metric) rows);
  check (Alcotest.list Alcotest.string) "setup doubled" [ "setup_s" ]
    (List.map (fun r -> r.Compare.metric) (Compare.regressions rows));
  (* records survive the --out round trip *)
  let r = run 2 1.25 in
  check Alcotest.bool "record round trip" true (Report.of_json (Json.parse (Json.to_string (Report.to_json r))) = r)

(* ---- BENCHMARK.json against the catalog ---- *)

let test_benchmark_json () =
  let path = "../.." // "BENCHMARK.json" in
  let j = Json.parse (read path) in
  let names key = List.map (fun e -> Json.to_str (Json.member "name" e)) (Json.to_list (Json.member key j)) in
  check (Alcotest.list Alcotest.string) "workloads"
    (List.map (fun w -> w.Workload.name) Workload.all) (names "workloads");
  check (Alcotest.list Alcotest.string) "paths" [ "benchmark" ]
    (List.map Json.to_str (Json.to_list (Json.member "paths" j)));
  check Alcotest.bool "names, units, directions and bounds" true
    (Compare.load_spec path = Catalog.end_to_end @ Catalog.per_layer);
  let setup = List.find (fun m -> m.Catalog.name = "setup_s") Catalog.end_to_end in
  check Alcotest.bool "setup_s has the largest bound" true
    (List.for_all (fun m -> m.Catalog.bound <= setup.Catalog.bound) Catalog.end_to_end)

let () =
  Alcotest.run "tea_bench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile and the 10-beyond rule" `Quick test_percentile;
          Alcotest.test_case "samples_for" `Quick test_samples_for;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
        ] );
      ("clock", [ Alcotest.test_case "calibration scaling" `Quick test_clock ]);
      ( "inputs",
        [
          Alcotest.test_case "seeded slices are valid PCTR2" `Quick test_slices;
          Alcotest.test_case "same seed same inputs, new seed new inputs" `Quick test_seeds;
          Alcotest.test_case "plans" `Quick test_plans;
        ] );
      ("oracle", [ Alcotest.test_case "engine-invariant comparison" `Quick test_oracle ]);
      ("ledger", [ Alcotest.test_case "self times" `Quick test_ledger ]);
      ("daemon", [ Alcotest.test_case "scrape parsing" `Quick test_scrape ]);
      ( "compare",
        [
          Alcotest.test_case "bound logic" `Quick test_compare;
          Alcotest.test_case "rows and records" `Quick test_compare_rows;
        ] );
      ("spec", [ Alcotest.test_case "BENCHMARK.json matches the catalog" `Quick test_benchmark_json ]);
    ]

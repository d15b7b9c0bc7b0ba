module Stats = Tea_report.Stats
module Table = Tea_report.Table
module Experiments = Tea_report.Experiments
module Overhead = Tea_pinsim.Overhead

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---------------- Stats ---------------- *)

let test_geomean () =
  check Alcotest.(float 0.0001) "identity" 4.0 (Stats.geomean [ 4.0 ]);
  check Alcotest.(float 0.0001) "2 and 8" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  check Alcotest.(float 0.0001) "empty" 0.0 (Stats.geomean []);
  check Alcotest.(float 0.0001) "skips zeros" 4.0 (Stats.geomean [ 0.0; 2.0; 8.0 ])

let test_mean () =
  check Alcotest.(float 0.0001) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check Alcotest.(float 0.0001) "empty" 0.0 (Stats.mean [])

let test_formatting () =
  check Alcotest.string "percent" "77%" (Stats.percent 0.771);
  check Alcotest.string "percent1" "99.8%" (Stats.percent1 0.998);
  check Alcotest.string "ratio" "13.53" (Stats.ratio 13.529)

let test_kb () =
  check Alcotest.int "rounds up" 1 (Stats.kb 1);
  check Alcotest.int "exact" 1 (Stats.kb 1024);
  check Alcotest.int "over" 2 (Stats.kb 1025)

let test_savings () =
  check Alcotest.(float 0.0001) "80%" 0.8 (Stats.savings ~dbt:100 ~tea:20);
  check Alcotest.(float 0.0001) "degenerate" 0.0 (Stats.savings ~dbt:0 ~tea:5)

(* ---------------- Table ---------------- *)

let test_table_render () =
  let s = Table.render ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "bb"; "22" ] ] in
  check Alcotest.bool "header" true (contains s "name");
  check Alcotest.bool "rule" true (contains s "----");
  (* right-aligned numeric column *)
  check Alcotest.bool "alignment" true (contains s " 1")

let test_table_arity () =
  Alcotest.check_raises "row arity" (Invalid_argument "Table.render: row arity")
    (fun () -> ignore (Table.render ~header:[ "a"; "b" ] [ [ "only" ] ]))

(* ---------------- Experiments (reduced subset) ---------------- *)

let subset = [ "171.swim"; "181.mcf" ]
let benches = lazy (Experiments.prepare ~benchmarks:subset ())

let test_table1_shape () =
  let rows = Experiments.table1 (Lazy.force benches) in
  check Alcotest.int "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      check Alcotest.int "three strategies" 3 (List.length r.Experiments.cells);
      List.iter
        (fun (name, c) ->
          check Alcotest.bool (name ^ " dbt > tea") true
            (c.Experiments.dbt_bytes > c.Experiments.tea_bytes);
          check Alcotest.bool
            (name ^ " savings in band")
            true
            (c.Experiments.saving > 0.5 && c.Experiments.saving < 0.95))
        r.Experiments.cells)
    rows

let test_table2_shape () =
  let rows = Experiments.table2 (Lazy.force benches) in
  List.iter
    (fun r ->
      check Alcotest.bool "tea coverage >= dbt" true
        (r.Experiments.tea_coverage >= r.Experiments.dbt_coverage -. 0.02);
      check Alcotest.bool "tea slower than dbt" true
        (r.Experiments.tea_mcycles > r.Experiments.dbt_mcycles))
    rows

let test_table3_shape () =
  let rows = Experiments.table3 (Lazy.force benches) in
  List.iter
    (fun r ->
      check Alcotest.bool "recorded traces" true (r.Experiments.n_traces > 0);
      check Alcotest.bool "coverage sane" true
        (r.Experiments.pin_coverage > 0.3 && r.Experiments.pin_coverage <= 1.0))
    rows

let test_table4_shape () =
  let rows = Experiments.table4 (Lazy.force benches) in
  List.iter
    (fun r ->
      let row = r.Experiments.row in
      check Alcotest.bool "empty > global/local" true
        (row.Overhead.empty > row.Overhead.global_local);
      check Alcotest.bool "pintool costs" true
        (row.Overhead.global_local > row.Overhead.without_pintool))
    rows

let test_renderings () =
  let b = Lazy.force benches in
  let t1 = Experiments.render_table1 (Experiments.table1 b) in
  check Alcotest.bool "geomean row" true (contains t1 "GeoMean");
  check Alcotest.bool "savings column" true (contains t1 "Savings");
  let t2 = Experiments.render_table2 (Experiments.table2 b) in
  check Alcotest.bool "replaying title" true (contains t2 "Replaying");
  let t3 = Experiments.render_table3 (Experiments.table3 b) in
  check Alcotest.bool "recording title" true (contains t3 "Recording");
  let t4 = Experiments.render_table4 (Experiments.table4 b) in
  check Alcotest.bool "config columns" true (contains t4 "Global / Local")

(* Tables 1-4 rendered from benchmarks prepared and tabulated across a
   pool of 2 or 4 domains are byte-identical to the sequential render. *)
let test_jobs_invariance () =
  let render ?pool b =
    String.concat "\n"
      [
        Experiments.render_table1 (Experiments.table1 ?pool b);
        Experiments.render_table2 (Experiments.table2 ?pool b);
        Experiments.render_table3 (Experiments.table3 ?pool b);
        Experiments.render_table4 (Experiments.table4 ?pool b);
      ]
  in
  let seq = render (Lazy.force benches) in
  List.iter
    (fun jobs ->
      let par =
        Tea_parallel.Pool.with_pool ~jobs (fun pool ->
            render ~pool (Experiments.prepare ~pool ~benchmarks:subset ()))
      in
      check Alcotest.string (Printf.sprintf "jobs %d" jobs) seq par)
    [ 2; 4 ]

(* ---------------- Ablations ---------------- *)

module Ablations = Tea_report.Ablations

let test_ablation_strategies () =
  let rows = Ablations.strategies ~benchmarks:[ "181.mcf" ] () in
  (* four strategies including mfet *)
  check Alcotest.int "four strategies" 4 (List.length rows);
  List.iter
    (fun r ->
      check Alcotest.bool (r.Ablations.s_strategy ^ " saves memory") true
        (r.Ablations.tea_bytes < r.Ablations.dbt_bytes))
    rows;
  check Alcotest.bool "mfet present" true
    (List.exists (fun r -> r.Ablations.s_strategy = "mfet") rows)

let test_ablation_cache_slots () =
  let rows = Ablations.cache_slots ~benchmark:"181.mcf" ~slots:[ 1; 8 ] () in
  match rows with
  | [ small; big ] ->
      check Alcotest.bool "bigger cache, better hit rate" true
        (big.Ablations.hit_rate >= small.Ablations.hit_rate -. 0.001);
      check Alcotest.bool "bigger cache not slower" true
        (big.Ablations.slowdown <= small.Ablations.slowdown +. 0.01)
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_threshold () =
  let rows = Ablations.hot_threshold ~benchmark:"181.mcf" ~thresholds:[ 25; 1000 ] () in
  match rows with
  | [ low; high ] ->
      check Alcotest.bool "higher threshold, fewer traces" true
        (high.Ablations.t_traces <= low.Ablations.t_traces);
      check Alcotest.bool "higher threshold, less coverage" true
        (high.Ablations.t_coverage <= low.Ablations.t_coverage +. 0.001)
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_renderings () =
  let s = Ablations.render_strategies (Ablations.strategies ~benchmarks:[ "181.mcf" ] ()) in
  check Alcotest.bool "has mfet" true (contains s "mfet")

let test_prepare_unknown_benchmark () =
  Alcotest.check_raises "unknown" (Invalid_argument "Experiments.prepare: 999.x")
    (fun () -> ignore (Experiments.prepare ~benchmarks:[ "999.x" ] ()))

let () =
  Alcotest.run "tea_report"
    [
      ( "stats",
        [
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "formatting" `Quick test_formatting;
          Alcotest.test_case "kb" `Quick test_kb;
          Alcotest.test_case "savings" `Quick test_savings;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table1" `Slow test_table1_shape;
          Alcotest.test_case "table2" `Slow test_table2_shape;
          Alcotest.test_case "table3" `Slow test_table3_shape;
          Alcotest.test_case "table4" `Slow test_table4_shape;
          Alcotest.test_case "renderings" `Slow test_renderings;
          Alcotest.test_case "jobs 1/2/4 byte-identical" `Slow test_jobs_invariance;
          Alcotest.test_case "unknown benchmark" `Quick test_prepare_unknown_benchmark;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "strategies" `Slow test_ablation_strategies;
          Alcotest.test_case "cache slots" `Slow test_ablation_cache_slots;
          Alcotest.test_case "hot threshold" `Slow test_ablation_threshold;
          Alcotest.test_case "renderings" `Slow test_ablation_renderings;
        ] );
    ]

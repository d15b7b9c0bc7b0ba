(* Telemetry layer: the snapshot merge algebra (qcheck — associative,
   commutative, empty-neutral), parallel-vs-sequential probe equality on
   the sharded replayer, span nesting validation, and a golden for the
   `--metrics` text rendering of a fixed listscan run. *)

module Metrics = Tea_telemetry.Metrics
module Span = Tea_telemetry.Span
module Probe = Tea_telemetry.Probe

let qtest = QCheck_alcotest.to_alcotest
let check = Alcotest.check

(* ---------------- merge algebra ---------------- *)

(* Random snapshots built through the public API, with a tiny name pool so
   merges actually collide on keys. *)
let gen_snapshot =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "lookup.hit"; "scan.len" ] in
  let op =
    oneof
      [
        map2 (fun n v -> `Count (n, v)) name (int_range 1 100);
        map2 (fun n v -> `Observe (n, v)) name (int_range (-1) 5000);
      ]
  in
  let* ops = list_size (int_bound 25) op in
  let m = Metrics.create () in
  List.iter
    (function
      | `Count (n, v) -> Metrics.count m n v
      | `Observe (n, v) -> Metrics.observe_value m n v)
    ops;
  return (Metrics.snapshot m)

let arb_snapshot = QCheck.make gen_snapshot

let merge_associative =
  QCheck.Test.make ~name:"merge is associative" ~count:300
    (QCheck.triple arb_snapshot arb_snapshot arb_snapshot)
    (fun (a, b, c) ->
      Metrics.equal
        (Metrics.merge (Metrics.merge a b) c)
        (Metrics.merge a (Metrics.merge b c)))

let merge_commutative =
  QCheck.Test.make ~name:"merge is commutative" ~count:300
    (QCheck.pair arb_snapshot arb_snapshot)
    (fun (a, b) -> Metrics.equal (Metrics.merge a b) (Metrics.merge b a))

let merge_empty_neutral =
  QCheck.Test.make ~name:"empty is the merge identity" ~count:300 arb_snapshot
    (fun a ->
      Metrics.equal (Metrics.merge Metrics.empty a) a
      && Metrics.equal (Metrics.merge a Metrics.empty) a)

(* merge_all over a random partition of one op stream = the unpartitioned
   snapshot: exactly the per-domain-registry merge the probes rely on. *)
let merge_partition =
  QCheck.Test.make ~name:"merge of a partition = the whole" ~count:200
    QCheck.(list (pair (int_range 0 3) (int_range 1 50)))
    (fun ops ->
      let names = [| "a"; "b"; "c"; "d" |] in
      let whole = Metrics.create () in
      let parts = Array.init 3 (fun _ -> Metrics.create ()) in
      List.iteri
        (fun i (n, v) ->
          Metrics.count whole names.(n) v;
          Metrics.observe_value whole names.(n) v;
          let p = parts.(i mod 3) in
          Metrics.count p names.(n) v;
          Metrics.observe_value p names.(n) v)
        ops;
      Metrics.equal (Metrics.snapshot whole)
        (Metrics.merge_all
           (Array.to_list (Array.map Metrics.snapshot parts))))

let test_buckets () =
  check Alcotest.int "bucket of 0" 0 (Metrics.bucket_of 0);
  check Alcotest.int "bucket of -3" 0 (Metrics.bucket_of (-3));
  check Alcotest.int "bucket of 1" 1 (Metrics.bucket_of 1);
  check Alcotest.int "bucket of 2" 2 (Metrics.bucket_of 2);
  check Alcotest.int "bucket of 3" 2 (Metrics.bucket_of 3);
  check Alcotest.int "bucket of 4" 3 (Metrics.bucket_of 4);
  check Alcotest.string "label of 2" "[2,4)" (Metrics.bucket_label 2);
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  List.iter (Metrics.observe h) [ 1; 1; 3; 100 ];
  let s = Metrics.snapshot m in
  let hs = Option.get (Metrics.find_histogram s "h") in
  check Alcotest.int "count" 4 hs.Metrics.hs_count;
  check Alcotest.int "sum" 105 hs.Metrics.hs_sum;
  check
    Alcotest.(list (pair int int))
    "buckets" [ (1, 2); (2, 1); (7, 1) ] hs.Metrics.hs_buckets

(* ---------------- probes across domains ---------------- *)

let listscan_fixture () =
  let image = Tea_workloads.Micro.list_scan () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy image in
  let traces = Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set in
  let packed = Tea_core.Packed.freeze (Tea_core.Builder.build traces) in
  let path = Filename.temp_file "tea_telemetry" ".trc" in
  let _ = Tea_pinsim.Trace_capture.record image path in
  (packed, path)

let replay_snapshot packed path jobs =
  Probe.install ();
  Fun.protect
    ~finally:(fun () -> if Probe.enabled () then ignore (Probe.uninstall ()))
    (fun () ->
      let profile, _ =
        Tea_parallel.Pool.with_pool ~jobs (fun pool ->
            Tea_parallel.Shard.replay_pc_trace pool packed path)
      in
      (profile, Probe.uninstall ()))

(* The acceptance bar: every probe counter and histogram of a --jobs 4 run
   equals the --jobs 1 values (one stream is one walk at any job count,
   so every step is replayed once from the true state). *)
let test_parallel_probe_equality () =
  let packed, path = listscan_fixture () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let p1, s1 = replay_snapshot packed path 1 in
      let p4, s4 = replay_snapshot packed path 4 in
      check Alcotest.bool "profiles equal" true
        (Tea_parallel.Profile.equal p1 p4);
      check Alcotest.bool "snapshots non-empty" false
        (Metrics.equal s1 Metrics.empty);
      if not (Metrics.equal s1 s4) then
        Alcotest.failf "probe snapshots differ:\n-- jobs 1 --\n%s-- jobs 4 --\n%s"
          (Tea_report.Stats.render s1) (Tea_report.Stats.render s4))

let test_disabled_is_noop () =
  check Alcotest.bool "disabled" false (Probe.enabled ());
  Probe.count "x" 3;
  Probe.observe "y" 7;
  check Alcotest.bool "metrics absent" true (Probe.metrics () = None);
  check Alcotest.bool "snapshot empty" true
    (Metrics.equal (Probe.snapshot ()) Metrics.empty);
  check Alcotest.int "with_span passes through" 42
    (Probe.with_span "s" (fun () -> 42))

(* ---------------- spans ---------------- *)

let test_span_nesting () =
  let sink = Span.create () in
  let r =
    Span.with_span sink "root" (fun () ->
        Span.with_span sink "child1" (fun () -> ());
        Span.with_span sink ~args:[ ("k", "v") ] "child2" (fun () -> 17))
  in
  check Alcotest.int "result" 17 r;
  (match Span.validate sink with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e);
  let evs = Span.events sink in
  check
    Alcotest.(list string)
    "order: parents before children" [ "root"; "child1"; "child2" ]
    (List.map (fun e -> e.Span.e_name) evs);
  let root = List.hd evs in
  List.iter
    (fun e ->
      check Alcotest.bool (e.Span.e_name ^ " inside root") true
        (e.Span.e_ts >= root.Span.e_ts
        && e.Span.e_ts +. e.Span.e_dur <= root.Span.e_ts +. root.Span.e_dur))
    (List.tl evs);
  let json = Span.to_chrome_json sink in
  check Alcotest.bool "chrome wrapper" true
    (String.length json > 16 && String.sub json 0 16 = {|{"traceEvents":[|});
  check Alcotest.int "jsonl lines" 3
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' (Span.to_jsonl sink))))

let test_span_unbalanced_detected () =
  let sink = Span.create () in
  let s = Span.enter sink "outer" in
  let inner = Span.enter sink "inner" in
  Span.exit sink inner;
  Span.exit sink s;
  check Alcotest.bool "balanced validates" true (Span.validate sink = Ok ());
  (* exiting out of order must be caught; the sleeps separate the
     timestamps so the overrun is visible at gettimeofday resolution *)
  let bad = Span.create () in
  let a = Span.enter bad "a" in
  Unix.sleepf 0.002;
  let b = Span.enter bad "b" in
  Unix.sleepf 0.002;
  Span.exit bad a;
  Unix.sleepf 0.002;
  Span.exit bad b;
  check Alcotest.bool "crossed spans rejected" true (Span.validate bad <> Ok ())

(* ---------------- --metrics golden ---------------- *)

let update_dir = Sys.getenv_opt "TEA_GOLDEN_UPDATE"

let golden_root =
  if Sys.file_exists "goldens" then "goldens" else Filename.concat "test" "goldens"

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

(* The text dump `tea_tool replay micro:listscan --metrics` produces:
   record under the DBT, replay through the Pin-like frontend, render the
   merged probe snapshot. Every counter on that path is simulated-time or
   event-count — no wall clock — so the rendering is frozen byte-for-byte. *)
let test_metrics_golden () =
  let image = Tea_workloads.Micro.list_scan () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  Probe.install ();
  let snap =
    Fun.protect
      ~finally:(fun () -> if Probe.enabled () then ignore (Probe.uninstall ()))
      (fun () ->
        let r = Tea_dbt.Stardbt.record ~strategy image in
        let traces = Tea_traces.Trace_set.to_list r.Tea_dbt.Stardbt.set in
        let _ = Tea_pinsim.Pintool_replay.replay ~traces image in
        Probe.uninstall ())
  in
  check_golden_file "metrics_listscan.txt"
    (Tea_report.Stats.render ~title:"telemetry" snap)

let () =
  Alcotest.run "telemetry"
    [
      ( "merge algebra",
        [
          qtest merge_associative;
          qtest merge_commutative;
          qtest merge_empty_neutral;
          qtest merge_partition;
          Alcotest.test_case "log2 buckets" `Quick test_buckets;
        ] );
      ( "probes",
        [
          Alcotest.test_case "disabled probes are no-ops" `Quick
            test_disabled_is_noop;
          Alcotest.test_case "jobs 4 merges to jobs 1, counter for counter"
            `Quick test_parallel_probe_equality;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and export" `Quick test_span_nesting;
          Alcotest.test_case "validation catches crossed spans" `Quick
            test_span_unbalanced_detected;
        ] );
      ( "golden",
        [ Alcotest.test_case "--metrics rendering" `Quick test_metrics_golden ] );
    ]

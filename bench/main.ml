(* Benchmark harness: regenerates every table of the paper's evaluation
   (default mode), runs Bechamel microbenchmarks of the operations each
   table stresses, and measures the replay engine's tuning ladder, the
   multi-asid scenarios, the retuning daemon and the observability plane.
   Every mode that writes a BENCH_<mode>.json file writes it in one row
   schema, and `validate` checks any such file against its mode's
   required gates and metrics.

   Usage:
     dune exec bench/main.exe                 # all 26 benchmarks, Tables 1-4
     dune exec bench/main.exe -- quick        # 8-benchmark subset
     dune exec bench/main.exe -- table1 ...   # a single table (--smoke: 3 benchmarks)
     dune exec bench/main.exe -- micro        # Bechamel microbenchmarks
     dune exec bench/main.exe -- packed       # compiled vs reference engines
     dune exec bench/main.exe -- telemetry    # disabled-probe cost gate
     dune exec bench/main.exe -- ablation | extensions
     dune exec bench/main.exe -- ladder | scenario | retune | observe [--smoke]
     dune exec bench/main.exe -- validate BENCH_ladder.json ...

   --telemetry FILE and --metrics wrap any mode but telemetry and
   validate in the probe set, as in tea_tool. *)

module Experiments = Tea_report.Experiments
module Json = Tea_benchmark.Json

let quick_set =
  [
    "171.swim"; "172.mgrid"; "177.mesa"; "164.gzip"; "176.gcc"; "181.mcf";
    "253.perlbmk"; "256.bzip2";
  ]

let progress fmt = Printf.eprintf (fmt ^^ "\n%!")

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("[bench] ERROR: " ^ s);
      exit 1)
    fmt

(* A compiled-engine replayer over [img]. *)
let compiled_replayer img =
  Tea_core.Replayer.create_compiled (Tea_core.Compiled.of_packed img)

(* ---- shared fixtures: workloads, recording, capture, tuning, timing ---- *)

(* the hot-loop micros the per-workload benches run before the SPEC set *)
let micro_set =
  [
    ("micro:listscan", fun () -> Tea_workloads.Micro.list_scan ());
    ("micro:copy", fun () -> Tea_workloads.Micro.copy_loop ());
    ("micro:nested", fun () -> Tea_workloads.Micro.nested_loop ());
    ("micro:branchy", fun () -> Tea_workloads.Micro.branchy_loop ());
  ]

let workload_image name =
  match List.assoc_opt name micro_set with
  | Some f -> f ()
  | None -> (
      match Tea_workloads.Spec2000.by_name name with
      | Some p -> Tea_workloads.Spec2000.image p
      | None -> invalid_arg ("bench: unknown workload " ^ name))

(* Record [strategy] traces under the DBT: the automaton and its flat
   packed image. *)
let record ~strategy image =
  let strategy = Option.get (Tea_traces.Registry.by_name strategy) in
  let dbt = Tea_dbt.Stardbt.record ~strategy image in
  let auto =
    Tea_core.Builder.build (Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set)
  in
  (auto, Tea_core.Packed.freeze auto)

(* The image's full PC stream, captured once: (starts, insns, len). *)
let capture image =
  let path = Filename.temp_file "tea_bench" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  ignore (Tea_pinsim.Trace_capture.record image path);
  Tea_parallel.Shard.load_pc_trace path

(* The tuning rungs above a flat image, both from the stream's one
   profile: profile-guided repack, then the same ladder with
   profile-aware fusion on top. *)
let tune flat starts ~len =
  let profile = Tea_opt.Repack.collect flat starts ~len in
  let build fuse = Tea_opt.Retune.build ~fuse ~profile flat in
  (build false, build true)

(* Best of 5 rounds after one warmup, every series sampled once per round
   so machine drift hits all of them alike. *)
let interleaved_best samplers =
  let best = Array.make (List.length samplers) infinity in
  for round = 0 to 5 do
    List.iteri
      (fun i sample ->
        let dt = sample () in
        if round > 0 then best.(i) <- min best.(i) dt)
      samplers
  done;
  best

(* One replay of a short stream is microseconds, far below timer
   resolution, so a sample times [reps] back-to-back replays. *)
let reps_for len = 1 + (2_000_000 / max 1 len)

(* A sampler timing [reps] compiled replays of the stream over [img],
   compiled once outside the timed loop. *)
let replay_sampler ~reps img starts insns ~len =
  let c = Tea_core.Compiled.of_packed img in
  fun () ->
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      Tea_core.Replayer.feed_run
        (Tea_core.Replayer.create_compiled c)
        ~insns starts ~len
    done;
    Unix.gettimeofday () -. t0

(* Replay steps spent inside fused chains, read from the compiled batch's
   own delta rather than the probe set, so the count is the same whether
   or not the harness runs under --telemetry/--metrics. *)
let fused_steps img starts insns ~len =
  let c = Tea_core.Compiled.of_packed img in
  let counts = Array.make (Tea_core.Packed.n_counters img) 0 in
  (Tea_core.Compiled.run c (Tea_core.Compiled.rare ())
     ~state:Tea_core.Automaton.nte ~counts starts insns ~len)
    .Tea_core.Compiled.d_fused_steps

let run_tables ~benchmarks ~which =
  progress "[bench] preparing %d benchmarks (recording mret/ctt/tt under the DBT)..."
    (List.length benchmarks);
  let t0 = Unix.gettimeofday () in
  let benches = Experiments.prepare ~benchmarks () in
  progress "[bench] prepare done in %.1fs" (Unix.gettimeofday () -. t0);
  let wants t = which = [] || List.mem t which in
  if wants "table1" then begin
    progress "[bench] table 1 (size savings)...";
    print_string (Experiments.render_table1 (Experiments.table1 benches));
    print_newline ()
  end;
  if wants "table2" then begin
    progress "[bench] table 2 (replaying)...";
    print_string (Experiments.render_table2 (Experiments.table2 benches));
    print_newline ()
  end;
  if wants "table3" then begin
    progress "[bench] table 3 (recording)...";
    print_string (Experiments.render_table3 (Experiments.table3 benches));
    print_newline ()
  end;
  if wants "table4" then begin
    progress "[bench] table 4 (overhead ablation)...";
    print_string (Experiments.render_table4 (Experiments.table4 benches));
    print_newline ()
  end;
  progress "[bench] total %.1fs" (Unix.gettimeofday () -. t0)

(* ---- Bechamel microbenchmarks: the hot operation behind each table ---- *)

let micro_env () =
  (* A mid-sized workload and its MRET traces as a shared fixture. *)
  let profile = Option.get (Tea_workloads.Spec2000.by_name "176.gcc") in
  let image = Tea_workloads.Spec2000.image profile in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let result = Tea_dbt.Stardbt.record ~strategy image in
  let traces = Tea_traces.Trace_set.to_list result.Tea_dbt.Stardbt.set in
  (image, traces)

let benchmarks () =
  let open Bechamel in
  let image, traces = micro_env () in
  let auto = Tea_core.Builder.build traces in
  let heads = Tea_core.Automaton.heads auto in
  let addrs = Array.of_list (List.map fst heads) in
  let n = Array.length addrs in
  (* Table 1's core cost: building the automaton from a trace set and
     measuring its serialized size. *)
  let table1 =
    Test.make ~name:"table1/algorithm1-build"
      (Staged.stage (fun () ->
           let a = Tea_core.Builder.build traces in
           Sys.opaque_identity (Tea_core.Automaton.byte_size a)))
  in
  (* Table 2's core cost: one replay transition step (Global/Local). *)
  let step_test name config =
    let trans = Tea_core.Transition.create config auto in
    let i = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           incr i;
           let pc = addrs.(!i mod n) in
           Sys.opaque_identity (Tea_core.Transition.step trans Tea_core.Automaton.nte pc)))
  in
  (* Table 3's core cost: the Algorithm 2 state machine on a block stream. *)
  let blocks =
    let acc = ref [] in
    let cb =
      {
        Tea_cfg.Discovery.on_block = (fun b -> if List.length !acc < 4096 then acc := b :: !acc);
        Tea_cfg.Discovery.on_edge = (fun _ _ -> ());
      }
    in
    let _ = Tea_cfg.Discovery.run ~fuel:200_000 image cb in
    Array.of_list (List.rev !acc)
  in
  let table3 =
    let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
    let online = ref (Tea_core.Online.create strategy) in
    let i = ref 0 in
    Test.make ~name:"table3/algorithm2-feed"
      (Staged.stage (fun () ->
           if !i mod 100_000 = 0 then online := Tea_core.Online.create strategy;
           incr i;
           Tea_core.Online.feed !online blocks.(!i mod Array.length blocks)))
  in
  (* The packed engine's version of the same cross-trace step. *)
  let step_packed =
    let packed = Tea_core.Packed.freeze auto in
    let counts = Array.make (Tea_core.Packed.n_counters packed) 0 in
    let cycles = ref 0 in
    let i = ref 0 in
    Test.make ~name:"table4/step-packed"
      (Staged.stage (fun () ->
           incr i;
           let pc = addrs.(!i mod n) in
           Sys.opaque_identity
             (Tea_core.Packed.step packed counts cycles Tea_core.Automaton.nte
                pc)))
  in
  [
    table1;
    step_test "table2/replay-step-global-local" Tea_core.Transition.config_global_local;
    table3;
    step_test "table4/step-no-global-local" Tea_core.Transition.config_no_global_local;
    step_test "table4/step-global-no-local" Tea_core.Transition.config_global_no_local;
    step_test "table4/step-global-local" Tea_core.Transition.config_global_local;
    step_packed;
  ]

let run_micro () =
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-40s %12.1f ns/op\n%!" name est
          | Some _ | None -> Printf.printf "%-40s (no estimate)\n%!" name)
        ols)
    (benchmarks ())


(* Head-to-head replay throughput: the compiled engine vs the three Table 4
   reference configurations on the list-scan micro's full PC stream. The
   target is compiled >= 5x the Global/Local reference engine. *)
let run_head_to_head () =
  let image = Tea_workloads.Micro.list_scan () in
  let auto, packed = record ~strategy:"mret" image in
  (* Capture the block stream once and decode it once: both engines replay
     the identical pre-decoded (starts, insns) arrays. *)
  let starts, insns, n_blocks = capture image in
  progress "[bench] compiled head-to-head: %d blocks from micro:listscan"
    n_blocks;
  let time_replay mk_rep =
    (* best of 5, one warmup *)
    let best = ref infinity in
    let last = ref None in
    for round = 0 to 5 do
      let rep = mk_rep () in
      let t0 = Unix.gettimeofday () in
      Tea_core.Replayer.feed_run rep ~insns starts ~len:n_blocks;
      let dt = Unix.gettimeofday () -. t0 in
      if round > 0 && dt < !best then best := dt;
      last := Some rep
    done;
    (!best, Option.get !last)
  in
  let reference name config =
    let dt, rep =
      time_replay (fun () ->
          Tea_core.Replayer.create (Tea_core.Transition.create config auto))
    in
    (name, dt, rep)
  in
  let compiled_dt, compiled_rep =
    time_replay (fun () -> compiled_replayer packed)
  in
  let rows =
    [
      reference "no-global/local" Tea_core.Transition.config_no_global_local;
      reference "global/no-local" Tea_core.Transition.config_global_no_local;
      reference "global/local" Tea_core.Transition.config_global_local;
      ("compiled", compiled_dt, compiled_rep);
    ]
  in
  List.iter
    (fun (name, dt, rep) ->
      Printf.printf "%-16s %8.1f ns/block  (coverage %.1f%%, %d enters)\n" name
        (1e9 *. dt /. float_of_int n_blocks)
        (100.0 *. Tea_core.Replayer.coverage rep)
        (Tea_core.Replayer.trace_enters rep))
    rows;
  let gl_dt =
    let _, dt, _ = List.nth rows 2 in
    dt
  in
  Printf.printf "compiled speedup vs global/local: %.1fx (target >= 5x)\n"
    (gl_dt /. compiled_dt);
  (* the engines must agree bit-for-bit on what they replayed *)
  let gl_rep = match List.nth rows 2 with _, _, r -> r in
  if
    Tea_core.Replayer.coverage gl_rep <> Tea_core.Replayer.coverage compiled_rep
    || Tea_core.Replayer.trace_enters gl_rep
       <> Tea_core.Replayer.trace_enters compiled_rep
    || Tea_core.Replayer.tbb_counts gl_rep
       <> Tea_core.Replayer.tbb_counts compiled_rep
  then die "compiled and reference engines disagree"

let run_ablations () =
  progress "[bench] ablation: selection strategies (incl. MFET)...";
  print_string (Tea_report.Ablations.(render_strategies (strategies ())));
  print_newline ();
  progress "[bench] ablation: local-cache size sweep...";
  print_string (Tea_report.Ablations.(render_cache_slots (cache_slots ())));
  print_newline ();
  progress "[bench] ablation: hot-threshold sweep...";
  print_string (Tea_report.Ablations.(render_hot_threshold (hot_threshold ())))

(* Extension studies: the simulator-side use cases of §1, exercised on a
   few benchmarks so the bench output demonstrates them end to end. *)
let run_extensions () =
  let mret = Option.get (Tea_traces.Registry.by_name "mret") in
  let with_traces name f =
    match Tea_workloads.Spec2000.by_name name with
    | None -> ()
    | Some p ->
        let image = Tea_workloads.Spec2000.image p in
        let dbt = Tea_dbt.Stardbt.record ~strategy:mret image in
        f image (Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set)
  in
  progress "[bench] extension: per-trace cache attribution (181.mcf)...";
  with_traces "181.mcf" (fun image traces ->
      let report = Tea_cachesim.Collector.profile ~traces image in
      print_string (Tea_cachesim.Collector.render report);
      print_newline ());
  progress "[bench] extension: per-trace branch prediction (186.crafty)...";
  with_traces "186.crafty" (fun image traces ->
      let report = Tea_bpred.Collector.profile ~traces image in
      print_string (Tea_bpred.Collector.render report);
      print_newline ());
  progress "[bench] extension: trace-cache layout study (scattered micro)...";
  let scattered = Tea_workloads.Micro.scattered () in
  let dbt = Tea_dbt.Stardbt.record ~strategy:mret scattered in
  let r =
    Tea_cachesim.Layout.study
      ~traces:(Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set)
      scattered
  in
  print_string (Tea_cachesim.Layout.render r);
  print_newline ();
  progress "[bench] extension: profile-weighted optimization (171.swim)...";
  with_traces "171.swim" (fun image traces ->
      let auto = Tea_core.Builder.build traces in
      let trans =
        Tea_core.Transition.create Tea_core.Transition.config_global_local auto
      in
      let rep = Tea_core.Replayer.create trans in
      let filter =
        Tea_pinsim.Edge_filter.create ~emit:(fun b ~expanded ->
            Tea_core.Replayer.feed_addr rep ~insns:expanded b.Tea_cfg.Block.start)
      in
      let _ = Tea_pinsim.Pin.run ~tool:(Tea_pinsim.Edge_filter.callbacks filter) image in
      Tea_pinsim.Edge_filter.flush filter;
      let total =
        List.fold_left
          (fun acc t -> acc + (Tea_opt.Opt.weighted rep t).Tea_opt.Opt.expected_cycles)
          0 traces
      in
      Printf.printf
        "expected cycles recovered by optimizing swim's traces: %d (of %d native)\n"
        total (Tea_pinsim.Pin.native_cycles image))

(* ---- telemetry overhead gate ----

   The probes compiled into the hot paths must cost nothing when nothing
   is installed: the disabled entry point is one atomic load and a
   branch. This mode pins that down empirically on the compiled replay
   of micro:listscan's full PC stream: two disabled series, alternated
   sample by sample over 101 pairs so slow machine drift (frequency
   scaling, neighbours) hits both equally and the series swap which
   samples first on every other pair, must agree within 2% in the
   median of their per-pair ratios — a statistic one noisy pair cannot
   move, where any systematic probe cost would show on every pair. The
   telemetry-enabled series is reported alongside for scale. *)
let run_telemetry () =
  let image = Tea_workloads.Micro.list_scan () in
  let _, packed = record ~strategy:"mret" image in
  let starts, insns, len = capture image in
  progress "[bench] telemetry overhead gate: %d blocks from micro:listscan" len;
  (* one replay of the stream is ~100us, so each sample times [reps]
     back-to-back replays (tens of ms) *)
  let reps = 100 in
  let ns_per_block dt = 1e9 *. dt /. float_of_int (reps * len) in
  let sample = replay_sampler ~reps packed starts insns ~len in
  let median xs =
    let s = Array.copy xs in
    Array.sort compare s;
    s.(Array.length s / 2)
  in
  ignore (sample ());
  let pairs =
    Array.init 101 (fun i ->
        if i mod 2 = 0 then
          let a = sample () in
          (a, sample ())
        else
          let b = sample () in
          (sample (), b))
  in
  let drift =
    abs_float (median (Array.map (fun (a, b) -> a /. b) pairs) -. 1.0)
  in
  let disabled = median (Array.map fst pairs) in
  Printf.printf
    "telemetry disabled: %8.1f ns/block vs %8.1f ns/block  (median per-pair \
     drift %.2f%% over %d pairs, gate 2%%)\n"
    (ns_per_block disabled)
    (ns_per_block (median (Array.map snd pairs)))
    (100.0 *. drift) (Array.length pairs);
  if drift > 0.02 then
    die
      "disabled-telemetry replay drifts more than 2%% — the no-op probe path \
       is not free";
  Tea_telemetry.Probe.install ();
  let enabled = median (Array.init 9 (fun _ -> sample ())) in
  let snap = Tea_telemetry.Probe.uninstall () in
  Printf.printf "telemetry enabled:  %8.1f ns/block  (+%.1f%% vs disabled)\n"
    (ns_per_block enabled)
    (100.0 *. ((enabled /. disabled) -. 1.0));
  let steps =
    Option.value ~default:0
      (Tea_telemetry.Metrics.find_counter snap "replayer.steps")
  in
  Printf.printf "probe counters collected while enabled: replayer.steps=%d\n"
    steps;
  if steps <> 9 * reps * len then
    die "enabled-telemetry run missed replay steps"

(* ---- one BENCH row schema ----

   Every BENCH_<mode>.json is
     {"bench": mode, "smoke": bool, "gates": [...],
      "rows": [{"workload", "engine", "jobs", "metric", "value"}, ...]}.
   [gates] names the hard gates the run enforced; a failing gate exits 1
   before anything is written, so a gate listed in a file is a gate that
   held. Summary values (geomeans, floors, configuration) are rows with
   workload "*". Each mode declares a [spec] next to its runner: the gates
   it must list, the workloads it must cover, the rows derived from other
   rows (recomputed and compared on validation) and the invariants its
   rows must satisfy. The writer validates the rows against the spec
   before writing, and `validate` re-checks a file against the same spec
   after the fact. *)

type row = {
  workload : string;
  engine : string;
  jobs : int;
  metric : string;
  value : float;
}

let row ?(jobs = 1) workload engine metric value =
  { workload; engine; jobs; metric; value }

let rowi ?jobs workload engine metric n =
  row ?jobs workload engine metric (float_of_int n)

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt
let expect cond fmt = Printf.ksprintf (fun s -> if not cond then raise (Invalid s)) fmt

let value ?(jobs = 1) rows workload engine metric =
  match
    List.find_opt
      (fun r ->
        r.workload = workload && r.engine = engine && r.metric = metric
        && r.jobs = jobs)
      rows
  with
  | Some r -> r.value
  | None -> invalid "missing row %s / %s / jobs %d / %s" workload engine jobs metric

type spec = {
  gates : string list;
  workloads : smoke:bool -> string list;  (** exactly the non-"*" workloads *)
  derive : smoke:bool -> row list -> row list;
  check : smoke:bool -> row list -> unit;
}

let close_to a b = abs_float (a -. b) <= (1e-3 *. abs_float b) +. 1e-9

(* The checks every file gets, then its mode's own. Raises [Invalid]. *)
let check_rows spec ~smoke ~gates rows =
  List.iter
    (fun g -> expect (List.mem g gates) "required gate missing: %S" g)
    spec.gates;
  let seen = Hashtbl.create 256 in
  List.iter
    (fun r ->
      let key = (r.workload, r.engine, r.jobs, r.metric) in
      expect (not (Hashtbl.mem seen key)) "duplicate row %s / %s / %s"
        r.workload r.engine r.metric;
      Hashtbl.add seen key ();
      expect
        (Float.is_finite r.value && r.value >= 0.0)
        "%s / %s / %s: value %g is not a finite non-negative number"
        r.workload r.engine r.metric r.value;
      expect (r.jobs >= 1) "%s / %s: jobs %d < 1" r.workload r.engine r.jobs)
    rows;
  let covered =
    List.sort_uniq compare
      (List.filter_map
         (fun r -> if r.workload = "*" then None else Some r.workload)
         rows)
  in
  let want = List.sort_uniq compare (spec.workloads ~smoke) in
  expect (covered = want) "workloads [%s], expected [%s]"
    (String.concat ", " covered) (String.concat ", " want);
  List.iter
    (fun d ->
      let v = value ~jobs:d.jobs rows d.workload d.engine d.metric in
      expect (close_to v d.value) "%s / %s / %s: %g, recomputed %g" d.workload
        d.engine d.metric v d.value)
    (spec.derive ~smoke rows);
  spec.check ~smoke rows

(* Shortest exact text for integers, six significant digits otherwise. *)
let num v =
  if Float.is_integer v && abs_float v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

(* Validate [rows] (plus the spec's derived rows, appended) and write
   BENCH_<bench>.json. An invalid row set exits 1, writing nothing. *)
let write_bench spec ~bench ~smoke rows =
  let rows = rows @ spec.derive ~smoke rows in
  let gates = spec.gates in
  (try check_rows spec ~smoke ~gates rows
   with Invalid msg -> die "%s: %s" bench msg);
  let file = "BENCH_" ^ bench ^ ".json" in
  let last = List.length rows - 1 in
  let oc = open_out file in
  Printf.fprintf oc "{\"bench\": %s, \"smoke\": %b,\n \"gates\": [%s],\n \"rows\": [\n"
    (Json.escape bench) smoke
    (String.concat ",\n  " (List.map Json.escape gates));
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "  {\"workload\": %s, \"engine\": %s, \"jobs\": %d, \"metric\": %s, \
         \"value\": %s}%s\n"
        (Json.escape r.workload) (Json.escape r.engine) r.jobs
        (Json.escape r.metric) (num r.value)
        (if i = last then "" else ","))
    rows;
  output_string oc " ]}\n";
  close_out oc;
  progress "[bench] wrote %s (%d rows, %d gates held)" file (List.length rows)
    (List.length gates)

(* ---- the tuning ladder: the BENCH_ladder.json trajectory ----

   For every workload, capture the PC stream once. For each trace
   selection strategy, record traces and build three rungs on that
   stream: the flat image, profile-guided repack, and profile-aware
   fusion over the repacked layout. Condition-tree (ctt) traces give the
   branching spans repacking reorders and closure compilation
   specializes; MRET superblocks give the chain-rich shape fusion
   targets. Hard gates, all enforced before anything is timed (exit 1):
   - every rung's compiled TBB mapping equals the reference Transition
     engine's on the raw automaton;
   - every rung's compiled Profile (simulated cycles included) equals
     step-at-a-time replay of the same image ({!Tea_core.Packed.step},
     the cycle reference);
   - repack never charges more simulated cycles than flat: the per-state
     argmin always has the source layout as a candidate, so a violation
     is a bug, not a tuning miss;
   - fuse's Profile equals repack's: fusion is a pure dispatch-cost
     optimization.
   Then the compiled replay of all six rungs is timed, interleaved in the
   same rounds. A fuse rung is loopy when at least half its replay steps
   run inside fused chains, branchy otherwise. Wall-clock numbers are
   machine-dependent and reported, not gated. *)

let ladder_strategies = [ "ctt"; "mret" ]
let ladder_rungs = [ "flat"; "repack"; "fuse" ]

let ladder_workloads ~smoke =
  if smoke then [ "micro:listscan"; "181.mcf" ]
  else List.map fst micro_set @ Tea_workloads.Spec2000.names

let ladder_gates =
  [
    "compiled TBB mapping == reference Transition engine, every rung";
    "compiled Profile and cycles == step-at-a-time replay, every rung";
    "repack sim_cycles <= flat sim_cycles";
    "fuse Profile == repack Profile";
  ]

(* One workload: gate every rung, time them all, return its rows. *)
let ladder_workload name =
  let image = workload_image name in
  let starts, insns, len = capture image in
  let rungs =
    List.concat_map
      (fun strategy ->
        let auto, flat = record ~strategy image in
        let repacked, fused = tune flat starts ~len in
        let reference =
          Tea_core.Replayer.create
            (Tea_core.Transition.create Tea_core.Transition.config_global_local
               auto)
        in
        Tea_core.Replayer.feed_run reference ~insns starts ~len;
        let gate rung img =
          let engine = strategy ^ "/" ^ rung in
          let _, step, comp =
            Tea_opt.Compile.compiled_replay img ~insns starts ~len
          in
          if
            Tea_core.Replayer.tbb_counts comp
            <> Tea_core.Replayer.tbb_counts reference
          then
            die "%s %s: compiled TBB mapping diverged from the reference engine"
              name engine;
          let p = Tea_parallel.Profile.of_replayer comp in
          if not (Tea_parallel.Profile.equal p (Tea_parallel.Profile.of_replayer step))
          then
            die
              "%s %s: compiled Profile or cycles diverged from step-at-a-time \
               replay"
              name engine;
          (rung, engine, img, p)
        in
        let ((_, _, _, pf) as f) = gate "flat" flat in
        let ((_, _, _, pr) as r) = gate "repack" repacked in
        let ((_, _, _, pu) as u) = gate "fuse" fused in
        let cycles (p : Tea_parallel.Profile.t) = p.cycles in
        if cycles pr > cycles pf then
          die "%s %s: repacked charges more simulated cycles (%d > %d)" name
            strategy (cycles pr) (cycles pf);
        if not (Tea_parallel.Profile.equal pu pr) then
          die "%s %s: fused replay diverged from the repacked rung" name strategy;
        [ f; r; u ])
      ladder_strategies
  in
  let reps = reps_for len in
  let best =
    interleaved_best
      (List.map
         (fun (_, _, img, _) -> replay_sampler ~reps img starts insns ~len)
         rungs)
  in
  rowi name "capture" "blocks" len
  :: List.concat
       (List.mapi
          (fun i (rung, engine, img, (p : Tea_parallel.Profile.t)) ->
            let r = row name engine and ri = rowi name engine in
            let extra =
              match rung with
              | "repack" ->
                  [
                    ri "hot_edges" (Tea_core.Packed.hot_edges img);
                    ri "moved_states" (Tea_opt.Repack.moved_states img);
                  ]
              | "fuse" ->
                  let c = Tea_core.Compiled.of_packed img in
                  [
                    r "fused_step_fraction"
                      (float_of_int (fused_steps img starts insns ~len)
                      /. float_of_int (max 1 len));
                    ri "chains" (Tea_core.Packed.n_chains img);
                    ri "cyclic_chains" (Tea_core.Packed.n_cyclic_chains img);
                    ri "fused_states" (Tea_core.Packed.fused_edges img);
                    ri "closures" (Tea_core.Compiled.n_closures c);
                    ri "chain_matchers" (Tea_core.Compiled.chained_states c);
                  ]
              | _ -> []
            in
            ri "sim_cycles" p.cycles
            :: r "ns_per_block" (1e9 *. best.(i) /. float_of_int (reps * len))
            :: extra)
          rungs)

(* The summary rows, from the per-workload rows: per rung, the geomean
   ns/block; per tuning step, the geomean and slowest speedup over the
   rung below and the geomean cycle ratio; for fusion, the speedup over
   loopy workloads and the ns/block over branchy ones (each falling back
   to every workload when the class is empty); and the tuning passes'
   configuration. *)
let ladder_summary ~smoke rows =
  let workloads = ladder_workloads ~smoke in
  let geo f ws = Tea_report.Stats.geomean (List.map f (if ws = [] then workloads else ws)) in
  List.concat_map
    (fun s ->
      let e rung = s ^ "/" ^ rung in
      let v rung m w = value rows w (e rung) m in
      let ns rung = v rung "ns_per_block" in
      let loopy, branchy =
        List.partition (fun w -> v "fuse" "fused_step_fraction" w >= 0.5) workloads
      in
      List.map
        (fun rung -> row "*" (e rung) "geomean_ns_per_block" (geo (ns rung) []))
        ladder_rungs
      @ List.concat_map
          (fun (lo, hi) ->
            let speedup w = ns lo w /. ns hi w in
            [
              row "*" (e hi) "geomean_speedup" (geo speedup []);
              row "*" (e hi) "min_speedup"
                (List.fold_left (fun m w -> min m (speedup w)) infinity workloads);
              row "*" (e hi) "geomean_cycle_ratio"
                (geo (fun w -> v hi "sim_cycles" w /. v lo "sim_cycles" w) []);
            ])
          [ ("flat", "repack"); ("repack", "fuse") ]
      @ [
          row "*" (e "fuse") "geomean_speedup_loopy"
            (geo (fun w -> ns "repack" w /. ns "fuse" w) loopy);
          row "*" (e "fuse") "geomean_ns_per_block_branchy"
            (geo (ns "fuse") branchy);
        ])
    ladder_strategies
  @ [
      rowi "*" "config" "hot_prefix_cap" Tea_opt.Repack.default_hot_prefix;
      rowi "*" "config" "min_chain" Tea_opt.Fuse.default_min_chain;
      row "*" "config" "min_expected_run" Tea_opt.Fuse.default_min_expected_run;
      row "*" "config" "min_coverage" Tea_opt.Fuse.default_min_coverage;
    ]

(* every rung's metrics, beyond the sim_cycles and ns_per_block all carry *)
let ladder_rung_metrics = function
  | "repack" -> [ "hot_edges"; "moved_states" ]
  | "fuse" ->
      [
        "fused_step_fraction"; "chains"; "cyclic_chains"; "fused_states";
        "closures"; "chain_matchers";
      ]
  | _ -> []

let ladder_check ~smoke rows =
  List.iter
    (fun w ->
      expect (value rows w "capture" "blocks" > 0.0) "%s: no blocks" w;
      List.iter
        (fun s ->
          let v rung m = value rows w (s ^ "/" ^ rung) m in
          List.iter
            (fun rung ->
              expect (v rung "sim_cycles" > 0.0) "%s %s/%s: no cycles" w s rung;
              expect (v rung "ns_per_block" > 0.0) "%s %s/%s: no time" w s rung;
              List.iter (fun m -> ignore (v rung m)) (ladder_rung_metrics rung))
            ladder_rungs;
          expect
            (v "repack" "sim_cycles" <= v "flat" "sim_cycles")
            "%s %s: repack charges more cycles than flat" w s;
          expect
            (v "fuse" "sim_cycles" = v "repack" "sim_cycles")
            "%s %s: fuse cycles differ from repack" w s;
          expect
            (v "fuse" "fused_step_fraction" <= 1.0)
            "%s %s: fused-step fraction above 1" w s;
          expect
            (v "fuse" "cyclic_chains" <= v "fuse" "chains")
            "%s %s: more cyclic chains than chains" w s;
          expect (v "fuse" "closures" > 0.0) "%s %s: no closures" w s)
        ladder_strategies)
    (ladder_workloads ~smoke);
  List.iter
    (fun s ->
      expect
        (value rows "*" (s ^ "/repack") "geomean_cycle_ratio" <= 1.0)
        "%s: repacking raised geomean simulated cycles" s)
    ladder_strategies;
  expect
    (List.exists
       (fun r -> r.metric = "fused_step_fraction" && r.value < 0.5)
       rows)
    "no branchy fuse rung";
  expect (value rows "*" "config" "min_chain" >= 1.0) "min_chain < 1";
  expect (value rows "*" "config" "min_expected_run" > 0.0) "min_expected_run <= 0";
  expect
    (let c = value rows "*" "config" "min_coverage" in
     c > 0.0 && c <= 1.0)
    "min_coverage outside (0, 1]"

let ladder_spec =
  {
    gates = ladder_gates;
    workloads = ladder_workloads;
    derive = ladder_summary;
    check = ladder_check;
  }

let run_ladder ~smoke =
  let names = ladder_workloads ~smoke in
  progress
    "[bench] ladder: %d workloads x %s traces, flat -> repack -> fuse, \
     compiled replay..."
    (List.length names)
    (String.concat "/" ladder_strategies);
  let rows =
    List.concat_map
      (fun name ->
        let rows = ladder_workload name in
        List.iter
          (fun s ->
            let v rung m = value rows name (s ^ "/" ^ rung) m in
            let ns rung = v rung "ns_per_block" in
            let frac = v "fuse" "fused_step_fraction" in
            Printf.printf
              "%-16s %-4s flat %5.1f  repack %5.1f ns (%.2fx, cycles %.3fx)  \
               fuse %5.1f ns (%.2fx)  %4.1f%% fused steps  [%s]\n%!"
              name s (ns "flat") (ns "repack")
              (ns "flat" /. ns "repack")
              (v "repack" "sim_cycles" /. v "flat" "sim_cycles")
              (ns "fuse")
              (ns "repack" /. ns "fuse")
              (100.0 *. frac)
              (if frac >= 0.5 then "loopy" else "branchy"))
          ladder_strategies;
        rows)
      names
  in
  List.iter
    (fun r ->
      if r.workload = "*" && r.engine <> "config" then
        Printf.printf "%-12s %-28s %.3f\n" r.engine r.metric r.value)
    (ladder_summary ~smoke rows);
  write_bench ladder_spec ~bench:"ladder" ~smoke rows

(* ---- adversarial scenarios: the BENCH_scenario.json trajectory ----

   Rows cover the three hazard classes over >= 3 base workloads:
   multi-asid interleaving (round-robin and seeded-random schedules over
   all bases at once), self-modifying code (periodic invalidation per
   base) and mid-trace interrupts (a periodic signal per base). Every row
   enforces its hard gate before it is timed — demuxed replay
   ([Multi_replayer] AND [Shard.replay_events] on pools of 2 and 4,
   over flat AND repack+fuse-tuned per-asid images) must produce per-asid
   Profile snapshots equal to replaying each asid's projection in
   isolation; any divergence exits 1. Timing is the demuxed replay of
   the synthesized event file over the flat images (decode included):
   sequential ([Multi_replayer], jobs 1) and pipelined
   ([Shard.replay_events] on a pool of 2, one worker decoding and the
   other replaying; its own jobs-2 row). Every row is timed in the same
   alternated rounds, as the ladder's rungs are, and reports its minimum
   over 5 rounds after one warmup. *)

module Scenario = Tea_workloads.Scenario

type scn_prep = {
  sp_stream : Scenario.stream;
  sp_flat : Tea_core.Packed.t;
  sp_tuned : Tea_core.Packed.t;  (** repacked then fused on its own stream *)
}

let scn_prep asid name =
  let image = workload_image name in
  let _, flat = record ~strategy:"mret" image in
  let path = Filename.temp_file "tea_bench" ".trc" in
  let _ = Tea_pinsim.Trace_capture.record image path in
  let stream = Scenario.load_stream ~asid ~name path in
  Sys.remove path;
  let _, tuned =
    tune flat stream.Scenario.starts ~len:stream.Scenario.len
  in
  { sp_stream = stream; sp_flat = flat; sp_tuned = tuned }

let scn_engines = [ "flat"; "repack+fuse" ]

let scn_gates =
  List.concat_map
    (fun engine ->
      List.map
        (Printf.sprintf
           "%s demuxed == isolated per-asid Profile equality, jobs %d" engine)
        [ 1; 2; 4 ])
    scn_engines

let scn_bases ~smoke =
  if smoke then [ "micro:listscan"; "micro:copy"; "181.mcf" ]
  else [ "micro:listscan"; "micro:copy"; "micro:branchy"; "181.mcf"; "164.gzip" ]

(* Row labels: two interleavings over all bases, then one smc and one
   interrupt row per base. *)
let scn_workloads ~smoke =
  let bases = scn_bases ~smoke in
  [ "interleave-rr"; "interleave-rand" ]
  @ List.map (( ^ ) "smc:") bases
  @ List.map (( ^ ) "interrupt:") bases

let scn_snap_eq a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x, p) (y, q) -> x = y && Tea_parallel.Profile.equal p q)
       a b

(* Write one row's event file and enforce its gate; return samplers
   timing [reps] demuxed replays of it, sequential and on [pool], and the
   rows for their best times. *)
let scenario_row ~label ~pool (preps : scn_prep array) file scn =
  let n_events = Scenario.write_file file scn in
  let gate engine img_for =
    let make a = compiled_replayer (img_for a) in
    let isolated = Tea_core.Multi_replayer.replay_isolated make file in
    let check jobs demuxed =
      if not (scn_snap_eq demuxed isolated) then
        die "%s: %s demuxed replay (jobs %d) diverged from isolated per-asid \
             replay"
          label engine jobs
    in
    check 1
      (Tea_core.Multi_replayer.snapshots
         (Tea_core.Multi_replayer.replay_events make file));
    List.iter
      (fun jobs ->
        Tea_parallel.Pool.with_pool ~jobs (fun pool ->
            check jobs (Tea_parallel.Shard.replay_events pool img_for file)))
      [ 2; 4 ]
  in
  gate "flat" (fun a -> preps.(a).sp_flat);
  gate "repack+fuse" (fun a -> preps.(a).sp_tuned);
  let runs = Tea_parallel.Shard.load_events file in
  let blocks =
    List.fold_left
      (fun acc (_, rs) ->
        List.fold_left (fun acc r -> acc + r.Tea_parallel.Shard.len) acc rs)
      0 runs
  in
  let n_runs = List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 runs in
  let make_flat a = compiled_replayer preps.(a).sp_flat in
  let reps = 1 + (500_000 / max 1 n_events) in
  let timed replay () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (replay ())
    done;
    Unix.gettimeofday () -. t0
  in
  let sequential () = Tea_core.Multi_replayer.replay_events make_flat file in
  let pipelined () =
    Tea_parallel.Shard.replay_events pool
      (fun a -> preps.(a).sp_flat)
      ~make:compiled_replayer file
  in
  let rows best best2 =
    let ns b = 1e9 *. b /. float_of_int (reps * n_events) in
    Printf.printf
      "%-24s %d asids  %7d events  %7d blocks in %3d runs  %6.1f ns/event  \
       %6.1f at jobs 2  [gate ok]\n%!"
      label (List.length runs) n_events blocks n_runs (ns best) (ns best2);
    let r = rowi label "flat" in
    [
      r "asids" (List.length runs);
      r "events" n_events;
      r "blocks" blocks;
      r "runs" n_runs;
      row label "flat" "ns_per_event" (ns best);
      row ~jobs:2 label "flat" "ns_per_event" (ns best2);
    ]
  in
  ([ timed sequential; timed pipelined ], rows)

let scn_check ~smoke rows =
  let n_bases = List.length (scn_bases ~smoke) in
  List.iter
    (fun w ->
      let v = value rows w "flat" in
      expect (v "events" >= v "blocks" && v "blocks" > 0.0)
        "%s: events < blocks or no blocks" w;
      expect (v "runs" >= 1.0) "%s: no runs" w;
      expect (v "ns_per_event" > 0.0) "%s: no time" w;
      expect
        (value ~jobs:2 rows w "flat" "ns_per_event" > 0.0)
        "%s: no jobs-2 time" w;
      let want = if String.starts_with ~prefix:"interleave" w then n_bases else 1 in
      expect (v "asids" = float_of_int want) "%s: %g asids, expected %d" w
        (v "asids") want)
    (scn_workloads ~smoke)

let scenario_spec =
  {
    gates = scn_gates;
    workloads = scn_workloads;
    derive = (fun ~smoke:_ _ -> []);
    check = scn_check;
  }

let run_scenario ~smoke =
  let bases = scn_bases ~smoke in
  progress
    "[bench] scenario: %d bases, mret traces, gating demuxed vs isolated at \
     jobs 1/2/4, flat and repack+fuse..."
    (List.length bases);
  let preps = Array.of_list (List.mapi scn_prep bases) in
  let streams = Array.to_list (Array.map (fun p -> p.sp_stream) preps) in
  let interrupt_every s = max 32 (s.Scenario.len / 8) in
  let scenarios =
    [ ("interleave-rr",
       Scenario.interleave ~quantum:8 ~schedule:Scenario.Round_robin streams);
      ("interleave-rand",
       Scenario.interleave ~quantum:8 ~schedule:(Scenario.Random_sched 42)
         streams) ]
    @ List.map
        (fun s -> ("smc:" ^ s.Scenario.name, Scenario.smc ~period:64 s))
        streams
    @ List.map
        (fun s ->
          ( "interrupt:" ^ s.Scenario.name,
            Scenario.interrupt ~every:(interrupt_every s) s ))
        streams
  in
  let files = List.map (fun _ -> Filename.temp_file "tea_scn" ".trc") scenarios in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove files) @@ fun () ->
  Tea_parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
  let gated =
    List.map2
      (fun (label, scn) file -> scenario_row ~label ~pool preps file scn)
      scenarios files
  in
  (* every row is sampled once per round, so machine drift hits them alike *)
  let best = interleaved_best (List.concat_map fst gated) in
  let rows =
    List.concat
      (List.mapi (fun i (_, rows) -> rows best.(2 * i) best.((2 * i) + 1)) gated)
  in
  write_bench scenario_spec ~bench:"scenario" ~smoke rows

(* ---- closed-loop continuous PGO: the BENCH_retune.json trajectory ----

   A phase-shift workload: the automaton has two long fusible chains, A
   and B; the daemon boots on an image repacked+fused for chain A while
   every client session replays chain B — the image is mistuned for the
   traffic it actually gets. The no-retune daemon stays mistuned
   forever; the --retune daemon detects the drift, rebuilds in the
   background and hot-swaps to a B-tuned image. Rows report pool-side
   ns/block (Server.drain_totals deltas: pool busy time over completed
   sessions — decode and replay, excluding socket I/O and framing)
   before the swap, after the swap, and on the baseline daemon over the
   same windows, plus the measured swap pause. Hard gates: fleet == offline across the swap on
   both daemons, and post-swap steady-state throughput >= 1.15x the
   no-retune daemon. *)

let retune_fixture () =
  let block_at addr =
    Tea_cfg.Block.make Tea_cfg.Block.Branch
      [ (addr, Tea_isa.Insn.Jmp (Tea_isa.Insn.Abs 0)) ]
  in
  (* two recorded loops: n forced states whose last edge re-enters the
     head — each is one cyclic fusible chain, and profile-aware fusion
     keeps only the one the guiding stream actually spins in *)
  let loop ~id base n =
    Tea_traces.Trace.make ~id ~kind:"bench"
      (Array.init n (fun i -> block_at (base + (16 * i))))
      (Array.init n (fun i -> [ (i + 1) mod n ]))
  in
  (* 24-state loops: small enough that the drift gauge's top-K support
     window sees the whole automaton, so a phase shift moves the whole
     distribution *)
  let n = 24 in
  let flat =
    Tea_core.Packed.freeze
      (Tea_core.Builder.build
         [ loop ~id:0 0x10000 n; loop ~id:1 0x80000 n ])
  in
  let cycle base reps =
    Array.init (n * reps) (fun i -> base + (16 * (i mod n)))
  in
  (flat, cycle 0x10000 2000, cycle 0x80000 2000)

let retune_session_bytes starts =
  let tmp = Filename.temp_file "tea_bench_retune" ".trc" in
  let w = Tea_core.Pc_trace.open_writer ~format:Tea_core.Pc_trace.V2 tmp in
  Array.iter
    (fun start ->
      Tea_core.Pc_trace.write_event w (Tea_core.Pc_trace.Block { start; insns = 1 }))
    starts;
  Tea_core.Pc_trace.close_writer w;
  let s = Tea_core.Pc_trace.read_all tmp in
  Sys.remove tmp;
  s

let retune_epoch_of_scrape text =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "tea_image_epoch"; v ] -> int_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)

(* Drive one daemon through the phase shift: [warm] phase-A sessions
   (matching both the image's tuning and the drift reference, so the
   trigger stays quiet), then phase-B sessions. With [retune] the pre
   window runs B sessions until the scrape shows the epoch bumped (the
   swap landed); without, it runs [pre] B sessions so both daemons see
   the same traffic schedule. Returns ns/block over the pre and post
   windows plus swap stats; enforces the fleet == offline gate. *)
let run_retune_daemon ~jobs ~retune ~drift_ref ~base ~image ~warm ~session
    ~pre ~post =
  let sock = Filename.temp_file "tea_bench_retune" ".sock" in
  Sys.remove sock;
  let srv =
    if retune then
      Tea_serve.Server.create ~offline_check:true
        ~drift:(Tea_observe.Drift.create drift_ref)
        ~base
        ~retune:
          (* fire on the first over-threshold session; the long cooldown
             keeps later B sessions (still far from the phase-A drift
             reference) from churning out redundant rebuilds inside the
             measurement window *)
          { Tea_serve.Server.up = 1; cooldown = 1000 }
        ~jobs ~image
        (Tea_serve.Frame.Unix_sock sock)
    else
      Tea_serve.Server.create ~offline_check:true ~jobs ~image
        (Tea_serve.Frame.Unix_sock sock)
  in
  Fun.protect ~finally:(fun () -> Tea_serve.Server.close srv) @@ fun () ->
  let addr = Tea_serve.Server.addr srv in
  let driver = Domain.spawn (fun () -> Tea_serve.Server.run srv) in
  let send () = ignore (Tea_serve.Client.replay_string addr session) in
  (* phase A: warmup sessions, outside both windows *)
  for _ = 1 to 2 do
    ignore (Tea_serve.Client.replay_string addr warm)
  done;
  (* phase shift: from here every session replays chain B *)
  let ns0, blk0 = Tea_serve.Server.drain_totals srv in
  let pre_sessions = ref 0 in
  if retune then begin
    let swapped = ref false in
    while (not !swapped) && !pre_sessions < 100 do
      send ();
      incr pre_sessions;
      match retune_epoch_of_scrape (Tea_serve.Client.scrape addr) with
      | Some e when e >= 1 -> swapped := true
      | _ -> ()
    done;
    if not !swapped then
      die "retune jobs %d: daemon never swapped its image" jobs
  end
  else
    for _ = 1 to pre do
      send ();
      incr pre_sessions
    done;
  let ns1, blk1 = Tea_serve.Server.drain_totals srv in
  for _ = 1 to post do
    send ()
  done;
  let ns2, blk2 = Tea_serve.Server.drain_totals srv in
  Tea_serve.Server.stop srv;
  Domain.join driver;
  let fleet = Tea_serve.Server.fleet_profile srv in
  if not (Tea_parallel.Profile.equal fleet (Tea_serve.Server.offline_profile srv))
  then
    die "retune jobs %d (%s): fleet profile diverged from sequential offline \
         replay"
      jobs
      (if retune then "retune" else "no-retune");
  let window ns ns' blk blk' =
    float_of_int (ns' - ns) /. float_of_int (max 1 (blk' - blk))
  in
  ( window ns0 ns1 blk0 blk1,
    window ns1 ns2 blk1 blk2,
    !pre_sessions,
    Tea_serve.Server.epoch srv,
    Tea_serve.Server.swap_pause_ns srv )


let retune_floor = 1.15

let retune_jobs ~smoke = if smoke then [ 1 ] else [ 1; 2 ]

let retune_gates =
  [
    "retune daemon hot-swapped its image";
    "fleet == offline across the swap, retune and no-retune daemons";
    "post-swap throughput >= 1.15x the no-retune daemon";
  ]

(* the gated number: no-retune ns/block over post-swap ns/block *)
let retune_speedups ~smoke rows =
  List.map
    (fun jobs ->
      let v = value ~jobs rows "phase-shift" in
      row ~jobs "phase-shift" "retune" "speedup_post"
        (v "no-retune" "ns_per_block" /. v "retune" "post_swap_ns_per_block"))
    (retune_jobs ~smoke)

let retune_check ~smoke rows =
  List.iter
    (fun jobs ->
      let v = value ~jobs rows "phase-shift" "retune" in
      expect (v "sessions" > 0.0) "jobs %d: no sessions" jobs;
      expect (v "swaps" >= 1.0) "jobs %d: no hot swap" jobs;
      expect (v "pre_swap_ns_per_block" > 0.0) "jobs %d: no pre-swap time" jobs;
      expect (v "post_swap_ns_per_block" > 0.0) "jobs %d: no post-swap time" jobs;
      expect
        (value ~jobs rows "phase-shift" "no-retune" "ns_per_block" > 0.0)
        "jobs %d: no no-retune time" jobs;
      expect (v "swap_pause_ms" >= 0.0) "jobs %d: negative swap pause" jobs;
      expect
        (v "speedup_post" >= retune_floor)
        "jobs %d: post-swap speedup %.3fx below the %.2fx floor" jobs
        (v "speedup_post") retune_floor)
    (retune_jobs ~smoke);
  expect
    (List.for_all (fun r -> List.mem r.jobs (retune_jobs ~smoke)) rows)
    "rows outside the measured job counts"

let retune_spec =
  {
    gates = retune_gates;
    workloads = (fun ~smoke:_ -> [ "phase-shift" ]);
    derive = retune_speedups;
    check = retune_check;
  }

let run_retune ~smoke =
  let flat, a_starts, b_starts = retune_fixture () in
  (* cold-start mistuning: the daemon boots on the untuned flat image
     with a stale drift reference (yesterday's phase-A profile); the
     profile-aware rebuild can only come from live traffic *)
  let mistuned = flat in
  let drift_ref =
    Tea_opt.Repack.visit_counts
      (Tea_opt.Repack.collect flat a_starts ~len:(Array.length a_starts))
  in
  let warm = retune_session_bytes a_starts in
  let session = retune_session_bytes b_starts in
  let post = if smoke then 3 else 6 in
  progress
    "[bench] retune: phase-shift fixture (image tuned on chain A, traffic \
     on chain B), gating post-swap vs no-retune at %.2fx..."
    retune_floor;
  let rows =
    List.concat_map
      (fun jobs ->
        (* cross-daemon wall-clock noise is the dominant error term, so
           run the daemon pair twice and keep the better round *)
        let round () =
          let pre_r, post_r, pre_sessions, swaps, pause_ns =
            run_retune_daemon ~jobs ~retune:true ~drift_ref ~base:flat
              ~image:mistuned ~warm ~session ~pre:0 ~post
          in
          let _, post_b, _, _, _ =
            run_retune_daemon ~jobs ~retune:false ~drift_ref ~base:flat
              ~image:mistuned ~warm ~session ~pre:pre_sessions ~post
          in
          (pre_r, post_r, pre_sessions, swaps, pause_ns, post_b)
        in
        let r1 = round () and r2 = round () in
        let speedup_of (_, post_r, _, _, _, post_b) = post_b /. post_r in
        let pre_r, post_r, pre_sessions, swaps, pause_ns, post_b =
          if speedup_of r1 >= speedup_of r2 then r1 else r2
        in
        let speedup = post_b /. post_r in
        let pause_ms = 1e-6 *. float_of_int pause_ns in
        Printf.printf
          "retune jobs %d  %2d sessions  %d swap(s)  baseline %6.1f \
           ns/block  post-swap %6.1f ns/block  %.2fx  pause %.3f ms\n%!"
          jobs (pre_sessions + post) swaps post_b post_r speedup pause_ms;
        if speedup < retune_floor then
          die
            "retune jobs %d: post-swap speedup %.3fx below the %.2fx floor — \
             the hot swap did not pay for itself"
            jobs speedup retune_floor;
        let r = row ~jobs "phase-shift" "retune" in
        [
          rowi ~jobs "phase-shift" "retune" "sessions" (pre_sessions + post);
          rowi ~jobs "phase-shift" "retune" "swaps" swaps;
          r "pre_swap_ns_per_block" pre_r;
          r "post_swap_ns_per_block" post_r;
          r "swap_pause_ms" pause_ms;
          row ~jobs "phase-shift" "no-retune" "ns_per_block" post_b;
        ])
      (retune_jobs ~smoke)
  in
  write_bench retune_spec ~bench:"retune" ~smoke rows

(* ---- observability plane: the BENCH_observe.json trajectory ----

   Two measurements. (1) Dispatch tiers of the compiled replay of
   micro:listscan's stream, per image (flat, repacked, repacked+fused),
   read off the replayer's counters, with the hard gate that they sum
   exactly to the blocks replayed — attribution is total, never
   sampled. A fourth row (fuse-loop) replays micro:nested on its own
   tuned image, whose inner loop fuses, and gates that its chain
   matchers fire. (2) Scrape latency against a live daemon: sessions
   stream while tea_serve answers exposition scrapes; each scrape is
   timed round-trip and the format is sanity checked. Latencies are
   machine-dependent and reported, not gated. *)

let obs_engines =
  [
    ("micro:listscan", "flat"); ("micro:listscan", "repack");
    ("micro:listscan", "fuse"); ("micro:nested", "fuse-loop");
  ]

let obs_scrapes = 32
let obs_sessions ~smoke = if smoke then 4 else 8

let run_observe_engine ~workload ~engine img starts insns ~len =
  let rep = compiled_replayer img in
  Tea_core.Replayer.feed_run rep ~insns starts ~len;
  let snap = Tea_core.Replayer.tiers rep in
  if Tea_core.Tierstat.total snap <> len then
    die
      "%s: tier counters sum to %d, expected %d blocks — dispatch \
       attribution is not total"
      engine (Tea_core.Tierstat.total snap) len;
  Printf.printf "%-9s %s  [tier sum == %d blocks]\n%!" engine
    (String.concat " "
       (List.init Tea_core.Tierstat.n_tiers (fun t ->
            Printf.sprintf "%s=%d" (Tea_core.Tierstat.tier_name t)
              snap.Tea_core.Tierstat.ts_totals.(t))))
    len;
  let ri = rowi workload engine in
  [
    ri "blocks" len;
    ri "fused_steps" (fused_steps img starts insns ~len);
    ri "chain_matchers"
      (Tea_core.Compiled.chained_states (Tea_core.Compiled.of_packed img));
  ]
  @ List.init Tea_core.Tierstat.n_tiers (fun t ->
        ri
          ("tier_" ^ Tea_core.Tierstat.tier_name t)
          snap.Tea_core.Tierstat.ts_totals.(t))

let run_observe_scrape ~jobs image streams =
  let sock = Filename.temp_file "tea_bench_observe" ".sock" in
  Sys.remove sock;
  let srv =
    Tea_serve.Server.create ~jobs ~image (Tea_serve.Frame.Unix_sock sock)
  in
  Fun.protect ~finally:(fun () -> Tea_serve.Server.close srv) @@ fun () ->
  let addr = Tea_serve.Server.addr srv in
  let driver = Domain.spawn (fun () -> Tea_serve.Server.run srv) in
  let clients =
    List.map
      (fun s ->
        Domain.spawn (fun () ->
            ignore (Tea_serve.Client.replay_string ~chunk:8192 addr s)))
      streams
  in
  (* scrape while the fleet is streaming: time each round trip *)
  let best = ref infinity and sum = ref 0.0 and last = ref "" in
  for _ = 1 to obs_scrapes do
    let t0 = Unix.gettimeofday () in
    let text = Tea_serve.Client.scrape addr in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    sum := !sum +. dt;
    last := text
  done;
  List.iter Domain.join clients;
  Tea_serve.Server.stop srv;
  Domain.join driver;
  (* sanity: the exposition carries the observability families *)
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  if not (contains "tea_dispatch_tier_total" !last && contains "tea_counter" !last)
  then die "scraped exposition is missing expected families";
  let best_us = 1e6 *. !best and mean_us = 1e6 *. !sum /. float_of_int obs_scrapes in
  Printf.printf
    "scrape: %d scrapes against %d streaming sessions, %d bytes exposition, \
     best %.0f us, mean %.0f us\n%!"
    obs_scrapes (List.length streams) (String.length !last) best_us mean_us;
  let r = row ~jobs "daemon" "flat" and ri = rowi ~jobs "daemon" "flat" in
  [
    ri "sessions" (List.length streams);
    ri "scrapes" obs_scrapes;
    ri "exposition_bytes" (String.length !last);
    r "best_us" best_us;
    r "mean_us" mean_us;
  ]

let obs_gates =
  [
    "tier counters sum to blocks replayed, every engine";
    "fuse-loop replay runs fused chain steps";
    "exposition carries tier and counter families";
  ]

let obs_check ~smoke rows =
  List.iter
    (fun (w, e) ->
      let v = value rows w e in
      expect (v "blocks" > 0.0) "%s: no blocks" e;
      ignore (v "fused_steps", v "chain_matchers");
      let tiers =
        List.init Tea_core.Tierstat.n_tiers (fun t ->
            v ("tier_" ^ Tea_core.Tierstat.tier_name t))
      in
      expect
        (List.fold_left ( +. ) 0.0 tiers = v "blocks")
        "%s: tier counts do not sum to the blocks replayed" e)
    obs_engines;
  expect
    (value rows "micro:listscan" "repack" "tier_compiled" > 0.0)
    "repacked replay never resolved through compiled dispatch";
  let loop = value rows "micro:nested" "fuse-loop" in
  expect
    (loop "fused_steps" > 0.0 && loop "chain_matchers" > 0.0)
    "fuse-loop replay never ran a fused chain";
  let s = value ~jobs:2 rows "daemon" "flat" in
  expect
    (s "sessions" = float_of_int (obs_sessions ~smoke))
    "scrape ran against %g sessions, expected %d" (s "sessions")
    (obs_sessions ~smoke);
  expect (s "scrapes" = float_of_int obs_scrapes) "expected %d scrapes" obs_scrapes;
  expect (s "exposition_bytes" > 0.0) "empty exposition";
  expect
    (s "best_us" > 0.0 && s "mean_us" >= s "best_us")
    "scrape latency: best %g us, mean %g us" (s "best_us") (s "mean_us")

let observe_spec =
  {
    gates = obs_gates;
    workloads =
      (fun ~smoke:_ -> "daemon" :: List.sort_uniq compare (List.map fst obs_engines));
    derive = (fun ~smoke:_ _ -> []);
    check = obs_check;
  }

let run_observe ~smoke =
  let image = Tea_workloads.Micro.list_scan () in
  let _, flat = record ~strategy:"mret" image in
  let starts, insns, len = capture image in
  progress
    "[bench] observe: %d blocks from micro:listscan; dispatch tiers per \
     engine, then live scrape latency..."
    len;
  let repacked, fused = tune flat starts ~len in
  (* listscan never fuses a chain, so no chain matcher would fire; the
     fuse-loop row replays micro:nested (whose inner loop fuses at ~97%
     of steps) on its own tuned image to exercise the matchers too *)
  let nested = Tea_workloads.Micro.nested_loop () in
  let l_starts, l_insns, l_len = capture nested in
  let _, loop_img = tune (snd (record ~strategy:"mret" nested)) l_starts ~len:l_len in
  let on_stream img = (img, (starts, insns, len)) in
  let image_for = function
    | "flat" -> on_stream flat
    | "repack" -> on_stream repacked
    | "fuse" -> on_stream fused
    | _ -> (loop_img, (l_starts, l_insns, l_len))
  in
  let rows =
    List.concat_map
      (fun (workload, engine) ->
        let img, (starts, insns, len) = image_for engine in
        run_observe_engine ~workload ~engine img starts insns ~len)
      obs_engines
  in
  let loop = value rows "micro:nested" "fuse-loop" in
  if loop "fused_steps" = 0.0 || loop "chain_matchers" = 0.0 then
    die "fuse-loop replay ran no fused chain steps (%g steps, %g chain matchers)"
      (loop "fused_steps") (loop "chain_matchers");
  let stream =
    let path = Filename.temp_file "tea_bench" ".trc" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    ignore (Tea_pinsim.Trace_capture.record image path);
    Tea_core.Pc_trace.read_all path
  in
  let scrape =
    run_observe_scrape ~jobs:2 flat
      (List.init (obs_sessions ~smoke) (fun _ -> stream))
  in
  write_bench observe_spec ~bench:"observe" ~smoke (rows @ scrape)

(* ---- validate: check BENCH files against their mode's spec ---- *)

let specs =
  [
    ("ladder", ladder_spec);
    ("scenario", scenario_spec);
    ("retune", retune_spec);
    ("observe", observe_spec);
  ]

let read_bench path =
  let doc = Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  let field k conv v =
    try conv (Json.member k v) with Json.Error m -> invalid "%s: %s" k m
  in
  let bench = field "bench" Json.to_str doc in
  let smoke = field "smoke" Json.to_bool doc in
  let gates = field "gates" (fun g -> List.map Json.to_str (Json.to_list g)) doc in
  let rows =
    field "rows"
      (fun rs ->
        List.map
          (fun r ->
            let jobs = field "jobs" Json.to_num r in
            expect (Float.is_integer jobs) "jobs %g is not an integer" jobs;
            {
              workload = field "workload" Json.to_str r;
              engine = field "engine" Json.to_str r;
              jobs = int_of_float jobs;
              metric = field "metric" Json.to_str r;
              value = field "value" Json.to_num r;
            })
          (Json.to_list rs))
      doc
  in
  (bench, smoke, gates, rows)

let validate_file path =
  match read_bench path with
  | exception Json.Error m -> Error ("not JSON: " ^ m)
  | exception Sys_error m -> Error m
  | exception Invalid m -> Error m
  | bench, smoke, gates, rows -> (
      match List.assoc_opt bench specs with
      | None -> Error (Printf.sprintf "unknown bench %S" bench)
      | Some spec -> (
          match check_rows spec ~smoke ~gates rows with
          | () ->
              Ok
                (Printf.sprintf "%s%s, %d rows, %d gates" bench
                   (if smoke then " (smoke)" else "")
                   (List.length rows) (List.length gates))
          | exception Invalid m -> Error m))

let run_validate files =
  let ok =
    List.fold_left
      (fun ok path ->
        match validate_file path with
        | Ok what ->
            Printf.printf "%s: ok (%s)\n" path what;
            ok
        | Error why ->
            Printf.printf "%s: INVALID: %s\n" path why;
            false)
      true files
  in
  if not ok then exit 1

(* Same observability surface as tea_tool: --telemetry FILE writes a
   Chrome trace (or JSONL for a .jsonl suffix), --metrics dumps the probe
   counters after the run. With neither flag nothing is installed and
   stdout is byte-identical to a probe-free build. *)
let with_obs ~trace_out ~metrics name f =
  if trace_out = None && not metrics then f ()
  else begin
    let sink = Option.map (fun _ -> Tea_telemetry.Span.create ()) trace_out in
    Tea_telemetry.Probe.install ?spans:sink ();
    Fun.protect
      ~finally:(fun () ->
        (match (trace_out, sink) with
        | Some path, Some sink ->
            let out =
              if Filename.check_suffix path ".jsonl" then
                Tea_telemetry.Span.to_jsonl sink
              else Tea_telemetry.Span.to_chrome_json sink
            in
            let oc = open_out path in
            output_string oc out;
            close_out oc
        | _ -> ());
        let snap = Tea_telemetry.Probe.uninstall () in
        if metrics then
          print_string (Tea_report.Stats.render ~title:"telemetry" snap))
      (fun () -> Tea_telemetry.Probe.with_span name f)
  end

(* `--smoke' shrinks any table run to a small benchmark subset — the CI
   smoke target is `main.exe -- table4 --smoke'. *)
let smoke_set = [ "168.wupwise"; "181.mcf"; "253.perlbmk" ]

let usage () =
  prerr_endline
    "usage: main.exe [quick | micro | packed | ladder | scenario | retune | \
     observe | telemetry | ablation | extensions | table1 table2 table3 \
     table4] [--smoke] [--telemetry FILE] [--metrics]\n\
    \       main.exe validate BENCH_FILE...";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let rec parse acc trace_out metrics = function
    | [] -> (List.rev acc, trace_out, metrics)
    | "--telemetry" :: file :: rest -> parse acc (Some file) metrics rest
    | "--metrics" :: rest -> parse acc trace_out true rest
    | "--smoke" :: rest -> parse acc trace_out metrics rest
    | a :: rest -> parse (a :: acc) trace_out metrics rest
  in
  let table_benchmarks =
    if smoke then smoke_set else Tea_workloads.Spec2000.names
  in
  let args, trace_out, metrics = parse [] None false args in
  match args with
  | "validate" :: (_ :: _ as files) -> run_validate files
  | [ "telemetry" ] ->
      (* installs/uninstalls the probe set itself — not wrapped in
         [with_obs], which would double-install *)
      run_telemetry ()
  | _ ->
      let root = "bench." ^ match args with [] -> "all" | a :: _ -> a in
      with_obs ~trace_out ~metrics root @@ fun () ->
      match args with
      | [ "micro" ] -> run_micro ()
      | [ "packed" ] -> run_head_to_head ()
      | [ "ladder" ] -> run_ladder ~smoke
      | [ "scenario" ] -> run_scenario ~smoke
      | [ "retune" ] -> run_retune ~smoke
      | [ "observe" ] -> run_observe ~smoke
      | [ "quick" ] -> run_tables ~benchmarks:quick_set ~which:[]
      | [ "ablation" ] -> run_ablations ()
      | [ "extensions" ] -> run_extensions ()
      | [] ->
          run_tables ~benchmarks:table_benchmarks ~which:[];
          print_newline ();
          run_ablations ();
          print_newline ();
          run_extensions ()
      | which
        when List.for_all
               (fun a -> String.length a > 5 && String.sub a 0 5 = "table")
               which ->
          run_tables ~benchmarks:table_benchmarks ~which
      | _ -> usage ()

(* tea_tool: command-line front door to the TEA reproduction.

   Workloads are named either after the synthetic SPEC 2000 profiles
   (e.g. 176.gcc) or micro workloads (micro:listscan, micro:copy,
   micro:nested, micro:branchy, micro:rep). *)

open Cmdliner

let resolve_workload name =
  match name with
  | "micro:listscan" -> Ok (Tea_workloads.Micro.list_scan ())
  | "micro:copy" -> Ok (Tea_workloads.Micro.copy_loop ())
  | "micro:nested" -> Ok (Tea_workloads.Micro.nested_loop ())
  | "micro:branchy" -> Ok (Tea_workloads.Micro.branchy_loop ())
  | "micro:rep" -> Ok (Tea_workloads.Micro.rep_copy ())
  | "micro:stream" -> Ok (Tea_workloads.Micro.stream ())
  | "micro:chase" -> Ok (Tea_workloads.Micro.big_chase ())
  | "micro:twophase" -> Ok (Tea_workloads.Micro.two_phase ())
  | "micro:scattered" -> Ok (Tea_workloads.Micro.scattered ())
  | _ -> (
      match Tea_workloads.Spec2000.by_name name with
      | Some p -> Ok (Tea_workloads.Spec2000.image p)
      | None -> Error (Printf.sprintf "unknown workload %S (try `tea_tool list')" name))

let workload_arg =
  let doc = "Workload name (a SPEC profile like 176.gcc, or micro:listscan)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let strategy_arg =
  let doc = "Trace selection strategy: mret, ctt or tt." in
  Arg.(value & opt string "mret" & info [ "s"; "strategy" ] ~docv:"STRATEGY" ~doc)

let resolve_strategy name =
  match Tea_traces.Registry.by_name name with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "unknown strategy %S (mret/ctt/tt)" name)

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("tea_tool: " ^ msg);
      exit 1

(* ---- observability ----

   Every data-producing subcommand takes the same three flags. With none
   of them given nothing is installed and stdout is byte-identical to a
   build without telemetry — the probes are static no-ops. *)

module Probe = Tea_telemetry.Probe
module Span = Tea_telemetry.Span

type obs = { trace_out : string option; metrics : bool; quiet : bool }

let obs_term =
  let telemetry =
    let doc =
      "Write a span trace of this run to $(docv) — Chrome trace-event \
       JSON (load it in chrome://tracing or Perfetto), or JSONL when \
       $(docv) ends in .jsonl. Spans carry wall-clock and, where \
       available, simulated-cycle stamps. Stdout is unchanged."
    in
    Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc =
      "After the command output, print the probe counters and histograms \
       (transition lookups per axis, replayer steps and NTE crossings, \
       recorder decisions) as a text dump."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let quiet =
    let doc = "Suppress the per-domain pool counters printed to stderr." in
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc)
  in
  Term.(
    const (fun trace_out metrics quiet -> { trace_out; metrics; quiet })
    $ telemetry $ metrics $ quiet)

(* Run a subcommand body under the requested observability: install the
   probe set (with a span sink if --telemetry was given), wrap the body in
   a root span named after the subcommand, and on the way out write the
   trace file and/or print the metrics dump. *)
let with_obs obs name f =
  if obs.trace_out = None && not obs.metrics then f ()
  else begin
    let sink = Option.map (fun _ -> Span.create ()) obs.trace_out in
    Probe.install ?spans:sink ();
    Fun.protect
      ~finally:(fun () ->
        (match (obs.trace_out, sink) with
        | Some path, Some sink ->
            let out =
              if Filename.check_suffix path ".jsonl" then Span.to_jsonl sink
              else Span.to_chrome_json sink
            in
            let oc = open_out path in
            output_string oc out;
            close_out oc
        | _ -> ());
        let snap = Probe.uninstall () in
        if obs.metrics then
          print_string (Tea_report.Stats.render ~title:"telemetry" snap))
      (fun () -> Probe.with_span name f)
  end

(* ---- list ---- *)

let list_cmd =
  let run () =
    print_endline "SPEC 2000 synthetic workloads:";
    List.iter
      (fun p ->
        Printf.printf "  %-14s %s\n" p.Tea_workloads.Proggen.name
          (if Tea_workloads.Spec2000.is_fp p.Tea_workloads.Proggen.name then "CFP2000"
           else "CINT2000"))
      Tea_workloads.Spec2000.all;
    print_endline "micro workloads:";
    List.iter
      (fun m -> Printf.printf "  micro:%s\n" m)
      [ "listscan"; "copy"; "nested"; "branchy"; "rep"; "stream"; "chase"; "twophase"; "scattered" ]
  in
  Cmd.v (Cmd.info "list" ~doc:"List available workloads")
    Term.(const run $ const ())

(* ---- run ---- *)

let run_cmd =
  let run name =
    let image = or_die (resolve_workload name) in
    let machine, stop = Tea_machine.Interp.run image in
    let outcome =
      match stop.Tea_machine.Interp.outcome with
      | Tea_machine.Interp.Exited n -> Printf.sprintf "exited %d" n
      | Tea_machine.Interp.Halted -> "halted"
      | Tea_machine.Interp.Fuel_exhausted -> "fuel exhausted"
      | Tea_machine.Interp.Fault m -> "fault: " ^ m
    in
    Printf.printf
      "%s: %s\nstatic insns: %d\ndynamic insns: %d (Pin counting: %d)\ncycles: %d\noutput: %s\n"
      name outcome
      (Tea_isa.Image.instruction_count image)
      (Tea_machine.Interp.dyn_instrs machine)
      (Tea_machine.Interp.dyn_instrs_expanded machine)
      (Tea_machine.Interp.cycles machine)
      (String.concat ", " (List.map string_of_int (Tea_machine.Interp.output machine)))
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a workload natively")
    Term.(const run $ workload_arg)

(* ---- record ---- *)

let out_arg =
  let doc = "Output file for the recorded traces." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let record_cmd =
  let run name strategy_name out obs =
    with_obs obs "record" @@ fun () ->
    let image = or_die (resolve_workload name) in
    let strategy = or_die (resolve_strategy strategy_name) in
    let r = Tea_dbt.Stardbt.record ~strategy image in
    let set = r.Tea_dbt.Stardbt.set in
    let traces = Tea_traces.Trace_set.to_list set in
    let auto = Tea_core.Builder.build traces in
    Printf.printf
      "recorded %d traces, %d TBBs (coverage %.1f%%)\n\
       DBT bytes %d, TEA bytes %d (savings %.0f%%)\n"
      (Tea_traces.Trace_set.n_traces set)
      (Tea_traces.Trace_set.n_tbbs set)
      (100.0 *. r.Tea_dbt.Stardbt.coverage)
      (Tea_traces.Trace_set.dbt_bytes set image)
      (Tea_core.Automaton.byte_size auto)
      (100.0
      *. Tea_report.Stats.savings
           ~dbt:(Tea_traces.Trace_set.dbt_bytes set image)
           ~tea:(Tea_core.Automaton.byte_size auto));
    match out with
    | Some path ->
        Tea_traces.Serialize.save path traces;
        Printf.printf "traces written to %s\n" path
    | None -> ()
  in
  Cmd.v (Cmd.info "record" ~doc:"Record traces under the StarDBT-like runtime")
    Term.(const run $ workload_arg $ strategy_arg $ out_arg $ obs_term)

(* ---- replay ---- *)

let traces_arg =
  let doc = "Trace file produced by `record -o' (records in-process if absent)." in
  Arg.(value & opt (some string) None & info [ "t"; "traces" ] ~docv:"FILE" ~doc)

let pc_trace_arg =
  let doc =
    "Replay against a captured PC-trace file instead of re-executing \
     (use $(b,-) to stream the trace from standard input)."
  in
  Arg.(value & opt (some string) None & info [ "pc-trace" ] ~docv:"FILE" ~doc)

(* An enumerated conv, not a free string resolved later: unknown
   configs are usage errors at the command line, listing the valid
   values, never a late exit mid-run. *)
let config_arg =
  let doc = "Lookup configuration: global-local, global-no-local, no-global-local." in
  Arg.(
    value
    & opt
        (enum
           [ ("global-local", Tea_core.Transition.config_global_local);
             ("global-no-local", Tea_core.Transition.config_global_no_local);
             ("no-global-local", Tea_core.Transition.config_no_global_local) ])
        Tea_core.Transition.config_global_local
    & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)

(* One constructor for the --engine flag. [values] picks which engines a
   command accepts — serve never runs the reference engine, so it passes
   only compiled and unknown engines stay usage errors. *)
let engine_arg_of ~doc values default =
  Arg.(
    value & opt (enum values) default
    & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)

let engine_name = function
  | `Reference -> "reference"
  | `Compiled -> "compiled"

let engine_arg =
  engine_arg_of
    ~doc:
      "Transition engine: reference (paper-faithful edge lists + B+ tree, \
       honours --config) or compiled (one transition loop \
       compiled from a flat-array packed image; identical observables, \
       fastest host replay)."
    [ ("reference", `Reference); ("compiled", `Compiled) ]
    `Reference

(* --jobs validates through the pool's own parser: 0, negatives and
   non-integers are usage errors at the command line, never a silent
   fall-through to the sequential path. *)
let jobs_conv =
  let parse s =
    match Tea_parallel.Pool.parse_jobs s with
    | Ok n -> Ok n
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let jobs_arg =
  let doc =
    "Domains to run independent inputs on (1 = plain sequential path; \
     must be >= 1): the benchmarks of a table; for serve, the event \
     loops, each accepting, replaying and replying to its own sessions. \
     One --pc-trace stream is one sequential walk whatever $(docv) \
     is, and so is a --scenario stream, whose asids replay side by side \
     in one pass. Stdout is byte-identical whatever $(docv) is; the \
     per-domain observability counters go to stderr."
  in
  Arg.(value & opt jobs_conv 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let pgo_arg =
  let doc =
    "Profile-guided repacking: collect a replay profile first, repack the \
     packed image on it (hot states cache-dense, hot edges linear-scan \
     first), then replay through the repacked image. Requires \
     --engine=compiled. TBB mappings and \
     coverage are identical to the unrepacked replay."
  in
  Arg.(value & flag & info [ "pgo" ] ~doc)

let hot_prefix_arg =
  let doc = "Per-state hot-prefix length cap for repacking." in
  Arg.(
    value
    & opt int Tea_opt.Repack.default_hot_prefix
    & info [ "hot-prefix" ] ~docv:"K" ~doc)

let fuse_arg =
  let doc =
    "Superstate fusion: collapse single-successor TBB chains into \
     superstates and fast-forward monomorphic cycles, then replay through \
     the fused image. Requires --engine=compiled; composes \
     with --pgo (repack first, fuse the repacked image). TBB mappings, \
     coverage and simulated cycles are identical to the unfused replay."
  in
  Arg.(value & flag & info [ "fuse" ] ~doc)

let tiers_arg =
  let doc =
    "Install the dispatch-tier profiler for the replay and print the \
     hotness report (tier mix, top states) afterwards. Requires \
     --engine=compiled."
  in
  Arg.(value & flag & info [ "tiers" ] ~doc)

let retune_arg =
  let doc =
    "Closed-loop PGO, offline: replay the first half of the PC trace on \
     the flat image, rebuild the repack+fuse ladder from the edge profile \
     observed so far, hot-swap the image mid-stream (entry state carried \
     across through the orig-id translation) and finish on the tuned \
     image. The replay summary line is identical to a plain replay at any \
     --jobs — the swap is observationally invisible. Requires \
     --engine=compiled and --pc-trace; mutually exclusive with \
     --pgo/--fuse (it rebuilds its own tuning)."
  in
  Arg.(value & flag & info [ "retune" ] ~doc)

(* Run [f] with [Some pool] (dumping the pool's per-domain counters on
   stderr afterwards, unless --quiet) or with [None] for the sequential
   path. *)
let with_jobs ?(quiet = false) jobs f =
  if jobs < 1 then or_die (Error "--jobs must be >= 1")
  else if jobs = 1 then f None
  else
    Tea_parallel.Pool.with_pool ~jobs (fun pool ->
        let r = f (Some pool) in
        if not quiet then
          prerr_string
            (Tea_report.Stats.render ~title:"pool domains"
               (Tea_parallel.Pool.metrics_snapshot pool));
        r)

(* One deterministic summary line for any --pgo replay. Everything on it
   (layout shape, simulated cycles) is jobs-invariant, keeping stdout
   byte-identical across --jobs values. *)
let print_pgo_line packed ~cycles =
  Printf.printf "pgo: moved %d/%d states, %d hot-prefix edges, %d sim cycles\n"
    (Tea_opt.Repack.moved_states packed)
    (Tea_core.Packed.n_slots packed)
    (Tea_core.Packed.hot_edges packed)
    cycles

(* The fusion summary is a pure function of the image, so it is
   jobs-invariant like the pgo line. CI strips it (`grep -v '^fuse:'`)
   when byte-diffing fused stdout against unfused. *)
let print_fuse_line packed =
  Printf.printf "fuse: %d chains (%d cyclic) covering %d states\n"
    (Tea_core.Packed.n_chains packed)
    (Tea_core.Packed.n_cyclic_chains packed)
    (Tea_core.Packed.fused_edges packed)

(* Every number on the retune line is a pure function of the trace prefix
   the rebuild profiled, so it is jobs-invariant like the pgo line. *)
let print_retune_line tuned ~mid ~len =
  Printf.printf
    "retune: swapped at block %d/%d -> moved %d/%d states, %d chains\n" mid len
    (Tea_opt.Repack.moved_states tuned)
    (Tea_core.Packed.n_slots tuned)
    (Tea_core.Packed.n_chains tuned)

(* ---- shared image plumbing ----

   replay, scenario, repack, fuse, compile and serve all want the same
   pipeline: record the workload and freeze its automaton into a flat
   packed image, capture the workload's own block stream as the tuning
   input, walk the --pgo/--fuse ladder over it, and hand pool or
   serving paths a fresh-replayer factory. One definition of each step
   instead of a copy per subcommand. *)

(* record + freeze: workload name -> (binary image, flat packed image) *)
let freeze_workload name strategy_name =
  let image = or_die (resolve_workload name) in
  let traces =
    Probe.with_span "record_traces" @@ fun () ->
    let strategy = or_die (resolve_strategy strategy_name) in
    let r = Tea_dbt.Stardbt.record ~strategy image in
    Tea_traces.Trace_set.to_list r.Tea_dbt.Stardbt.set
  in
  let auto =
    Probe.with_span "build_automaton" (fun () -> Tea_core.Builder.build traces)
  in
  (image, Tea_core.Packed.freeze auto)

(* capture the workload's own block stream into a temp PC-trace file that
   never outlives [f] *)
let with_captured_trace image f =
  let tmp = Filename.temp_file "tea_capture" ".pctrace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let _ =
        Probe.with_span "trace_capture" (fun () ->
            Tea_pinsim.Trace_capture.record image tmp)
      in
      f tmp)

let capture_stream image = with_captured_trace image Tea_parallel.Shard.load_pc_trace

(* the --pgo/--fuse tuning ladder over a profiling stream's flat-image
   edge profile ({!Tea_opt.Retune.build}: repack, then fuse gated by the
   same counts in the repacked layout); --fuse alone fuses structurally.
   Identity when both flags are off. *)
let tune_image ?hot_prefix ~pgo ~fuse packed starts ~len =
  if pgo then
    Probe.with_span "pgo_tune" @@ fun () ->
    Tea_opt.Retune.build ~fuse ?hot_prefix
      ~profile:(Tea_opt.Repack.collect packed starts ~len)
      packed
  else if fuse then Probe.with_span "fuse" @@ fun () -> Tea_opt.Fuse.fuse packed
  else packed

(* one fresh compiled replayer over an image (what Shard builds by
   default) *)
let make_replayer img =
  Tea_core.Replayer.create_compiled (Tea_core.Compiled.of_packed img)

(* ---- scenario mode ----

   Adversarial replay scenarios: interleaved multi-asid streams,
   self-modifying code (periodic invalidation), mid-trace interrupts.
   The scenario is synthesized into a temporary PCTR3 event file, the
   demuxed replay (one streaming Multi_replayer pass, whatever --jobs
   is) is gated against replaying each asid's projection in isolation —
   full per-asid Profile equality — and one deterministic summary is
   printed. *)

let scenario_arg =
  let doc =
    "Adversarial replay scenario: interleave (round-robin/random schedule \
     over this workload and every --with workload, one asid each), smc \
     (periodic code-patch invalidation), or interrupt (signal cutting the \
     trace body). Requires --engine=compiled; composes with --pgo/--fuse \
     (each asid's image tuned on its own stream) and --jobs."
  in
  Arg.(
    value
    & opt
        (some
           (enum
              [ ("interleave", `Interleave); ("smc", `Smc);
                ("interrupt", `Interrupt) ]))
        None
    & info [ "scenario" ] ~docv:"KIND" ~doc)

let with_arg =
  let doc =
    "Additional workload for --scenario=interleave (repeatable; asids are \
     assigned in argument order, the positional workload is asid 0)."
  in
  Arg.(value & opt_all string [] & info [ "with" ] ~docv:"WORKLOAD" ~doc)

let quantum_arg =
  let doc = "Scheduling quantum in blocks for --scenario=interleave." in
  Arg.(value & opt int 8 & info [ "quantum" ] ~docv:"N" ~doc)

let schedule_arg =
  let doc = "Interleave schedule: rr (round-robin) or random (seeded)." in
  Arg.(
    value
    & opt (enum [ ("rr", `Rr); ("random", `Random) ]) `Rr
    & info [ "schedule" ] ~docv:"SCHED" ~doc)

let scenario_seed_arg =
  let doc = "Seed for --schedule=random." in
  Arg.(value & opt int 1 & info [ "scenario-seed" ] ~docv:"SEED" ~doc)

let period_arg =
  let doc = "Blocks between invalidations for --scenario=smc." in
  Arg.(value & opt int 64 & info [ "period" ] ~docv:"N" ~doc)

let at_arg =
  let doc =
    "Block offset of the interrupt for --scenario=interrupt (default: \
     half the stream)."
  in
  Arg.(value & opt (some int) None & info [ "at" ] ~docv:"N" ~doc)

let every_arg =
  let doc =
    "Interrupt after every $(docv) blocks for --scenario=interrupt \
     (overrides --at)."
  in
  Arg.(value & opt (some int) None & info [ "every" ] ~docv:"N" ~doc)

let run_scenario ~kind ~name ~withs ~strategy_name ~pgo ~fuse
    ~quantum ~schedule ~seed ~period ~at ~every =
  let module Scenario = Tea_workloads.Scenario in
  let kind_name =
    match kind with
    | `Interleave -> "interleave"
    | `Smc -> "smc"
    | `Interrupt -> "interrupt"
  in
  let names = name :: withs in
  (* scenario knobs are validated here, as usage errors — never left to
     surface as a raw Invalid_argument out of the scenario generators *)
  (match kind with
  | `Interleave ->
      if List.length names < 2 then
        or_die (Error "--scenario=interleave needs at least one --with workload");
      if quantum < 1 then or_die (Error "--quantum must be >= 1")
  | `Smc | `Interrupt ->
      if withs <> [] then
        or_die (Error "--with applies only to --scenario=interleave"));
  (match kind with
  | `Smc -> if period < 1 then or_die (Error "--period must be >= 1")
  | `Interleave | `Interrupt ->
      ignore period (* fixed default; never reaches the generator *));
  (match kind with
  | `Interrupt ->
      (match at with
      | Some n when n < 0 -> or_die (Error "--at must be >= 0")
      | _ -> ());
      (match every with
      | Some n when n < 1 -> or_die (Error "--every must be >= 1")
      | _ -> ())
  | `Interleave | `Smc ->
      if at <> None then
        or_die (Error "--at applies only to --scenario=interrupt");
      if every <> None then
        or_die (Error "--every applies only to --scenario=interrupt"));
  (* Per-asid pipeline: record traces, freeze the packed image, capture
     the workload's own block stream, and tune (--pgo/--fuse) on that
     stream — the same image then backs both the demuxed and the isolated
     replay, so tuning cannot break the gate. *)
  let prep asid wname =
    let image, packed = freeze_workload wname strategy_name in
    let stream =
      with_captured_trace image (fun tmp ->
          Scenario.load_stream ~asid ~name:wname tmp)
    in
    let packed =
      tune_image ~pgo ~fuse packed stream.Scenario.starts
        ~len:stream.Scenario.len
    in
    (stream, packed)
  in
  let prepared =
    Probe.with_span "scenario_prep" @@ fun () -> List.mapi prep names
  in
  let streams = List.map fst prepared in
  let images = Array.of_list (List.map snd prepared) in
  let compiled = Array.map Tea_core.Compiled.of_packed images in
  let make a = Tea_core.Replayer.create_compiled compiled.(a) in
  let scn =
    match kind with
    | `Interleave ->
        let schedule =
          match schedule with
          | `Rr -> Scenario.Round_robin
          | `Random -> Scenario.Random_sched seed
        in
        Scenario.interleave ~quantum ~schedule streams
    | `Smc -> Scenario.smc ~period (List.hd streams)
    | `Interrupt -> Scenario.interrupt ?at ?every (List.hd streams)
  in
  let file = Filename.temp_file "tea_scenario" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  let n_events = Scenario.write_file file scn in
  let demuxed =
    Probe.with_span "scenario_demuxed" @@ fun () ->
    Tea_core.Multi_replayer.snapshots
      (Tea_core.Multi_replayer.replay_events make file)
  in
  let isolated =
    Probe.with_span "scenario_isolated" @@ fun () ->
    Tea_core.Multi_replayer.replay_isolated make file
  in
  (* the hard gate: full per-asid snapshot equality *)
  if
    List.length demuxed <> List.length isolated
    || not
         (List.for_all2
            (fun (a1, p1) (a2, p2) ->
              a1 = a2 && Tea_parallel.Profile.equal p1 p2)
            demuxed isolated)
  then
    or_die
      (Error "scenario gate failed: demuxed replay diverged from isolated \
              per-asid replay");
  (* Everything printed is a pure function of the scenario and the tuned
     images — byte-identical whatever --jobs is. *)
  let runs = Tea_parallel.Shard.load_events file in
  Printf.printf "scenario %s (compiled engine%s%s): %d streams, %d events\n"
    kind_name
    (if pgo then " +pgo" else "")
    (if fuse then " +fuse" else "")
    (List.length streams) n_events;
  List.iter
    (fun (asid, profile) ->
      let wname = List.nth names asid in
      let segs = match List.assoc_opt asid runs with Some l -> l | None -> [] in
      let blocks =
        List.fold_left (fun acc r -> acc + r.Tea_parallel.Shard.len) 0 segs
      in
      Printf.printf
        "  asid %d %s: %d blocks in %d runs, coverage %.1f%%, %d enters, %d \
         exits, %d sim cycles\n"
        asid wname blocks (List.length segs)
        (100.0 *. Tea_parallel.Profile.coverage profile)
        profile.Tea_parallel.Profile.enters profile.Tea_parallel.Profile.exits
        profile.Tea_parallel.Profile.cycles)
    demuxed;
  Printf.printf "scenario gate: demuxed == isolated for %d asids\n"
    (List.length demuxed)

let replay_cmd =
  let rec run name strategy_name traces_file config_name pc_trace engine jobs
      pgo fuse retune tiers scenario withs quantum schedule seed period at
      every obs =
    with_obs obs "replay" @@ fun () ->
    if pgo && engine = `Reference then
      or_die (Error "--pgo requires --engine=compiled");
    if fuse && engine = `Reference then
      or_die (Error "--fuse requires --engine=compiled");
    if tiers && engine = `Reference then
      or_die (Error "--tiers requires --engine=compiled");
    if retune then begin
      if engine = `Reference then
        or_die (Error "--retune requires --engine=compiled");
      if pgo || fuse then
        or_die (Error "--retune rebuilds its own tuning; drop --pgo/--fuse");
      if pc_trace = None then or_die (Error "--retune requires --pc-trace");
      if scenario <> None then
        or_die (Error "--retune applies only to plain replay; drop --scenario")
    end;
    (match scenario with
    | Some _ -> ()
    | None ->
        (* scenario-only knobs without --scenario are usage errors, not
           silently dead flags *)
        if withs <> [] then or_die (Error "--with requires --scenario");
        if at <> None then or_die (Error "--at requires --scenario=interrupt");
        if every <> None then
          or_die (Error "--every requires --scenario=interrupt"));
    match scenario with
    | Some kind ->
        if engine = `Reference then
          or_die (Error "--scenario requires --engine=compiled");
        if tiers then
          or_die (Error "--tiers applies only to plain replay; drop --scenario");
        if pc_trace <> None then
          or_die (Error "--scenario synthesizes its own stream; drop --pc-trace");
        if traces_file <> None then
          or_die (Error "--scenario records its own traces; drop --traces");
        ignore config_name;
        (* the scenario file is one stream, replayed in one pass *)
        ignore jobs;
        run_scenario ~kind ~name ~withs ~strategy_name ~pgo
          ~fuse ~quantum ~schedule ~seed ~period ~at ~every
    | None ->
        let rep =
          run_replay name strategy_name traces_file config_name pc_trace
            engine jobs pgo fuse retune
        in
        (* the final replayer's counters are the tier profile *)
        if tiers then
          Option.iter
            (fun r ->
              print_string
                (Tea_report.Hotness.render (Tea_core.Replayer.tiers r)))
            rep
  and run_replay name strategy_name traces_file config_name pc_trace engine
      jobs pgo fuse retune =
    (* every path below reads the trace once, so `--pc-trace -', a FIFO
       or /dev/stdin replays straight from the stream *)
    let image = or_die (resolve_workload name) in
    let config = config_name in
    let traces =
      Probe.with_span "acquire_traces" @@ fun () ->
      match traces_file with
      | Some path -> Tea_traces.Serialize.load image path
      | None ->
          let strategy = or_die (resolve_strategy strategy_name) in
          let r = Tea_dbt.Stardbt.record ~strategy image in
          Tea_traces.Trace_set.to_list r.Tea_dbt.Stardbt.set
    in
    let engine_name = engine_name engine in
    match pc_trace with
    | Some path ->
        (* fully offline: no program execution, just the trace file. One
           stream is one sequential walk, so this path serves every
           --jobs *)
        let auto =
          Probe.with_span "build_automaton" (fun () ->
              Tea_core.Builder.build traces)
        in
        let swapped = ref None in
        let profile, blocks, rep =
          Probe.with_span "replay_pc_trace"
            ~post:(fun (p, _, _) ->
              [ ("sim_cycles", string_of_int p.Tea_parallel.Profile.cycles) ])
          @@ fun () ->
          match engine with
          | `Reference ->
              let p =
                Tea_parallel.Profile.of_replayer
                  (Tea_core.Pc_trace.replay
                     (Tea_core.Transition.create config auto)
                     path)
              in
              (p, p.Tea_parallel.Profile.steps, None)
          | `Compiled ->
              let packed = Tea_core.Packed.freeze auto in
              if retune then begin
                (* replay half, rebuild from what was seen, rebind the
                   live replayer in place, finish on the tuned image *)
                let starts, insns, len =
                  Tea_parallel.Shard.load_pc_trace path
                in
                let mid = len / 2 in
                let rep = make_replayer packed in
                Tea_core.Replayer.feed_run rep ~insns starts ~len:mid;
                (* the half-replayed replayer's own counts are the
                   profile: no second walk *)
                let tuned =
                  Probe.with_span "retune_build" @@ fun () ->
                  Tea_opt.Retune.build
                    ~profile:(Tea_core.Replayer.edge_profile rep)
                    packed
                in
                Tea_core.Replayer.rebind rep
                  (Tea_core.Replayer.Compiled (Tea_core.Compiled.of_packed tuned));
                Tea_core.Replayer.feed_run rep ~off:mid ~insns starts
                  ~len:(len - mid);
                swapped := Some (tuned, mid, len);
                (Tea_parallel.Profile.of_replayer rep, len, Some rep)
              end
              else if not (pgo || fuse) then
                let kept = ref None in
                let make img =
                  let r = make_replayer img in
                  kept := Some r;
                  r
                in
                let p, blocks =
                  Tea_parallel.Pool.with_pool ~jobs:1 (fun pool ->
                      Tea_parallel.Shard.replay_pc_trace pool packed ~make path)
                in
                (p, blocks, !kept)
              else begin
                let starts, insns, len =
                  Tea_parallel.Shard.load_pc_trace path
                in
                let img = tune_image ~pgo ~fuse packed starts ~len in
                let tuned = make_replayer img in
                Tea_core.Replayer.feed_run tuned ~insns starts ~len;
                (Tea_parallel.Profile.of_replayer tuned, len, Some tuned)
              end
        in
        Printf.printf
          "offline replay of %s (%s engine): %d blocks, coverage %.1f%%, %d \
           trace entries\n"
          path engine_name blocks
          (100.0 *. Tea_parallel.Profile.coverage profile)
          profile.Tea_parallel.Profile.enters;
        (match !swapped with
        | Some (tuned, mid, len) -> print_retune_line tuned ~mid ~len
        | None -> ());
        (match Option.map Tea_core.Replayer.engine rep with
        | Some (Tea_core.Replayer.Compiled c) ->
            let p = Tea_core.Compiled.base c in
            if pgo then
              print_pgo_line p ~cycles:profile.Tea_parallel.Profile.cycles;
            if fuse then print_fuse_line p
        | _ -> ());
        rep
    | None ->
        if jobs > 1 then
          or_die (Error "--jobs > 1 applies only to --pc-trace offline replay");
        let result, rep =
          Probe.with_span "pintool_replay"
            ~post:(fun (r, _) ->
              [ ("sim_cycles",
                 string_of_int r.Tea_pinsim.Pintool_replay.total_cycles) ])
          @@ fun () ->
          Tea_pinsim.Pintool_replay.replay ~transition:config ~engine ~pgo
            ~fuse ~traces image
        in
        let st = result.Tea_pinsim.Pintool_replay.transition_stats in
        Printf.printf
          "replayed %d traces (%s engine)\ncoverage: %.1f%%\nslowdown vs native: %.2fx\n\
           transition stats: %d steps, %d in-trace, %d cache hits, %d container \
           hits, %d NTE\n"
          (List.length traces) engine_name
          (100.0 *. result.Tea_pinsim.Pintool_replay.coverage)
          result.Tea_pinsim.Pintool_replay.slowdown
          st.Tea_core.Transition.steps st.Tea_core.Transition.in_trace_hits
          st.Tea_core.Transition.cache_hits st.Tea_core.Transition.global_hits
          st.Tea_core.Transition.global_misses;
        (match Tea_core.Replayer.engine rep with
        | Tea_core.Replayer.Compiled c ->
            let p = Tea_core.Compiled.base c in
            if pgo then print_pgo_line p ~cycles:(Tea_core.Replayer.cycles rep);
            if fuse then print_fuse_line p;
            Some rep
        | Tea_core.Replayer.Reference _ -> None)
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay traces through the TEA under the Pin-like frontend")
    Term.(
      const run $ workload_arg $ strategy_arg $ traces_arg $ config_arg
      $ pc_trace_arg $ engine_arg $ jobs_arg $ pgo_arg $ fuse_arg
      $ retune_arg $ tiers_arg $ scenario_arg $ with_arg $ quantum_arg
      $ schedule_arg $ scenario_seed_arg $ period_arg $ at_arg $ every_arg
      $ obs_term)

let capture_cmd =
  let out_required =
    let doc = "Output PC-trace file." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let format_arg =
    let doc = "Trace encoding: v1, v2 (default) or v3." in
    Arg.(
      value
      & opt
          (enum
             [ ("v1", Tea_core.Pc_trace.V1); ("v2", Tea_core.Pc_trace.V2);
               ("v3", Tea_core.Pc_trace.V3) ])
          Tea_core.Pc_trace.V2
      & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let run name out format obs =
    with_obs obs "capture" @@ fun () ->
    let image = or_die (resolve_workload name) in
    let n =
      Probe.with_span "trace_capture" (fun () ->
          Tea_pinsim.Trace_capture.record ~format image out)
    in
    Printf.printf "captured %d blocks to %s (%d bytes)\n" n out
      (Unix.stat out).Unix.st_size
  in
  Cmd.v
    (Cmd.info "capture" ~doc:"Capture an execution's block stream to a PC-trace file")
    Term.(const run $ workload_arg $ out_required $ format_arg $ obs_term)

(* ---- dot ---- *)

let dot_cmd =
  let run name strategy_name out =
    let image = or_die (resolve_workload name) in
    let strategy = or_die (resolve_strategy strategy_name) in
    let r = Tea_dbt.Stardbt.record ~strategy image in
    let auto = Tea_core.Builder.of_set r.Tea_dbt.Stardbt.set in
    let dot = Tea_core.Dot.of_automaton ~title:name auto in
    match out with
    | Some path ->
        let oc = open_out path in
        output_string oc dot;
        close_out oc;
        Printf.printf "wrote %s\n" path
    | None -> print_string dot
  in
  Cmd.v (Cmd.info "dot" ~doc:"Emit the TEA as Graphviz")
    Term.(const run $ workload_arg $ strategy_arg $ out_arg)

(* ---- analyze ---- *)

let replay_with_detector image traces =
  let auto = Tea_core.Builder.build traces in
  let trans =
    Tea_core.Transition.create Tea_core.Transition.config_global_local auto
  in
  let replayer = Tea_core.Replayer.create trans in
  let detector = Tea_core.Phases.create () in
  let filter =
    Tea_pinsim.Edge_filter.create ~emit:(fun block ~expanded ->
        Tea_core.Replayer.feed_addr replayer ~insns:expanded
          block.Tea_cfg.Block.start;
        Tea_core.Phases.feed detector (Tea_core.Replayer.state replayer))
  in
  let _ = Tea_pinsim.Pin.run ~tool:(Tea_pinsim.Edge_filter.callbacks filter) image in
  Tea_pinsim.Edge_filter.flush filter;
  Tea_core.Phases.finish detector;
  (replayer, detector)

let record_traces image strategy_name =
  let strategy = or_die (resolve_strategy strategy_name) in
  let r = Tea_dbt.Stardbt.record ~strategy image in
  Tea_traces.Trace_set.to_list r.Tea_dbt.Stardbt.set

(* ---- repack ---- *)

let repack_cmd =
  let save_profile_arg =
    let doc =
      "Also write the collected edge profile (per-state visits, per-edge \
       taken counts, per-state scan misses over the flat image) as a \
       TEAEP1 file — the drift-monitor reference for `serve \
       --drift-profile' and `info --baseline'."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "save-profile" ] ~docv:"FILE" ~doc)
  in
  let run name strategy_name hot_prefix out save_profile obs =
    with_obs obs "repack" @@ fun () ->
    let image, packed = freeze_workload name strategy_name in
    (* profile stream: the block trace of one native run of the workload *)
    let starts, insns, len = capture_stream image in
    let repacked, baseline, tuned =
      Probe.with_span "pgo_replay" @@ fun () ->
      Tea_opt.Repack.pgo_replay ~hot_prefix packed ~insns starts ~len
    in
    if
      Tea_core.Replayer.tbb_counts baseline
      <> Tea_core.Replayer.tbb_counts tuned
    then or_die (Error "repacked TBB mapping diverged from the baseline");
    let base_cycles = Tea_core.Replayer.cycles baseline in
    let tuned_cycles = Tea_core.Replayer.cycles tuned in
    Printf.printf "repacked %s: %d blocks replayed, tbb mapping identical\n"
      name len;
    Printf.printf "layout: moved %d/%d states, %d hot-prefix edges (cap %d)\n"
      (Tea_opt.Repack.moved_states repacked)
      (Tea_core.Packed.n_slots repacked)
      (Tea_core.Packed.hot_edges repacked)
      hot_prefix;
    Printf.printf "sim cycles: %d -> %d (%.3fx)\n" base_cycles tuned_cycles
      (if tuned_cycles = 0 then 1.0
       else float_of_int base_cycles /. float_of_int tuned_cycles);
    (match save_profile with
    | Some path ->
        Tea_opt.Repack.save_profile path
          (Tea_opt.Repack.collect packed starts ~len);
        Printf.printf "wrote %s (TEAEP1 edge profile)\n" path
    | None -> ());
    match out with
    | Some path ->
        Tea_core.Serialize.save_packed path repacked;
        Printf.printf "wrote %s (TEAPK2, %d bytes)\n" path
          (Unix.stat path).Unix.st_size
    | None -> ()
  in
  Cmd.v
    (Cmd.info "repack"
       ~doc:
         "Profile-guided repacking: record, profile one run, repack the \
          packed image and compare against the baseline replay")
    Term.(
      const run $ workload_arg $ strategy_arg $ hot_prefix_arg $ out_arg
      $ save_profile_arg $ obs_term)

(* ---- fuse ---- *)

let fuse_cmd =
  let run name strategy_name pgo hot_prefix out obs =
    with_obs obs "fuse" @@ fun () ->
    let image, packed = freeze_workload name strategy_name in
    let starts, insns, len = capture_stream image in
    let src = tune_image ~hot_prefix ~pgo ~fuse:false packed starts ~len in
    let fused, baseline, tuned =
      Probe.with_span "fused_replay" @@ fun () ->
      (* with --pgo the profiling stream also gates chain selection,
         re-collected over the repacked layout *)
      let profile =
        if pgo then Some (Tea_opt.Repack.collect src starts ~len) else None
      in
      Tea_opt.Fuse.fused_replay ?profile src ~insns starts ~len
    in
    (* hard gates: fusion must be observationally invisible *)
    if
      Tea_core.Replayer.tbb_counts baseline
      <> Tea_core.Replayer.tbb_counts tuned
    then or_die (Error "fused TBB mapping diverged from the baseline");
    if Tea_core.Replayer.cycles baseline <> Tea_core.Replayer.cycles tuned then
      or_die (Error "fused simulated cycles diverged from the baseline");
    Printf.printf "fused %s: %d blocks replayed, tbb mapping identical\n" name
      len;
    if pgo then
      print_pgo_line src ~cycles:(Tea_core.Replayer.cycles tuned);
    print_fuse_line fused;
    Printf.printf "sim cycles: %d (identical to unfused)\n"
      (Tea_core.Replayer.cycles tuned);
    match out with
    | Some path ->
        Tea_core.Serialize.save_packed path fused;
        Printf.printf "wrote %s (TEAPK%d, %d bytes)\n" path
          (Tea_core.Serialize.packed_version fused)
          (Unix.stat path).Unix.st_size
    | None -> ()
  in
  Cmd.v
    (Cmd.info "fuse"
       ~doc:
         "Superstate fusion: record, fuse single-successor chains and \
          monomorphic cycles in the packed image (optionally after --pgo \
          repacking), and verify the fused replay is identical")
    Term.(
      const run $ workload_arg $ strategy_arg $ pgo_arg $ hot_prefix_arg
      $ out_arg $ obs_term)

(* ---- compile ---- *)

let compile_cmd =
  let run name strategy_name pgo fuse hot_prefix out obs =
    with_obs obs "compile" @@ fun () ->
    let image, packed = freeze_workload name strategy_name in
    let starts, insns, len = capture_stream image in
    (* the compiler consumes any layout, so --pgo/--fuse stack the same
       way they do under `replay': tune first, then specialize *)
    let src = tune_image ~hot_prefix ~pgo ~fuse packed starts ~len in
    let compiled, baseline, tuned =
      Probe.with_span "compiled_replay" @@ fun () ->
      Tea_opt.Compile.compiled_replay src ~insns starts ~len
    in
    (* hard gates: compilation must be observationally invisible *)
    if
      Tea_core.Replayer.tbb_counts baseline
      <> Tea_core.Replayer.tbb_counts tuned
    then or_die (Error "compiled TBB mapping diverged from the baseline");
    if Tea_core.Replayer.cycles baseline <> Tea_core.Replayer.cycles tuned then
      or_die (Error "compiled simulated cycles diverged from the baseline");
    Printf.printf "compiled %s: %d blocks replayed, tbb mapping identical\n"
      name len;
    if pgo then print_pgo_line src ~cycles:(Tea_core.Replayer.cycles tuned);
    if fuse then print_fuse_line src;
    print_string (Tea_opt.Compile.describe compiled);
    Printf.printf "sim cycles: %d (identical to interpreted)\n"
      (Tea_core.Replayer.cycles tuned);
    match out with
    | Some path ->
        (* closures don't serialize; the artifact is the source image,
           re-specialized on load by `replay --engine=compiled' *)
        Tea_core.Serialize.save_packed path src;
        Printf.printf "wrote %s (TEAPK%d, %d bytes; dispatch recompiles on load)\n"
          path
          (Tea_core.Serialize.packed_version src)
          (Unix.stat path).Unix.st_size
    | None -> ()
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Dispatch compilation: record, compile the packed image's \
          dispatch into one transition loop plus fused-chain matchers \
          (optionally after --pgo repacking and --fuse chain fusion), and \
          verify the compiled replay is identical")
    Term.(
      const run $ workload_arg $ strategy_arg $ pgo_arg $ fuse_arg
      $ hot_prefix_arg $ out_arg $ obs_term)

(* ---- info ---- *)

let info_cmd =
  let image_arg =
    let doc = "Packed image file (TEAPK1/TEAPK2/TEAPK3, see `repack -o' and `fuse -o')." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"IMAGE" ~doc)
  in
  let profile_arg =
    let doc =
      "TEAEP1 edge profile collected over this image's layout (see \
       `repack --save-profile'): print its static dispatch-tier mix \
       through the image's hot prefixes and its drift distance from the \
       reference."
    in
    Arg.(
      value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)
  in
  let baseline_arg =
    let doc =
      "Drift reference: a second TEAEP1 profile to measure --profile \
       against. Without it, a repacked image's own hotness ranking (its \
       slot order) is the reference; a flat image has none."
    in
    Arg.(
      value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let load_teaep path =
    match Tea_opt.Repack.load_profile path with
    | prof -> prof
    | exception Failure msg ->
        or_die (Error (Printf.sprintf "%s: %s" path msg))
  in
  (* Static tier mix: push the profile's per-edge taken counts through the
     image's dispatch layout. Edges inside a state's hot prefix resolve by
     linear scan ("hot"), the tail by binary search ("search"); per-state
     span misses fall through to the trace-head hash ("hash/miss" — the
     split needs the stream, not just counts). TEAEP profiles are in
     original-id space, so they are permuted into the image's layout
     first. *)
  let print_profile_mix packed (prof : Tea_opt.Repack.profile) =
    if
      Array.length prof.visits <> Tea_core.Packed.n_slots packed
      || Array.length prof.taken <> Tea_core.Packed.n_edges packed
    then
      or_die
        (Error
           "profile shape does not match the image (collected over a \
            different layout?)");
    let p = Tea_opt.Repack.permute packed prof in
    let raw = Tea_core.Packed.to_raw packed in
    let hot = ref 0 and search = ref 0 in
    Array.iteri
      (fun s k ->
        let lo = raw.offsets.(s) in
        for e = lo to raw.offsets.(s + 1) - 1 do
          if e < lo + k then hot := !hot + p.taken.(e)
          else search := !search + p.taken.(e)
        done)
      raw.hot_len;
    let fallthrough = Array.fold_left ( + ) 0 p.misses in
    let total = !hot + !search + fallthrough in
    let pct n =
      Tea_report.Stats.percent1
        (float_of_int n /. float_of_int (max 1 total))
    in
    Printf.printf
      "profile: %d resolutions  hot=%s search=%s hash/miss=%s\n" total
      (pct !hot) (pct !search) (pct fallthrough)
  in
  let run path profile baseline =
    let packed =
      try Tea_core.Serialize.load_packed path
      with Tea_core.Serialize.Parse_error msg ->
        or_die (Error (Printf.sprintf "%s: %s" path msg))
    in
    print_string (Tea_core.Serialize.describe_packed packed);
    (* what `replay --engine=compiled' would specialize this image into:
       pure function of the arrays, cheap enough to build on the spot *)
    print_string (Tea_opt.Compile.describe (Tea_opt.Compile.compile packed));
    match profile with
    | None ->
        if baseline <> None then
          or_die (Error "--baseline needs --profile to measure against")
    | Some ppath ->
        let prof = load_teaep ppath in
        print_profile_mix packed prof;
        let live = Tea_opt.Repack.visit_counts prof in
        let ref_counts =
          match baseline with
          | Some bpath -> Some (Tea_opt.Repack.visit_counts (load_teaep bpath), live)
          | None ->
              (* A repacked image's slot order IS its baked hotness
                 ranking (hotness-descending renumbering, NTE pinned at
                 0) — the only trace of the tuning profile a TEAPK2/3
                 file carries. Re-assigning the live profile's own
                 sorted masses along that slot order builds a reference
                 that scores exactly 0 when the live hotness ranking
                 still matches the baked one, and moves mass (keyed by
                 original state id, the profile's space) when it does
                 not. NTE carries no layout decision, so it is dropped
                 from both sides. *)
              if Tea_core.Packed.is_repacked packed then begin
                let hot = List.filter (fun (id, _) -> id <> 0) live in
                let sorted =
                  List.sort (fun a b -> Int.compare b a) (List.map snd hot)
                in
                let n = Tea_core.Packed.n_slots packed in
                let rec assign slot counts acc =
                  match counts with
                  | [] -> List.rev acc
                  | c :: rest ->
                      if slot >= n then List.rev acc
                      else
                        assign (slot + 1) rest
                          ((Tea_core.Packed.orig_state packed slot, c) :: acc)
                in
                Some (assign 1 sorted [], hot)
              end
              else None
        in
        (match ref_counts with
        | None ->
            print_endline
              "drift: no reference (flat image bakes no ranking; pass \
               --baseline)"
        | Some (counts, live) ->
            let d = Tea_observe.Drift.create counts in
            let dist = Tea_observe.Drift.measure d live in
            Printf.printf "drift: l1=%.4f threshold=%.2f (%s%s)\n" dist
              (Tea_observe.Drift.threshold d)
              (if Tea_observe.Drift.exceeded d dist then "exceeded"
               else "ok")
              (if baseline = None then ", vs layout ranking" else ""))
  in
  Cmd.v
    (Cmd.info "info"
       ~doc:
         "Describe a serialized packed image (optionally with an edge \
          profile's tier mix and drift)")
    Term.(const run $ image_arg $ profile_arg $ baseline_arg)

let analyze_cmd =
  let run name strategy_name obs =
    with_obs obs "analyze" @@ fun () ->
    let image = or_die (resolve_workload name) in
    let traces =
      Probe.with_span "record_traces" (fun () ->
          record_traces image strategy_name)
    in
    let replayer, _ =
      Probe.with_span "replay" (fun () -> replay_with_detector image traces)
    in
    print_endline (Tea_core.Analysis.coverage_summary replayer);
    print_endline "hottest traces:";
    List.iter
      (fun s -> Format.printf "  %a@." Tea_core.Analysis.pp_trace_stats s)
      (Tea_core.Analysis.hottest ~n:10 replayer);
    match Tea_core.Analysis.side_exit_candidates ~n:5 replayer with
    | [] -> ()
    | sites ->
        print_endline "hot open TBBs (side-exit / extension candidates):";
        List.iter
          (fun site ->
            Printf.printf "  trace %d tbb %d @0x%x: %d executions\n"
              site.Tea_core.Analysis.site_trace site.Tea_core.Analysis.site_tbb
              site.Tea_core.Analysis.block_start site.Tea_core.Analysis.executions)
          sites
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Replay and print trace-quality analytics")
    Term.(const run $ workload_arg $ strategy_arg $ obs_term)

(* ---- phases ---- *)

let phases_cmd =
  let run name strategy_name =
    let image = or_die (resolve_workload name) in
    let traces = record_traces image strategy_name in
    let _, detector = replay_with_detector image traces in
    Format.printf "%a" Tea_core.Phases.pp detector
  in
  Cmd.v
    (Cmd.info "phases" ~doc:"Detect program phases from trace stability (§5, [22])")
    Term.(const run $ workload_arg $ strategy_arg)

(* ---- cachesim ---- *)

let cachesim_cmd =
  let run name strategy_name =
    let image = or_die (resolve_workload name) in
    let traces = record_traces image strategy_name in
    let report = Tea_cachesim.Collector.profile ~traces image in
    print_string (Tea_cachesim.Collector.render report)
  in
  Cmd.v
    (Cmd.info "cachesim"
       ~doc:"Replay traces on the cache simulator with per-trace attribution")
    Term.(const run $ workload_arg $ strategy_arg)

(* ---- bpred ---- *)

let bpred_cmd =
  let kind_arg =
    let doc = "Predictor: always-taken, btfn, bimodal, gshare." in
    Arg.(value & opt string "gshare" & info [ "p"; "predictor" ] ~docv:"KIND" ~doc)
  in
  let resolve_kind = function
    | "always-taken" -> Ok Tea_bpred.Predictor.Always_taken
    | "btfn" -> Ok Tea_bpred.Predictor.Btfn
    | "bimodal" -> Ok (Tea_bpred.Predictor.Bimodal 12)
    | "gshare" -> Ok (Tea_bpred.Predictor.Gshare 12)
    | k -> Error (Printf.sprintf "unknown predictor %S" k)
  in
  let run name strategy_name kind_name =
    let image = or_die (resolve_workload name) in
    let kind = or_die (resolve_kind kind_name) in
    let traces = record_traces image strategy_name in
    let report = Tea_bpred.Collector.profile ~kind ~traces image in
    print_string (Tea_bpred.Collector.render report)
  in
  Cmd.v
    (Cmd.info "bpred"
       ~doc:"Replay traces with per-trace branch-prediction attribution")
    Term.(const run $ workload_arg $ strategy_arg $ kind_arg)

(* ---- inspect ---- *)

let inspect_cmd =
  let id_arg =
    let doc = "Trace id to inspect (default: the hottest by replay)." in
    Arg.(value & opt (some int) None & info [ "i"; "id" ] ~docv:"ID" ~doc)
  in
  let run name strategy_name id =
    let image = or_die (resolve_workload name) in
    let traces = record_traces image strategy_name in
    let replayer, _ = replay_with_detector image traces in
    let target_id =
      match id with
      | Some i -> i
      | None -> (
          match Tea_core.Analysis.hottest ~n:1 replayer with
          | [ t ] -> t.Tea_core.Analysis.trace_id
          | _ ->
              prerr_endline "tea_tool: no trace executed";
              exit 1)
    in
    match List.find_opt (fun t -> t.Tea_traces.Trace.id = target_id) traces with
    | None ->
        prerr_endline (Printf.sprintf "tea_tool: no trace with id %d" target_id);
        exit 1
    | Some trace ->
        let profile = Tea_core.Replayer.trace_profile replayer target_id in
        Format.printf "%a@." Tea_traces.Trace.pp trace;
        Array.iteri
          (fun i tb ->
            let count =
              Option.value (List.assoc_opt i profile) ~default:0
            in
            Printf.printf "tbb #%d (executed %d times) -> [%s]
" i count
              (String.concat "; "
                 (List.map string_of_int (Tea_traces.Trace.successors trace i)));
            Array.iter
              (fun (a, insn) ->
                Printf.printf "    0x%08x  %s
" a (Tea_isa.Insn.to_string insn))
              tb.Tea_traces.Tbb.block.Tea_cfg.Block.insns)
          trace.Tea_traces.Trace.tbbs
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Disassemble one trace with its replayed per-TBB profile")
    Term.(const run $ workload_arg $ strategy_arg $ id_arg)

(* ---- characterize ---- *)

let characterize_cmd =
  let run name =
    let image = or_die (resolve_workload name) in
    let dc = Tea_cfg.Dcfg.create () in
    let machine, _stop, _disc =
      Tea_cfg.Discovery.run ~policy:Tea_cfg.Discovery.Stardbt image
        (Tea_cfg.Dcfg.callbacks dc)
    in
    let blocks = Tea_cfg.Dcfg.blocks dc in
    let execs = Tea_cfg.Dcfg.total_block_execs dc in
    let insns = Tea_cfg.Dcfg.total_insns dc in
    let weighted_block_size = float_of_int insns /. float_of_int (max 1 execs) in
    let conditional =
      List.fold_left
        (fun acc (b, n) ->
          if Tea_isa.Insn.is_conditional (Tea_cfg.Block.terminator b) then acc + n
          else acc)
        0 blocks
    in
    let indirect =
      List.fold_left
        (fun acc (b, n) -> if Tea_cfg.Block.has_indirect_exit b then acc + n else acc)
        0 blocks
    in
    Printf.printf
      "%s:
      \  static instructions: %d (%d bytes)
      \  dynamic instructions: %d (%d cycles)
      \  distinct dynamic blocks: %d
      \  block executions: %d (mean dynamic block size %.2f insns)
      \  conditional-branch block endings: %.1f%%
      \  indirect block endings: %.1f%%
"
      name
      (Tea_isa.Image.instruction_count image)
      (Tea_isa.Image.code_bytes image)
      (Tea_machine.Interp.dyn_instrs machine)
      (Tea_machine.Interp.cycles machine)
      (List.length blocks) execs weighted_block_size
      (100.0 *. float_of_int conditional /. float_of_int (max 1 execs))
      (100.0 *. float_of_int indirect /. float_of_int (max 1 execs))
  in
  Cmd.v
    (Cmd.info "characterize" ~doc:"Dynamic control-flow characteristics of a workload")
    Term.(const run $ workload_arg)

(* ---- optimize ---- *)

let optimize_cmd =
  let run name strategy_name =
    let image = or_die (resolve_workload name) in
    let traces = record_traces image strategy_name in
    let replayer, _ = replay_with_detector image traces in
    let total = ref 0 in
    List.iter
      (fun trace ->
        let savings = Tea_opt.Opt.weighted replayer trace in
        total := !total + savings.Tea_opt.Opt.expected_cycles;
        if savings.Tea_opt.Opt.findings <> [] then
          print_string (Tea_opt.Opt.render trace savings))
      traces;
    let native = Tea_pinsim.Pin.native_cycles image in
    Printf.printf "expected improvement from optimizing all traces: %d / %d cycles (%.2f%%)
"
      !total native
      (100.0 *. float_of_int !total /. float_of_int (max 1 native))
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Profile-weighted trace-optimization opportunities from TEA replay")
    Term.(const run $ workload_arg $ strategy_arg)

(* ---- layout ---- *)

let layout_cmd =
  let run name strategy_name =
    let image = or_die (resolve_workload name) in
    let traces = record_traces image strategy_name in
    let r = Tea_cachesim.Layout.study ~traces image in
    print_string (Tea_cachesim.Layout.render r)
  in
  Cmd.v
    (Cmd.info "layout"
       ~doc:"I-cache comparison: original code layout vs packed trace cache")
    Term.(const run $ workload_arg $ strategy_arg)

(* ---- reuse ---- *)

let reuse_cmd =
  let run name =
    let image = or_die (resolve_workload name) in
    let h = Tea_cachesim.Reuse.profile_data_stream image in
    print_string (Tea_cachesim.Reuse.render h);
    List.iter
      (fun k ->
        Printf.printf "  fully-assoc LRU with %5d lines would hit %.1f%%\n" k
          (100.0 *. Tea_cachesim.Reuse.hit_rate_for h k))
      [ 64; 256; 1024; 4096 ]
  in
  Cmd.v
    (Cmd.info "reuse" ~doc:"Exact LRU reuse-distance histogram of the data stream")
    Term.(const run $ workload_arg)

(* ---- tables ---- *)

let benchmarks_arg =
  let doc = "Benchmarks to include (default: all 26)." in
  Arg.(value & opt_all string [] & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)

let all_benchmarks = function
  | [] -> Tea_workloads.Spec2000.names
  | benchmarks -> benchmarks

let table_pgo_arg =
  let doc =
    "Profile-repack the compiled engine's image on each benchmark's own \
     stream before measuring the Table 4 Compiled column."
  in
  Arg.(value & flag & info [ "pgo" ] ~doc)

let table_fuse_arg =
  let doc =
    "Superstate-fuse the Table 4 Compiled column's image (after --pgo \
     repacking when both are given) before measuring."
  in
  Arg.(value & flag & info [ "fuse" ] ~doc)

let tables_cmd =
  let run benchmarks jobs pgo fuse obs =
    with_obs obs "tables" @@ fun () ->
    let benchmarks = all_benchmarks benchmarks in
    with_jobs ~quiet:obs.quiet jobs (fun pool ->
        let open Tea_report.Experiments in
        let benches = prepare ?pool ~benchmarks () in
        print_string (render_table1 (table1 ?pool benches));
        print_newline ();
        print_string (render_table2 (table2 ?pool benches));
        print_newline ();
        print_string (render_table3 (table3 ?pool benches));
        print_newline ();
        print_string (render_table4 (table4 ?pool ~pgo ~fuse benches)))
  in
  Cmd.v (Cmd.info "tables" ~doc:"Render the paper's Tables 1-4")
    Term.(
      const run $ benchmarks_arg $ jobs_arg $ table_pgo_arg $ table_fuse_arg
      $ obs_term)

let table1_cmd =
  let run benchmarks jobs obs =
    with_obs obs "table1" @@ fun () ->
    let benchmarks = all_benchmarks benchmarks in
    with_jobs ~quiet:obs.quiet jobs (fun pool ->
        let open Tea_report.Experiments in
        let benches = prepare ?pool ~benchmarks () in
        print_string (render_table1 (table1 ?pool benches)))
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Render Table 1 (size savings), sharded with --jobs")
    Term.(const run $ benchmarks_arg $ jobs_arg $ obs_term)

let table4_cmd =
  let run benchmarks jobs pgo fuse obs =
    with_obs obs "table4" @@ fun () ->
    let benchmarks = all_benchmarks benchmarks in
    with_jobs ~quiet:obs.quiet jobs (fun pool ->
        let open Tea_report.Experiments in
        let benches = prepare ?pool ~benchmarks () in
        print_string (render_table4 (table4 ?pool ~pgo ~fuse benches)))
  in
  Cmd.v
    (Cmd.info "table4"
       ~doc:"Render Table 4 (overhead ablation), sharded with --jobs")
    Term.(
      const run $ benchmarks_arg $ jobs_arg $ table_pgo_arg $ table_fuse_arg
      $ obs_term)

(* ---- serve / client ---- *)

let addr_conv : Tea_serve.Frame.addr Arg.conv =
  let parse s =
    if String.length s > 5 && String.sub s 0 5 = "unix:" then
      Ok (Tea_serve.Frame.Unix_sock (String.sub s 5 (String.length s - 5)))
    else if String.length s > 4 && String.sub s 0 4 = "tcp:" then
      let rest = String.sub s 4 (String.length s - 4) in
      match String.rindex_opt rest ':' with
      | None -> Error (`Msg "tcp address must be tcp:HOST:PORT")
      | Some i -> (
          let host = String.sub rest 0 i in
          let port = String.sub rest (i + 1) (String.length rest - i - 1) in
          match int_of_string_opt port with
          | Some p when p >= 0 && p < 65536 -> Ok (Tea_serve.Frame.Tcp (host, p))
          | _ -> Error (`Msg (Printf.sprintf "bad port %S" port)))
    else Error (`Msg "address must be unix:PATH or tcp:HOST:PORT")
  in
  Arg.conv
    ( (fun s -> parse s),
      fun ppf a -> Format.pp_print_string ppf (Tea_serve.Frame.pp_addr a) )

(* The daemon's image prep mirrors offline `replay --pc-trace`: freeze the
   workload's automaton, then tune (--pgo/--fuse) on the workload's own
   captured block stream — sessions then replay arbitrary client streams
   against that shared image. Alongside the image, the prep returns the
   flat base image (the source every closed-loop rebuild starts from)
   and, when tuned, the tuning profile's per-state visit counts
   (collected on the flat base, so the ids are automaton ids) as the
   drift-monitor reference: "what the image's layout was tuned for". *)
let prepare_serve_image name strategy_name pgo fuse =
  let image, packed = freeze_workload name strategy_name in
  if not (pgo || fuse) then (packed, packed, None)
  else begin
    let starts, _, len = capture_stream image in
    let profile = Tea_opt.Repack.collect packed starts ~len in
    let tuned =
      if pgo then Tea_opt.Retune.build ~fuse ~profile packed
      else Tea_opt.Fuse.fuse packed
    in
    (tuned, packed, Some (Tea_opt.Repack.visit_counts profile))
  end

let serve_cmd =
  let listen_arg =
    let doc = "Address to listen on: unix:PATH or tcp:HOST:PORT (port 0 \
               picks an ephemeral port, printed on startup)." in
    Arg.(
      value
      & opt addr_conv (Tea_serve.Frame.Unix_sock "/tmp/tea_serve.sock")
      & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let sessions_arg =
    let doc = "Exit after serving $(docv) sessions (runs forever without it)." in
    Arg.(value & opt (some int) None & info [ "sessions" ] ~docv:"N" ~doc)
  in
  let offline_check_arg =
    let doc =
      "Retain every completed session's bytes and, on exit, verify the \
       fleet profile against a sequential offline replay of them."
    in
    Arg.(value & flag & info [ "offline-check" ] ~doc)
  in
  let events_arg =
    let doc =
      "Append structured JSONL events (session open/close/abort, \
       drift-threshold crossings, retunes and swaps) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)
  in
  let drift_profile_arg =
    let doc =
      "Drift-monitor reference: a TEAEP1 edge profile (see `repack \
       --save-profile'). Without it, --pgo/--fuse preps use their own \
       tuning profile as the reference."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "drift-profile" ] ~docv:"FILE" ~doc)
  in
  let drift_threshold_arg =
    let doc = "Drift threshold: L1 distance that fires a drift event." in
    Arg.(
      value
      & opt float Tea_observe.Drift.default_threshold
      & info [ "drift-threshold" ] ~docv:"D" ~doc)
  in
  let serve_engine_arg =
    engine_arg_of
      ~doc:
        "Session replay engine: compiled (one transition loop; the \
         image is compiled once per epoch and shared by every session) is \
         the only value."
      [ ("compiled", `Compiled) ]
      `Compiled
  in
  let serve_retune_arg =
    let doc =
      "Closed-loop continuous PGO: when the drift gauge stays over \
       threshold, rebuild the repack+fuse ladder from the traffic seen so \
       far in a background domain and hot-swap the image, each event \
       loop rebinding its live sessions between two reads, bumping the \
       [tea_image_epoch] gauge and emitting a \
       `swap' event. Needs a drift reference (--drift-profile or \
       --pgo/--fuse)."
    in
    Arg.(value & flag & info [ "retune" ] ~doc)
  in
  let retune_cooldown_arg =
    let doc =
      "Completed sessions the retune trigger ignores after a swap \
       (hysteresis; with --retune)."
    in
    Arg.(
      value
      & opt int Tea_observe.Trigger.default_cooldown
      & info [ "retune-cooldown" ] ~docv:"N" ~doc)
  in
  let save_fleet_arg =
    let doc =
      "On shutdown, write the whole fleet's traffic as a TEAEP1 edge \
       profile in flat-image ids — the sessions' own replay counts, \
       summed — and feed it back as the next boot's `--drift-profile' \
       (or `repack' input) to close the loop across restarts."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "save-fleet-profile" ] ~docv:"FILE" ~doc)
  in
  let run name strategy_name listen engine jobs pgo fuse sessions
      offline_check events_path drift_profile drift_threshold retune
      retune_cooldown save_fleet obs =
    with_obs obs "serve" @@ fun () ->
    let image, base, tuning_ref =
      Probe.with_span "serve_prep" @@ fun () ->
      prepare_serve_image name strategy_name pgo fuse
    in
    let drift_ref =
      match drift_profile with
      | Some path -> (
          match Tea_opt.Repack.load_profile path with
          | prof -> Some (Tea_opt.Repack.visit_counts prof)
          | exception Failure msg ->
              or_die (Error (Printf.sprintf "%s: %s" path msg)))
      | None -> tuning_ref
    in
    let drift =
      Option.map
        (fun counts ->
          Tea_observe.Drift.create ~threshold:drift_threshold counts)
        drift_ref
    in
    if retune && Option.is_none drift then
      or_die
        (Error
           "--retune needs a drift reference: give --drift-profile or tune \
            with --pgo/--fuse");
    if retune_cooldown < 0 then
      or_die (Error "--retune-cooldown must be >= 0");
    let retune_cfg =
      if not retune then None
      else
        Some { Tea_serve.Server.default_retune with cooldown = retune_cooldown }
    in
    let events = Option.map Tea_observe.Events.open_file events_path in
    Fun.protect
      ~finally:(fun () -> Option.iter Tea_observe.Events.close events)
    @@ fun () ->
    let srv =
      Tea_serve.Server.create ~offline_check ?events ?drift ~base
        ?retune:retune_cfg ~jobs ~image listen
    in
    Fun.protect ~finally:(fun () -> Tea_serve.Server.close srv) @@ fun () ->
    (* clients wait for this line before connecting *)
    Printf.printf "serving %s on %s (%s engine%s%s%s, jobs %d)\n%!" name
      (Tea_serve.Frame.pp_addr (Tea_serve.Server.addr srv))
      (engine_name engine)
      (if pgo then " +pgo" else "")
      (if fuse then " +fuse" else "")
      (if retune then " +retune" else "")
      jobs;
    Probe.with_span "serve_run" (fun () ->
        Tea_serve.Server.run ?until_sessions:sessions srv);
    let fleet = Tea_serve.Server.fleet_profile srv in
    Printf.printf "served %d sessions (%d disconnected)\n"
      (Tea_serve.Server.completed srv)
      (Tea_serve.Server.disconnected srv);
    Printf.printf "fleet: %s\n"
      (Format.asprintf "%a" Tea_parallel.Profile.pp fleet);
    (match Tea_serve.Server.drift_distance srv with
    | Some (d, thr) ->
        Printf.printf "drift: l1=%.4f threshold=%.2f (%s)\n" d thr
          (if d > thr then "exceeded" else "ok")
    | None -> ());
    if retune then
      Printf.printf "retune: %d hot swaps (%d ns paused)\n"
        (Tea_serve.Server.epoch srv)
        (Tea_serve.Server.swap_pause_ns srv);
    (match save_fleet with
    | Some path ->
        Tea_opt.Repack.save_profile path
          (Tea_serve.Server.fleet_edge_profile srv);
        Printf.printf "wrote %s (TEAEP1 fleet edge profile)\n" path
    | None -> ());
    if obs.metrics then
      print_string
        (Tea_report.Stats.render ~title:"serve" (Tea_serve.Server.metrics srv));
    (if offline_check then
       let offline =
         Probe.with_span "serve_offline_check" @@ fun () ->
         Tea_serve.Server.offline_profile srv
       in
       if Tea_parallel.Profile.equal fleet offline then
         print_endline "serve gate: fleet == offline"
       else begin
         Printf.printf "offline: %s\n"
           (Format.asprintf "%a" Tea_parallel.Profile.pp offline);
         or_die
           (Error
              "serve gate failed: fleet profile diverged from sequential \
               offline replay")
       end);
    (* tiers of the completed sessions, read off the fleet's counters *)
    if obs.metrics then
      print_string (Tea_report.Hotness.render (Tea_serve.Server.tiers srv))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the replay-as-a-service daemon over a shared packed image")
    Term.(
      const run $ workload_arg $ strategy_arg $ listen_arg $ serve_engine_arg
      $ jobs_arg $ pgo_arg $ fuse_arg $ sessions_arg
      $ offline_check_arg $ events_arg $ drift_profile_arg
      $ drift_threshold_arg $ serve_retune_arg $ retune_cooldown_arg
      $ save_fleet_arg $ obs_term)

let client_cmd =
  let connect_arg =
    let doc = "Server address: unix:PATH or tcp:HOST:PORT." in
    Arg.(
      required
      & opt (some addr_conv) None
      & info [ "connect" ] ~docv:"ADDR" ~doc)
  in
  let trace_arg =
    let doc = "PC-trace file to stream ($(b,-) for standard input)." in
    Arg.(
      required & opt (some string) None & info [ "pc-trace" ] ~docv:"FILE" ~doc)
  in
  let chunk_arg =
    let doc =
      "Data-frame payload size in bytes; small values deliberately split \
       trace records across frames."
    in
    Arg.(value & opt int 65536 & info [ "chunk" ] ~docv:"BYTES" ~doc)
  in
  let abort_arg =
    let doc =
      "Adversarial mode: send only the first $(docv) bytes, then \
       disconnect without an end-of-stream frame."
    in
    Arg.(value & opt (some int) None & info [ "abort-bytes" ] ~docv:"N" ~doc)
  in
  let retries_arg =
    let doc =
      "Retry the connect up to $(docv) times when the server is not up \
       yet (ECONNREFUSED / missing socket), with bounded exponential \
       backoff; errors after the connection is up never retry."
    in
    Arg.(value & opt int 5 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let backoff_arg =
    let doc = "Seconds before the first connect retry (doubles each time)." in
    Arg.(value & opt float 0.05 & info [ "backoff" ] ~docv:"SECONDS" ~doc)
  in
  let run connect trace chunk abort_bytes retries backoff =
    if retries < 0 then or_die (Error "--retries must be >= 0");
    if backoff <= 0.0 then or_die (Error "--backoff must be positive");
    match abort_bytes with
    | Some bytes_sent ->
        (try Tea_serve.Client.abort ~bytes_sent connect trace
         with Unix.Unix_error (e, _, _) ->
           or_die (Error ("connect failed: " ^ Unix.error_message e)));
        Printf.printf "aborted session after %d bytes\n" bytes_sent
    | None -> (
        match
          Tea_serve.Client.replay ~retries ~backoff ~chunk connect trace
        with
        | profile ->
            Printf.printf "profile: %s\n"
              (Format.asprintf "%a" Tea_parallel.Profile.pp profile)
        | exception Tea_serve.Client.Server_error msg ->
            or_die (Error ("server rejected session: " ^ msg))
        | exception Unix.Unix_error (e, _, _) ->
            or_die (Error ("connect failed: " ^ Unix.error_message e)))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Stream a PC-trace to a running tea_tool serve daemon")
    Term.(
      const run $ connect_arg $ trace_arg $ chunk_arg $ abort_arg
      $ retries_arg $ backoff_arg)

let observe_cmd =
  let connect_arg =
    let doc = "Server address: unix:PATH or tcp:HOST:PORT." in
    Arg.(
      required
      & opt (some addr_conv) None
      & info [ "connect" ] ~docv:"ADDR" ~doc)
  in
  let dump_arg =
    let doc = "Write the exposition to $(docv) instead of standard output." in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE" ~doc)
  in
  let run connect dump =
    match Tea_serve.Client.scrape connect with
    | text -> (
        match dump with
        | Some path ->
            let oc = open_out path in
            output_string oc text;
            close_out oc;
            Printf.printf "wrote %s (%d bytes)\n" path (String.length text)
        | None -> print_string text)
    | exception Tea_serve.Client.Server_error msg ->
        or_die (Error ("server rejected scrape: " ^ msg))
    | exception Unix.Unix_error (e, _, _) ->
        or_die (Error ("connect failed: " ^ Unix.error_message e))
  in
  Cmd.v
    (Cmd.info "observe"
       ~doc:
         "Scrape the Prometheus-style metrics exposition from a running \
          tea_tool serve daemon")
    Term.(const run $ connect_arg $ dump_arg)

let () =
  let doc = "Trace Execution Automata: record, replay and inspect traces" in
  let info = Cmd.info "tea_tool" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; record_cmd; replay_cmd; repack_cmd; fuse_cmd;
            compile_cmd; info_cmd; capture_cmd; dot_cmd; analyze_cmd;
            phases_cmd; cachesim_cmd; bpred_cmd; inspect_cmd; characterize_cmd;
            optimize_cmd; layout_cmd; reuse_cmd; tables_cmd; table1_cmd;
            table4_cmd; serve_cmd; client_cmd; observe_cmd;
          ]))

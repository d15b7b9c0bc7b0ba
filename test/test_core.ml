open Tea_isa
module I = Insn
module Block = Tea_cfg.Block
module Trace = Tea_traces.Trace
module Automaton = Tea_core.Automaton
module Builder = Tea_core.Builder
module Transition = Tea_core.Transition
module Online = Tea_core.Online
module Replayer = Tea_core.Replayer
module Serialize = Tea_core.Serialize
module Dot = Tea_core.Dot

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let block_at addr = Block.make Block.Branch [ (addr, I.Jmp (I.Abs 0)) ]

(* T1: 0x100 -> 0x200 -> 0x300 -> back to 0x100; T2: 0x400 -> 0x300' *)
let t1 =
  Trace.linear ~id:0 ~kind:"test" ~cycle:true
    [ block_at 0x100; block_at 0x200; block_at 0x300 ]

let t2 = Trace.linear ~id:1 ~kind:"test" [ block_at 0x400; block_at 0x300 ]

(* ---------------- Automaton & Algorithm 1 ---------------- *)

let test_empty_automaton () =
  let a = Automaton.create () in
  check Alcotest.int "no states" 0 (Automaton.n_states a);
  check Alcotest.int "no transitions" 0 (Automaton.n_transitions a);
  check Alcotest.bool "nte not live" false (Automaton.is_live a Automaton.nte);
  check Alcotest.bool "deterministic" true (Automaton.check_deterministic a = Ok ())

let test_algorithm1_property1 () =
  (* Property 1: a state for every TBB. *)
  let a = Builder.build [ t1; t2 ] in
  check Alcotest.int "states = total TBBs" (Trace.n_tbbs t1 + Trace.n_tbbs t2)
    (Automaton.n_states a);
  (* each TBB has its own state even when the block is duplicated (0x300) *)
  let starts = ref [] in
  Automaton.iter_live (fun _ info -> starts := info.Automaton.block_start :: !starts) a;
  check Alcotest.int "0x300 twice" 2
    (List.length (List.filter (fun s -> s = 0x300) !starts))

let test_algorithm1_property2 () =
  (* Property 2: transitions for every in-trace successor + NTE entries. *)
  let a = Builder.build [ t1; t2 ] in
  (* t1 has 3 edges (cycle), t2 has 1 edge, plus 2 NTE->head transitions *)
  check Alcotest.int "transitions" (3 + 1 + 2) (Automaton.n_transitions a);
  let h1 = Option.get (Automaton.head_of a 0x100) in
  let s2 = Option.get (Automaton.next_in_trace a h1 0x200) in
  let s3 = Option.get (Automaton.next_in_trace a s2 0x300) in
  check Alcotest.(option int) "cycle back" (Some h1) (Automaton.next_in_trace a s3 0x100);
  check Alcotest.(option int) "no stray edge" None (Automaton.next_in_trace a h1 0x300)

let test_heads () =
  let a = Builder.build [ t1; t2 ] in
  let heads = Automaton.heads a in
  check Alcotest.int "two heads" 2 (List.length heads);
  check Alcotest.(list int) "sorted" [ 0x100; 0x400 ] (List.map fst heads);
  check Alcotest.bool "head_of miss" true (Automaton.head_of a 0x999 = None)

let test_state_info () =
  let a = Builder.build [ t1 ] in
  let h = Option.get (Automaton.head_of a 0x100) in
  (match Automaton.state_info a h with
  | Some info ->
      check Alcotest.int "trace id" 0 info.Automaton.trace_id;
      check Alcotest.int "tbb index" 0 info.Automaton.tbb_index;
      check Alcotest.int "start" 0x100 info.Automaton.block_start;
      check Alcotest.int "n_insns" 1 info.Automaton.n_insns
  | None -> Alcotest.fail "head has info");
  check Alcotest.bool "nte info" true (Automaton.state_info a Automaton.nte = None)

let test_remove_trace () =
  let a = Builder.build [ t1; t2 ] in
  Automaton.remove_trace a 0;
  check Alcotest.int "states" (Trace.n_tbbs t2) (Automaton.n_states a);
  check Alcotest.int "transitions" 2 (Automaton.n_transitions a);
  check Alcotest.bool "head gone" true (Automaton.head_of a 0x100 = None);
  check Alcotest.bool "other head intact" true (Automaton.head_of a 0x400 <> None);
  check Alcotest.bool "still deterministic" true (Automaton.check_deterministic a = Ok ());
  (* removing twice is a no-op *)
  Automaton.remove_trace a 0;
  check Alcotest.int "idempotent" (Trace.n_tbbs t2) (Automaton.n_states a)

let test_replace_trace () =
  let a = Builder.build [ t1 ] in
  let t1' =
    Trace.linear ~id:0 ~kind:"test" ~cycle:true
      [ block_at 0x100; block_at 0x200; block_at 0x300; block_at 0x500 ]
  in
  Automaton.add_trace a t1';
  check Alcotest.int "grown" 4 (Automaton.n_states a);
  check Alcotest.(list int) "trace ids" [ 0 ] (Automaton.trace_ids a);
  (* old states tombstoned, head points at the new version *)
  let h = Option.get (Automaton.head_of a 0x100) in
  check Alcotest.bool "head live" true (Automaton.is_live a h)

let test_byte_size_model () =
  let a = Builder.build [ t1; t2 ] in
  check Alcotest.int "16 + 8*states + 5*transitions"
    (16 + (8 * 5) + (5 * 6))
    (Automaton.byte_size a)

let test_states_of_trace_order () =
  let a = Builder.build [ t1 ] in
  let states = Automaton.states_of_trace a 0 in
  let indices =
    List.map (fun s -> (Option.get (Automaton.state_info a s)).Automaton.tbb_index) states
  in
  check Alcotest.(list int) "tbb order" [ 0; 1; 2 ] indices

(* ---------------- Builder extras ---------------- *)

let test_duplicate_trace () =
  let dup = Builder.duplicate_trace ~factor:2 t1 in
  check Alcotest.int "doubled" 6 (Trace.n_tbbs dup);
  check Alcotest.int "same entry" (Trace.entry t1) (Trace.entry dup);
  check Alcotest.int "same id" t1.Trace.id dup.Trace.id;
  (* chain through both copies, last loops to the cycle target *)
  check Alcotest.(list int) "chain" [ 1 ] (Trace.successors dup 0);
  check Alcotest.(list int) "copy boundary" [ 3 ] (Trace.successors dup 2);
  check Alcotest.(list int) "final back edge" [ 0 ] (Trace.successors dup 5)

let test_duplicate_trace_interior_cycle () =
  (* prologue block then a 2-block loop back to index 1 *)
  let t =
    Trace.make ~id:3 ~kind:"t"
      [| block_at 0x10; block_at 0x20; block_at 0x30 |]
      [| [ 1 ]; [ 2 ]; [ 1 ] |]
  in
  let dup = Builder.duplicate_trace ~factor:3 t in
  (* prologue + 3 copies of the 2-block body *)
  check Alcotest.int "size" (1 + (3 * 2)) (Trace.n_tbbs dup);
  check Alcotest.(list int) "loops to body start" [ 1 ]
    (Trace.successors dup (Trace.n_tbbs dup - 1))

let test_unroll_trace_synthetic_addresses () =
  let unrolled = Builder.unroll_trace ~factor:2 ~clone_base:0x40000000 t1 in
  check Alcotest.int "doubled" 6 (Trace.n_tbbs unrolled);
  (* every block, first copy included, lives at synthetic addresses *)
  Array.iter
    (fun tb ->
      check Alcotest.bool "clone address" true
        (Tea_traces.Tbb.start tb >= 0x40000000))
    unrolled.Trace.tbbs

let test_unrolled_trace_cannot_replay () =
  (* the paper's Figure 1 argument: the unrolled trace's DFA finds no
     corresponding executable code, the duplicated trace's does *)
  let img = Tea_workloads.Micro.copy_loop ~words:50 ~passes:10 () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy img in
  let cyclic =
    List.find
      (fun t -> Trace.successors t (Trace.n_tbbs t - 1) <> [])
      (Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set)
  in
  let coverage_with trace =
    let auto = Builder.build [ trace ] in
    let trans = Transition.create Transition.config_global_local auto in
    let rep = Replayer.create trans in
    let cb =
      {
        Tea_cfg.Discovery.on_block = (fun b -> Replayer.feed rep b);
        Tea_cfg.Discovery.on_edge = (fun _ _ -> ());
      }
    in
    let _ = Tea_cfg.Discovery.run img cb in
    Replayer.coverage rep
  in
  let unrolled = Builder.unroll_trace ~factor:2 ~clone_base:0x40000000 cyclic in
  let duplicated = Builder.duplicate_trace ~factor:2 cyclic in
  check (Alcotest.float 0.0001) "unrolled: never leaves NTE" 0.0
    (coverage_with unrolled);
  check Alcotest.bool "duplicated replays" true (coverage_with duplicated > 0.5)

let test_duplicate_trace_errors () =
  Alcotest.check_raises "factor 1"
    (Invalid_argument "Builder.duplicate_trace: factor must be >= 2") (fun () ->
      ignore (Builder.duplicate_trace ~factor:1 t1));
  Alcotest.check_raises "not cyclic"
    (Invalid_argument "Builder.duplicate_trace: trace is not a cyclic superblock")
    (fun () -> ignore (Builder.duplicate_trace ~factor:2 t2))

(* ---------------- Transition function ---------------- *)

let test_step_in_trace () =
  let a = Builder.build [ t1 ] in
  let tr = Transition.create Transition.config_global_local a in
  let h = Option.get (Automaton.head_of a 0x100) in
  let s2 = Transition.step tr h 0x200 in
  check Alcotest.bool "in trace" true (Automaton.is_live a s2);
  check Alcotest.int "hot path counted" 1 (Transition.stats tr).Transition.in_trace_hits

let test_step_enter_from_nte () =
  let a = Builder.build [ t1 ] in
  let tr = Transition.create Transition.config_global_local a in
  let s = Transition.step tr Automaton.nte 0x100 in
  check Alcotest.(option int) "entered head" (Some s) (Automaton.head_of a 0x100);
  check Alcotest.int "global hit" 1 (Transition.stats tr).Transition.global_hits

let test_step_miss_to_nte () =
  let a = Builder.build [ t1 ] in
  let tr = Transition.create Transition.config_global_local a in
  let s = Transition.step tr Automaton.nte 0x9999 in
  check Alcotest.int "nte" Automaton.nte s;
  check Alcotest.int "miss counted" 1 (Transition.stats tr).Transition.global_misses

let test_step_trace_to_trace_cached () =
  let a = Builder.build [ t1; t2 ] in
  let tr = Transition.create Transition.config_global_local a in
  let h1 = Option.get (Automaton.head_of a 0x100) in
  (* leaving t1 for t2's head: first a container hit, then a cache hit *)
  let s = Transition.step tr h1 0x400 in
  check Alcotest.(option int) "entered t2" (Some s) (Automaton.head_of a 0x400);
  let _ = Transition.step tr h1 0x400 in
  check Alcotest.int "second time cached" 1 (Transition.stats tr).Transition.cache_hits

let test_no_cache_config () =
  let a = Builder.build [ t1; t2 ] in
  let tr = Transition.create Transition.config_global_no_local a in
  let h1 = Option.get (Automaton.head_of a 0x100) in
  let _ = Transition.step tr h1 0x400 in
  let _ = Transition.step tr h1 0x400 in
  check Alcotest.int "never cached" 0 (Transition.stats tr).Transition.cache_hits;
  check Alcotest.int "two container hits" 2 (Transition.stats tr).Transition.global_hits

let test_cycles_accumulate () =
  let a = Builder.build [ t1 ] in
  let tr = Transition.create Transition.config_global_local a in
  let before = Transition.cycles tr in
  let _ = Transition.step tr Automaton.nte 0x100 in
  check Alcotest.bool "cost charged" true (Transition.cycles tr > before);
  Transition.reset_counters tr;
  check Alcotest.int "reset" 0 (Transition.cycles tr)

let test_refresh_after_growth () =
  let a = Builder.build [ t1 ] in
  let tr = Transition.create Transition.config_global_local a in
  check Alcotest.int "miss before" Automaton.nte (Transition.step tr Automaton.nte 0x400);
  Automaton.add_trace a t2;
  Transition.refresh tr;
  let s = Transition.step tr Automaton.nte 0x400 in
  check Alcotest.(option int) "hit after refresh" (Some s) (Automaton.head_of a 0x400)

(* The three lookup configurations differ only in cost, never in the
   resulting state. *)
let prop_configs_agree =
  let gen = QCheck.(list (int_range 0 8)) in
  QCheck.Test.make ~name:"lookup configs agree on states" ~count:200 gen
    (fun choices ->
      let addrs = [| 0x100; 0x200; 0x300; 0x400; 0x50; 0x42; 0x101; 0x201; 0x301 |] in
      let run config =
        let a = Builder.build [ t1; t2 ] in
        let tr = Transition.create config a in
        let state = ref Automaton.nte in
        List.map
          (fun c ->
            state := Transition.step tr !state addrs.(c);
            (* states are ids; compare via (trace, index) to be robust *)
            match Automaton.state_info a !state with
            | Some i -> (i.Automaton.trace_id, i.Automaton.tbb_index)
            | None -> (-1, -1))
          choices
      in
      let gl = run Transition.config_global_local in
      let gnl = run Transition.config_global_no_local in
      let ngl = run Transition.config_no_global_local in
      gl = gnl && gnl = ngl)

(* ---------------- Replayer ---------------- *)

let test_replayer_profile () =
  let a = Builder.build [ t1 ] in
  let tr = Transition.create Transition.config_global_local a in
  let r = Replayer.create tr in
  (* two loop laps then out *)
  List.iter
    (fun addr -> Replayer.feed_addr r ~insns:1 addr)
    [ 0x100; 0x200; 0x300; 0x100; 0x200; 0x300; 0x999 ];
  check Alcotest.int "covered" 6 (Replayer.covered_insns r);
  check Alcotest.int "total" 7 (Replayer.total_insns r);
  check Alcotest.int "one enter" 1 (Replayer.trace_enters r);
  check Alcotest.int "one exit" 1 (Replayer.trace_exits r);
  let profile = Replayer.trace_profile r 0 in
  check Alcotest.(list (pair int int)) "per-tbb counts"
    [ (0, 2); (1, 2); (2, 2) ] profile

let test_replayer_distinguishes_instances () =
  (* the paper's point: block 0x300 is in both traces; the replayer knows
     which instance ran from the TEA state *)
  let a = Builder.build [ t1; t2 ] in
  let tr = Transition.create Transition.config_global_local a in
  let r = Replayer.create tr in
  List.iter (fun addr -> Replayer.feed_addr r ~insns:1 addr) [ 0x400; 0x300 ];
  check Alcotest.(list (pair int int)) "t2's 0x300 counted" [ (0, 1); (1, 1) ]
    (Replayer.trace_profile r 1);
  check Alcotest.(list (pair int int)) "t1 untouched" [ (0, 0); (1, 0); (2, 0) ]
    (Replayer.trace_profile r 0)

let test_replayer_coverage_bounds () =
  let img = Tea_workloads.Micro.branchy_loop () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy img in
  let traces = Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set in
  let result, rep = Tea_pinsim.Pintool_replay.replay ~traces img in
  check Alcotest.bool "coverage in [0,1]" true
    (result.Tea_pinsim.Pintool_replay.coverage >= 0.0
    && result.Tea_pinsim.Pintool_replay.coverage <= 1.0);
  check Alcotest.bool "enters >= exits - 1" true
    (abs (Replayer.trace_enters rep - Replayer.trace_exits rep) <= 1)

(* ---------------- Online recorder (Algorithm 2) ---------------- *)

let online_run image =
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let online = Online.create strategy in
  let cb =
    {
      Tea_cfg.Discovery.on_block = (fun b -> Online.feed online b);
      Tea_cfg.Discovery.on_edge = (fun _ _ -> ());
    }
  in
  let _ = Tea_cfg.Discovery.run ~policy:Tea_cfg.Discovery.Stardbt image cb in
  Online.finish online;
  online

let test_online_records_traces () =
  let online = online_run (Tea_workloads.Micro.nested_loop ~outer:30 ~inner:60 ()) in
  check Alcotest.bool "has traces" true (List.length (Online.traces online) > 0);
  check Alcotest.bool "coverage positive" true (Online.coverage online > 0.5);
  check Alcotest.bool "phase back to executing" true (Online.phase online = Online.Executing)

let test_online_matches_dbt_strategy () =
  (* Algorithm 2 drives the same MRET strategy the DBT driver does; the
     recorded trace entries must match on the same block stream. *)
  let img = Tea_workloads.Micro.list_scan ~nodes:1500 ~match_every:3 () in
  let online = online_run img in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy img in
  let entries l = List.sort compare (List.map Trace.entry l) in
  check Alcotest.(list int) "same trace entries"
    (entries (Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set))
    (entries (Online.traces online))

let test_online_automaton_consistency () =
  let online = online_run (Tea_workloads.Micro.branchy_loop ()) in
  let auto = Online.automaton online in
  check Alcotest.bool "deterministic" true (Automaton.check_deterministic auto = Ok ());
  (* every recorded trace is represented *)
  let ids = Automaton.trace_ids auto in
  check Alcotest.int "all traces in automaton" (List.length (Online.traces online))
    (List.length ids)

let test_online_vs_offline_equivalence () =
  (* building a fresh TEA from the recorded traces yields the same
     structure the online recorder built incrementally *)
  let online = online_run (Tea_workloads.Micro.branchy_loop ()) in
  let offline = Builder.build (Online.traces online) in
  let auto = Online.automaton online in
  check Alcotest.int "states" (Automaton.n_states offline) (Automaton.n_states auto);
  check Alcotest.int "transitions" (Automaton.n_transitions offline)
    (Automaton.n_transitions auto);
  check Alcotest.int "byte size" (Automaton.byte_size offline) (Automaton.byte_size auto)

(* Regression: blocks recorded during Creating must account as cold even
   when recording triggers while the TEA sits inside an installed trace
   (the paper's Algorithm 2 keeps the automaton at NTE while recording).
   A scripted strategy forces exactly that: its second recording starts
   right after an in-trace step, where the stale non-NTE state used to
   keep crediting [covered]. *)
let test_online_creating_counts_cold () =
  let module Scripted = struct
    type t = {
      mutable trig_calls : int;
      mutable recording : Block.t list; (* in order *)
      mutable completed : Trace.t list;
    }

    let name = "scripted"

    let create _ = { trig_calls = 0; recording = []; completed = [] }

    (* fire on the 3rd and 6th Executing feed: once from NTE, once while
       the TEA is mid-trace *)
    let trigger t ~current:_ ~next:_ =
      t.trig_calls <- t.trig_calls + 1;
      t.trig_calls = 3 || t.trig_calls = 6

    let start t ~current:_ ~next = t.recording <- [ next ]

    let add t ~current:_ ~next =
      if List.length t.recording >= 2 then begin
        let id = List.length t.completed in
        let tr =
          (* first trace loops A->B->A; second is the linear B->A, so the
             two heads stay distinct and the automaton deterministic *)
          if id = 0 then
            Trace.linear ~id ~kind:"scripted" ~cycle:true t.recording
          else Trace.linear ~id ~kind:"scripted" t.recording
        in
        t.recording <- [];
        t.completed <- t.completed @ [ tr ];
        `Done (Some tr)
      end
      else begin
        t.recording <- t.recording @ [ next ];
        `Continue
      end

    let abort _ = None

    let traces t = t.completed
  end in
  let online = Online.create (module Scripted) in
  let a = block_at 0x100 and b = block_at 0x200 in
  (* A B | A B A (records T1=[A;B], replays it) | B A B (coverage while
     executing T1) then trigger #6 lands at B mid-trace: records T2=[B;A],
     whose two blocks must execute cold *)
  List.iter
    (fun blk -> Online.feed online blk)
    [ a; b; a; b; a; b; a; b; a; b ];
  check Alcotest.int "two traces recorded" 2
    (List.length (Online.traces online));
  check Alcotest.bool "back to executing" true
    (Online.phase online = Online.Executing);
  check Alcotest.int "total insns" 10 (Online.total_insns online);
  (* steps 5,6,7,8 execute inside T1; steps 9,10 are T2 being recorded
     (cold); step 10's `Done re-steps from NTE into T2's fresh head *)
  check Alcotest.int "recorded blocks count as cold" 5
    (Online.covered_insns online)

(* ---------------- Serialization & DOT ---------------- *)

let test_text_roundtrip () =
  let a = Builder.build [ t1; t2 ] in
  let img = Tea_workloads.Micro.list_scan () in
  (* use traces over the real image so blocks can be re-decoded *)
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy img in
  let real = Builder.of_set dbt.Tea_dbt.Stardbt.set in
  let loaded = Serialize.of_string img (Serialize.to_string real) in
  check Alcotest.int "states" (Automaton.n_states real) (Automaton.n_states loaded);
  check Alcotest.int "transitions" (Automaton.n_transitions real)
    (Automaton.n_transitions loaded);
  check Alcotest.int "byte size" (Automaton.byte_size real) (Automaton.byte_size loaded);
  check Alcotest.(list int) "heads agree"
    (List.map fst (Automaton.heads real))
    (List.map fst (Automaton.heads loaded));
  ignore a

let test_binary_size_grounds_model () =
  let img = Tea_workloads.Micro.list_scan () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy img in
  let a = Builder.of_set dbt.Tea_dbt.Stardbt.set in
  check Alcotest.int "byte_size = |to_binary|" (Automaton.byte_size a)
    (Serialize.binary_size a)

let test_binary_header () =
  let a = Builder.build [ t1 ] in
  let bin = Serialize.to_binary a in
  check Alcotest.string "magic" "TEA1" (String.sub bin 0 4);
  check Alcotest.int "length" (Automaton.byte_size a) (String.length bin)

let test_bad_text () =
  let img = Tea_workloads.Micro.list_scan () in
  try
    ignore (Serialize.of_string img "garbage");
    Alcotest.fail "should raise"
  with Serialize.Parse_error _ -> ()

let test_dot_output () =
  let a = Builder.build [ t1; t2 ] in
  let dot = Dot.of_automaton ~title:"test" a in
  check Alcotest.bool "has NTE" true (contains dot "NTE");
  check Alcotest.bool "has cluster" true (contains dot "cluster_t0");
  check Alcotest.bool "has labels" true (contains dot "0x100");
  check Alcotest.bool "digraph" true (contains dot "digraph")

(* ---------------- Phases ---------------- *)

module Phases = Tea_core.Phases

let test_phases_two_phase_workload () =
  let img = Tea_workloads.Micro.two_phase ~phase_iters:3000 ~gap_blocks:400 () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy img in
  let auto = Builder.of_set dbt.Tea_dbt.Stardbt.set in
  let trans = Transition.create Transition.config_global_local auto in
  let rep = Replayer.create trans in
  let det =
    Phases.create
      ~config:{ Phases.window = 256; max_stable_exit_ratio = 0.05; min_stable_coverage = 0.7 }
      ()
  in
  let cb =
    {
      Tea_cfg.Discovery.on_block =
        (fun b ->
          Replayer.feed rep b;
          Phases.feed det (Replayer.state rep));
      Tea_cfg.Discovery.on_edge = (fun _ _ -> ());
    }
  in
  let _ = Tea_cfg.Discovery.run img cb in
  Phases.finish det;
  check Alcotest.bool "two phases" true (Phases.n_phases det >= 2);
  let segs = Phases.segments det in
  (* adjacent segments alternate stability *)
  let rec alternates = function
    | a :: (b :: _ as rest) -> a.Phases.stable <> b.Phases.stable && alternates rest
    | _ -> true
  in
  check Alcotest.bool "alternating" true (alternates segs);
  (* segment boundaries tile the step range *)
  let rec contiguous = function
    | a :: (b :: _ as rest) ->
        a.Phases.last_step + 1 = b.Phases.first_step && contiguous rest
    | _ -> true
  in
  check Alcotest.bool "contiguous" true (contiguous segs);
  check Alcotest.int "steps accounted" (Phases.total_steps det)
    (List.fold_left (fun acc s -> acc + s.Phases.last_step - s.Phases.first_step + 1) 0 segs)

let test_phases_empty () =
  let det = Phases.create () in
  Phases.finish det;
  check Alcotest.int "no segments" 0 (List.length (Phases.segments det));
  check Alcotest.int "no phases" 0 (Phases.n_phases det)

let test_phases_window_validation () =
  Alcotest.check_raises "bad window"
    (Invalid_argument "Phases.create: window must be positive") (fun () ->
      ignore
        (Phases.create
           ~config:{ Phases.window = 0; max_stable_exit_ratio = 0.1; min_stable_coverage = 0.5 }
           ()))

let test_phases_all_cold () =
  let det =
    Phases.create
      ~config:{ Phases.window = 4; max_stable_exit_ratio = 0.1; min_stable_coverage = 0.5 }
      ()
  in
  for _ = 1 to 16 do
    Phases.feed det Automaton.nte
  done;
  Phases.finish det;
  check Alcotest.int "one unstable segment" 1 (List.length (Phases.segments det));
  check Alcotest.int "no phases" 0 (Phases.n_phases det);
  check Alcotest.int "nothing stable" 0 (Phases.stable_steps det)

(* ---------------- Analysis ---------------- *)

module Analysis = Tea_core.Analysis

let analysis_replayer () =
  let img = Tea_workloads.Micro.list_scan () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy img in
  let auto = Builder.of_set dbt.Tea_dbt.Stardbt.set in
  let trans = Transition.create Transition.config_global_local auto in
  let rep = Replayer.create trans in
  let cb =
    {
      Tea_cfg.Discovery.on_block = (fun b -> Replayer.feed rep b);
      Tea_cfg.Discovery.on_edge = (fun _ _ -> ());
    }
  in
  let _ = Tea_cfg.Discovery.run img cb in
  rep

let test_analysis_per_trace () =
  let rep = analysis_replayer () in
  let stats = Analysis.per_trace rep in
  check Alcotest.bool "nonempty" true (List.length stats > 0);
  (* sorted by instructions, every ratio within (0, 1] *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        a.Analysis.insns_executed >= b.Analysis.insns_executed && sorted rest
    | _ -> true
  in
  check Alcotest.bool "sorted" true (sorted stats);
  List.iter
    (fun s ->
      check Alcotest.bool "entries > 0" true (s.Analysis.entries > 0);
      check Alcotest.bool "completion in (0,1.5]" true
        (s.Analysis.completion_ratio > 0.0 && s.Analysis.completion_ratio <= 1.5))
    stats;
  (* totals agree with the replayer's raw counters *)
  let execs = List.fold_left (fun a s -> a + s.Analysis.tbb_executions) 0 stats in
  let raw = List.fold_left (fun a (_, n) -> a + n) 0 (Replayer.tbb_counts rep) in
  check Alcotest.int "exec totals agree" raw execs

let test_analysis_hottest () =
  let rep = analysis_replayer () in
  let top = Analysis.hottest ~n:1 rep in
  check Alcotest.int "one" 1 (List.length top);
  let all = Analysis.per_trace rep in
  check Alcotest.int "is the max" (List.hd all).Analysis.insns_executed
    (List.hd top).Analysis.insns_executed

let test_analysis_summary () =
  let rep = analysis_replayer () in
  let s = Analysis.coverage_summary rep in
  check Alcotest.bool "mentions coverage" true (contains s "coverage")

(* ---------------- Pc_trace ---------------- *)

module Pc_trace = Tea_core.Pc_trace

let test_pc_trace_roundtrip () =
  let path = Filename.temp_file "tea_pc" ".trc" in
  let w = Pc_trace.open_writer path in
  let records = [ (0x8048000, 3); (0x8048010, 5); (0x8048000, 3); (0x9000000, 1) ] in
  List.iter (fun (start, insns) -> Pc_trace.write w ~start ~insns) records;
  Pc_trace.close_writer w;
  let back = List.rev (Pc_trace.fold path [] (fun acc ~start ~insns -> (start, insns) :: acc)) in
  Sys.remove path;
  check Alcotest.(list (pair int int)) "roundtrip" records back

let test_pc_trace_compactness () =
  (* loop-heavy streams compress to a few bytes per block *)
  let path = Filename.temp_file "tea_pc" ".trc" in
  let w = Pc_trace.open_writer path in
  for _ = 1 to 10_000 do
    Pc_trace.write w ~start:0x8048100 ~insns:6;
    Pc_trace.write w ~start:0x8048120 ~insns:4
  done;
  Pc_trace.close_writer w;
  let size = (Unix.stat path).Unix.st_size in
  check Alcotest.int "records" 20_000 (Pc_trace.length path);
  Sys.remove path;
  check Alcotest.bool "a few bytes per record" true (size < 20_000 * 4)

let test_pc_trace_corrupt () =
  let path = Filename.temp_file "tea_pc" ".trc" in
  let oc = open_out_bin path in
  output_string oc "NOTTEA!";
  close_out oc;
  (try
     ignore (Pc_trace.length path);
     Alcotest.fail "bad magic accepted"
   with Pc_trace.Corrupt _ -> ());
  (* truncated mid-record *)
  let oc = open_out_bin path in
  output_string oc "TEAPC1\n";
  output_byte oc 0x80;  (* continuation with no next byte *)
  close_out oc;
  (try
     ignore (Pc_trace.length path);
     Alcotest.fail "truncation accepted"
   with Pc_trace.Corrupt _ -> ());
  Sys.remove path

let test_pc_trace_negative_deltas () =
  (* descending addresses force negative deltas through the zig-zag
     encoder; interleave big jumps both ways *)
  let path = Filename.temp_file "tea_pc" ".trc" in
  let records =
    [ (0x9000000, 2); (0x8048000, 5); (0x10, 1); (0x8048000, 5); (0x0, 0) ]
  in
  let w = Pc_trace.open_writer path in
  List.iter (fun (start, insns) -> Pc_trace.write w ~start ~insns) records;
  Pc_trace.close_writer w;
  let back =
    List.rev (Pc_trace.fold path [] (fun acc ~start ~insns -> (start, insns) :: acc))
  in
  Sys.remove path;
  check Alcotest.(list (pair int int)) "negative deltas roundtrip" records back

let test_pc_trace_max_address () =
  (* near the top of the representable range: deltas of ~2^60 stress the
     varint length limit without tripping the 56-bit-shift guard *)
  let path = Filename.temp_file "tea_pc" ".trc" in
  let hi = 1 lsl 60 in
  let records = [ (hi, 7); (0x100, 3); (hi - 1, 1) ] in
  let w = Pc_trace.open_writer path in
  List.iter (fun (start, insns) -> Pc_trace.write w ~start ~insns) records;
  Pc_trace.close_writer w;
  let back =
    List.rev (Pc_trace.fold path [] (fun acc ~start ~insns -> (start, insns) :: acc))
  in
  Sys.remove path;
  check Alcotest.(list (pair int int)) "max-address roundtrip" records back

let test_pc_trace_empty_stream () =
  (* magic only, zero records: valid, not corrupt *)
  let path = Filename.temp_file "tea_pc" ".trc" in
  let w = Pc_trace.open_writer path in
  Pc_trace.close_writer w;
  check Alcotest.int "no records" 0 (Pc_trace.length path);
  check Alcotest.int "no blocks loaded" 0 (Pc_trace.load path).Pc_trace.len;
  Sys.remove path

let test_pc_trace_truncated_file () =
  let with_bytes bytes k =
    let path = Filename.temp_file "tea_pc" ".trc" in
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc;
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> k path)
  in
  (* shorter than the magic itself (the empty file included) *)
  List.iter
    (fun prefix ->
      with_bytes prefix (fun path ->
          try
            ignore (Pc_trace.length path);
            Alcotest.failf "accepted %d-byte header" (String.length prefix)
          with Pc_trace.Corrupt _ -> ()))
    [ ""; "TEA"; "TEAPC1" ];
  (* delta present but insns missing: truncated between the two varints *)
  with_bytes "TEAPC1\n\x04" (fun path ->
      try
        ignore (Pc_trace.length path);
        Alcotest.fail "accepted record missing insns"
      with Pc_trace.Corrupt _ -> ());
  (* varint longer than 64 bits *)
  with_bytes ("TEAPC1\n" ^ String.make 11 '\x80' ^ "\x01") (fun path ->
      try
        ignore (Pc_trace.length path);
        Alcotest.fail "accepted oversized varint"
      with Pc_trace.Corrupt _ -> ())

(* ---------------- PCTR2 dictionary format ---------------- *)

let write_records ?format path records =
  let w = Pc_trace.open_writer ?format path in
  List.iter (fun (start, insns) -> Pc_trace.write w ~start ~insns) records;
  Pc_trace.close_writer w

let read_records path =
  List.rev
    (Pc_trace.fold path [] (fun acc ~start ~insns -> (start, insns) :: acc))

let test_pctr2_both_formats_roundtrip () =
  (* the same mixed stream — loops, back-jumps, fresh pairs — through
     each format and back; v2 is the default *)
  let records =
    List.concat (List.init 50 (fun _ -> [ (0x8048100, 6); (0x8048120, 4) ]))
    @ [ (0x9000000, 2); (0x10, 1); (0x9000000, 2); (0x8048100, 6) ]
  in
  let path = Filename.temp_file "tea_pc" ".trc" in
  write_records path records;
  let via_default = read_records path in
  let default_bytes =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic 6)
  in
  write_records ~format:Pc_trace.V1 path records;
  let via_v1 = read_records path in
  write_records ~format:Pc_trace.V2 path records;
  let via_v2 = read_records path in
  Sys.remove path;
  check Alcotest.string "default writes PCTR2" "PCTR2\n" default_bytes;
  check Alcotest.(list (pair int int)) "default roundtrip" records via_default;
  check Alcotest.(list (pair int int)) "v1 roundtrip" records via_v1;
  check Alcotest.(list (pair int int)) "v2 roundtrip" records via_v2

let test_pctr2_size_win () =
  (* a loopy stream: v2's dictionary tokens must beat v1's per-record
     delta+count pairs by a wide margin (the satellite's 3-4x claim) *)
  let records =
    List.concat
      (List.init 10_000 (fun _ -> [ (0x8048100, 200); (0x8058204, 150) ]))
  in
  let path1 = Filename.temp_file "tea_pc" ".trc" in
  let path2 = Filename.temp_file "tea_pc" ".trc" in
  write_records ~format:Pc_trace.V1 path1 records;
  write_records ~format:Pc_trace.V2 path2 records;
  let s1 = (Unix.stat path1).Unix.st_size in
  let s2 = (Unix.stat path2).Unix.st_size in
  check Alcotest.int "same records" (Pc_trace.length path1)
    (Pc_trace.length path2);
  Sys.remove path1;
  Sys.remove path2;
  check Alcotest.bool
    (Printf.sprintf "v2 at least 3x smaller (%d vs %d bytes)" s2 s1)
    true (s2 * 3 <= s1)

let test_pctr2_corruption () =
  let with_bytes bytes k =
    let path = Filename.temp_file "tea_pc" ".trc" in
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc;
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> k path)
  in
  let expect_corrupt name bytes =
    with_bytes bytes (fun path ->
        try
          ignore (Pc_trace.length path);
          Alcotest.failf "accepted %s" name
        with Pc_trace.Corrupt _ -> ())
  in
  (* token references a dictionary entry the stream never defined *)
  expect_corrupt "undefined dictionary token" "PCTR2\n\x05";
  (* literal escape truncated before its delta / between delta and insns *)
  expect_corrupt "literal missing delta" "PCTR2\n\x00";
  expect_corrupt "literal missing insns" "PCTR2\n\x00\x04";
  (* dangling continuation bit in a token *)
  expect_corrupt "truncated token varint" "PCTR2\n\x80";
  (* a valid literal record followed by a truncated one still fails *)
  expect_corrupt "valid then truncated"
    "PCTR2\n\x00\x04\x02\x00\x04";
  (* magic-only is an empty stream, not corrupt *)
  with_bytes "PCTR2\n" (fun path ->
      check Alcotest.int "empty v2 stream" 0 (Pc_trace.length path));
  (* a token backreference resolves to the pair its literal defined *)
  with_bytes "PCTR2\n\x00\x08\x03\x01\x01" (fun path ->
      check Alcotest.(list (pair int int)) "token replays the pair"
        [ (4, 3); (8, 3); (12, 3) ]
        (read_records path))

let test_pc_trace_writer_misuse () =
  let path = Filename.temp_file "tea_pc" ".trc" in
  let w = Pc_trace.open_writer path in
  Alcotest.check_raises "negative insns"
    (Invalid_argument "Pc_trace.write: negative instruction count") (fun () ->
      Pc_trace.write w ~start:0x100 ~insns:(-1));
  Pc_trace.close_writer w;
  Pc_trace.close_writer w; (* double close is fine *)
  Alcotest.check_raises "write after close"
    (Invalid_argument "Pc_trace.write: writer closed") (fun () ->
      Pc_trace.write w ~start:0x100 ~insns:1);
  Sys.remove path

let test_pc_trace_offline_replay_equivalence () =
  (* capture once, replay offline: identical coverage and profile to the
     live replay *)
  let img = Tea_workloads.Micro.list_scan () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy img in
  let traces = Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set in
  let path = Filename.temp_file "tea_pc" ".trc" in
  let n = Tea_pinsim.Trace_capture.record img path in
  check Alcotest.bool "captured blocks" true (n > 1000);
  let offline =
    Pc_trace.replay
      (Transition.create Transition.config_global_local (Builder.build traces))
      path
  in
  Sys.remove path;
  let live, _ = Tea_pinsim.Pintool_replay.replay ~traces img in
  check (Alcotest.float 1e-9) "identical coverage"
    live.Tea_pinsim.Pintool_replay.coverage (Replayer.coverage offline);
  check Alcotest.int "identical enters" live.Tea_pinsim.Pintool_replay.trace_enters
    (Replayer.trace_enters offline)

(* ---------------- Transition vs reference model ---------------- *)

(* A naive reference implementation of the whole-program DFA semantics:
   explicit in-trace edges, else trace-head map, else NTE. *)
let reference_step auto state pc =
  match Automaton.next_in_trace auto state pc with
  | Some s -> s
  | None -> (
      match Automaton.head_of auto pc with
      | Some head -> head
      | None -> Automaton.nte)

let prop_transition_matches_reference =
  QCheck.Test.make ~name:"transition function = reference DFA semantics" ~count:300
    QCheck.(pair (int_range 0 2) (list (int_range 0 9)))
    (fun (which, stream) ->
      let config =
        match which with
        | 0 -> Transition.config_global_local
        | 1 -> Transition.config_global_no_local
        | _ -> Transition.config_no_global_local
      in
      let addrs = [| 0x100; 0x200; 0x300; 0x400; 0x50; 0x42; 0x101; 0x201; 0x301; 0x999 |] in
      let auto = Builder.build [ t1; t2 ] in
      let trans = Transition.create config auto in
      let cur = ref Automaton.nte in
      let ref_cur = ref Automaton.nte in
      List.for_all
        (fun c ->
          let pc = addrs.(c) in
          cur := Transition.step trans !cur pc;
          ref_cur := reference_step auto !ref_cur pc;
          !cur = !ref_cur)
        stream)

let () =
  Alcotest.run "tea_core"
    [
      ( "automaton",
        [
          Alcotest.test_case "empty" `Quick test_empty_automaton;
          Alcotest.test_case "property 1" `Quick test_algorithm1_property1;
          Alcotest.test_case "property 2" `Quick test_algorithm1_property2;
          Alcotest.test_case "heads" `Quick test_heads;
          Alcotest.test_case "state info" `Quick test_state_info;
          Alcotest.test_case "remove trace" `Quick test_remove_trace;
          Alcotest.test_case "replace trace" `Quick test_replace_trace;
          Alcotest.test_case "byte size" `Quick test_byte_size_model;
          Alcotest.test_case "state order" `Quick test_states_of_trace_order;
        ] );
      ( "builder",
        [
          Alcotest.test_case "duplicate" `Quick test_duplicate_trace;
          Alcotest.test_case "interior cycle" `Quick test_duplicate_trace_interior_cycle;
          Alcotest.test_case "unroll addresses" `Quick test_unroll_trace_synthetic_addresses;
          Alcotest.test_case "unroll cannot replay" `Quick test_unrolled_trace_cannot_replay;
          Alcotest.test_case "duplicate errors" `Quick test_duplicate_trace_errors;
        ] );
      ( "transition",
        [
          Alcotest.test_case "in-trace" `Quick test_step_in_trace;
          Alcotest.test_case "enter from NTE" `Quick test_step_enter_from_nte;
          Alcotest.test_case "miss to NTE" `Quick test_step_miss_to_nte;
          Alcotest.test_case "cache" `Quick test_step_trace_to_trace_cached;
          Alcotest.test_case "no-cache config" `Quick test_no_cache_config;
          Alcotest.test_case "cycles" `Quick test_cycles_accumulate;
          Alcotest.test_case "refresh" `Quick test_refresh_after_growth;
          qtest prop_configs_agree;
        ] );
      ( "replayer",
        [
          Alcotest.test_case "profile" `Quick test_replayer_profile;
          Alcotest.test_case "instance disambiguation" `Quick
            test_replayer_distinguishes_instances;
          Alcotest.test_case "coverage bounds" `Quick test_replayer_coverage_bounds;
        ] );
      ( "online",
        [
          Alcotest.test_case "records" `Quick test_online_records_traces;
          Alcotest.test_case "matches DBT strategy" `Quick test_online_matches_dbt_strategy;
          Alcotest.test_case "automaton consistent" `Quick test_online_automaton_consistency;
          Alcotest.test_case "online = offline" `Quick test_online_vs_offline_equivalence;
          Alcotest.test_case "recording counts cold" `Quick
            test_online_creating_counts_cold;
        ] );
      ( "phases",
        [
          Alcotest.test_case "two-phase workload" `Quick test_phases_two_phase_workload;
          Alcotest.test_case "empty" `Quick test_phases_empty;
          Alcotest.test_case "window validation" `Quick test_phases_window_validation;
          Alcotest.test_case "all cold" `Quick test_phases_all_cold;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "per trace" `Quick test_analysis_per_trace;
          Alcotest.test_case "hottest" `Quick test_analysis_hottest;
          Alcotest.test_case "summary" `Quick test_analysis_summary;
        ] );
      ( "pc-trace",
        [
          Alcotest.test_case "roundtrip" `Quick test_pc_trace_roundtrip;
          Alcotest.test_case "compactness" `Quick test_pc_trace_compactness;
          Alcotest.test_case "corrupt" `Quick test_pc_trace_corrupt;
          Alcotest.test_case "negative deltas" `Quick test_pc_trace_negative_deltas;
          Alcotest.test_case "max address" `Quick test_pc_trace_max_address;
          Alcotest.test_case "empty stream" `Quick test_pc_trace_empty_stream;
          Alcotest.test_case "truncated file" `Quick test_pc_trace_truncated_file;
          Alcotest.test_case "writer misuse" `Quick test_pc_trace_writer_misuse;
          Alcotest.test_case "offline replay" `Quick test_pc_trace_offline_replay_equivalence;
          Alcotest.test_case "v1/v2 roundtrip" `Quick test_pctr2_both_formats_roundtrip;
          Alcotest.test_case "v2 size win" `Quick test_pctr2_size_win;
          Alcotest.test_case "v2 corruption" `Quick test_pctr2_corruption;
          qtest prop_transition_matches_reference;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "text roundtrip" `Quick test_text_roundtrip;
          Alcotest.test_case "binary grounds model" `Quick test_binary_size_grounds_model;
          Alcotest.test_case "binary header" `Quick test_binary_header;
          Alcotest.test_case "bad text" `Quick test_bad_text;
          Alcotest.test_case "dot" `Quick test_dot_output;
        ] );
    ]

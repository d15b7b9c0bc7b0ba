(* Closed-loop continuous PGO: epoch-tagged hot image swap.

   Two layers of property: (1) offline — N forced mid-stream swaps
   through the flat / repacked / fused / compiled ladder of the same
   automaton leave the profile bit-identical between the sequential
   Replayer.rebind chain and the Shard.replay_span chain at jobs 2/4,
   and leave TBB counts identical to a no-swap flat replay; (2) live —
   a daemon booted on a mistuned drift reference rebuilds and hot-swaps
   under traffic, and the fleet profile still equals the sequential
   offline replay (honouring the recorded swap schedule) at jobs 1/2/4.
   Plus units for the drift-trigger hysteresis and the TEAEP1 fleet
   profile snapshot. *)

open Tea_isa
module I = Insn
module Block = Tea_cfg.Block
module Trace = Tea_traces.Trace
module Builder = Tea_core.Builder
module Automaton = Tea_core.Automaton
module Packed = Tea_core.Packed
module Replayer = Tea_core.Replayer
module Pc_trace = Tea_core.Pc_trace
module Repack = Tea_opt.Repack
module Fuse = Tea_opt.Fuse
module Retune = Tea_opt.Retune
module Trigger = Tea_observe.Trigger
module Drift = Tea_observe.Drift
module Profile = Tea_parallel.Profile
module Shard = Tea_parallel.Shard
module Pool = Tea_parallel.Pool
module Frame = Tea_serve.Frame
module Server = Tea_serve.Server
module Client = Tea_serve.Client

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let profile = Alcotest.testable Profile.pp Profile.equal

(* ---------------- fixture ---------------- *)

let block_at addr = Block.make Block.Branch [ (addr, I.Jmp (I.Abs 0)) ]

let traces =
  [ Trace.linear ~id:0 ~kind:"test"
      [ block_at 0x100; block_at 0x200; block_at 0x300 ];
    Trace.linear ~id:1 ~kind:"test" [ block_at 0x400; block_at 0x300 ];
    Trace.linear ~id:2 ~kind:"test" [ block_at 0x500; block_at 0x100 ] ]

let flat () = Packed.freeze (Builder.build traces)

(* the hot/cold address pool random streams draw from (0x900 is cold) *)
let pool_addrs = [| 0x100; 0x200; 0x300; 0x400; 0x500; 0x900 |]

(* one generation of the ladder, tuned on the given stream *)
let tuned_of base starts len =
  let repacked = Repack.repack base (Repack.collect base starts ~len) in
  let fused =
    Fuse.fuse ~profile:(Repack.collect repacked starts ~len) repacked
  in
  (repacked, fused)

(* ---------------- forced mid-stream swaps, offline ---------------- *)

let engine_of img = Replayer.Compiled (Tea_core.Compiled.of_packed (Packed.dup img))

let make_rep img =
  Replayer.create_compiled (Tea_core.Compiled.of_packed (Packed.dup img))

(* segment bounds from sorted distinct cut positions *)
let segments_of_cuts cuts len =
  let bounds = (0 :: cuts) @ [ len ] in
  let rec pair = function
    | lo :: (hi :: _ as rest) -> (lo, hi) :: pair rest
    | _ -> []
  in
  pair bounds

(* sequential reference: one replayer, rebound in place at every cut *)
let run_rebind epochs segs ~insns starts =
  let rep = make_rep (epochs 0) in
  List.iteri
    (fun i (lo, hi) ->
      if i > 0 then Replayer.rebind rep (engine_of (epochs i));
      Replayer.feed_run rep ~off:lo ~insns starts ~len:(hi - lo))
    segs;
  (Profile.of_replayer rep, Replayer.tbb_counts rep)

(* sharded: one replay_span per segment, exit state translated through
   orig space into the next epoch's layout *)
let run_spans pool epochs segs ~insns starts =
  let profs = ref [] in
  let entry = ref None in
  let prev = ref None in
  List.iteri
    (fun i (lo, hi) ->
      let img = epochs i in
      (match !prev with
      | Some prev_img ->
          entry :=
            Option.map
              (fun e ->
                if e = Automaton.nte then e
                else Packed.slot_of_state img (Packed.orig_state prev_img e))
              !entry
      | None -> ());
      let p, exit_state =
        Shard.replay_span pool img ~make:make_rep ?entry:!entry ~insns
          starts ~off:lo ~len:(hi - lo)
      in
      profs := p :: !profs;
      entry := Some exit_state;
      prev := Some img)
    segs;
  Profile.merge_all (List.rev !profs)

let gen_swap_case =
  let open QCheck.Gen in
  let starts =
    map
      (fun picks ->
        Array.of_list
          (List.map (fun i -> pool_addrs.(i mod Array.length pool_addrs)) picks))
      (list_size (int_range 12 120) (int_range 0 1000))
  in
  pair starts (list_size (int_range 1 3) (int_range 1 1000))

let prop_forced_swaps =
  QCheck.Test.make ~name:"N mid-stream swaps: rebind == spans, tbb invariant"
    ~count:30 (QCheck.make gen_swap_case) (fun (starts, rawcuts) ->
      let len = Array.length starts in
      let insns = Array.make len 1 in
      let cuts =
        List.sort_uniq compare (List.map (fun c -> 1 + (c mod (len - 1))) rawcuts)
      in
      let segs = segments_of_cuts cuts len in
      let base = flat () in
      let repacked, fused = tuned_of base starts len in
      (* epoch ladder: flat -> repacked -> fused -> flat -> … *)
      let ladder = [| base; repacked; fused |] in
      let epochs i = ladder.(i mod Array.length ladder) in
      let seq_prof, seq_tbb = run_rebind epochs segs ~insns starts in
      (* TBBs are layout-invariant: identical to a no-swap flat replay *)
      let rep0 = make_rep (flat ()) in
      Replayer.feed_run rep0 ~insns starts ~len;
      seq_tbb = Replayer.tbb_counts rep0
      && List.for_all
           (fun jobs ->
             Pool.with_pool ~jobs (fun pool ->
                 let par = run_spans pool epochs segs ~insns starts in
                 Profile.equal seq_prof par))
           [ 2; 4 ])

let test_rebind_basics () =
  let base = flat () in
  let starts = Array.map (fun i -> pool_addrs.(i mod 5)) (Array.init 40 Fun.id) in
  let len = Array.length starts in
  let insns = Array.make len 1 in
  let repacked, fused = tuned_of base starts len in
  (* rebind refuses a reference engine and mismatched automata *)
  let rep = make_rep base in
  Alcotest.check_raises "reference engine"
    (Invalid_argument "Replayer.rebind: reference engine cannot be swapped")
    (fun () ->
      Replayer.rebind rep
        (Replayer.Reference
           (Tea_core.Transition.create Tea_core.Transition.config_global_local
              (Builder.build traces))));
  (* a full swap chain carries cycles and stats: total steps equal the
     no-swap replay's *)
  Replayer.feed_run rep ~insns starts ~len:20;
  Replayer.rebind rep (engine_of repacked);
  Replayer.feed_run rep ~off:20 ~insns starts ~len:(len - 20);
  Replayer.rebind rep (engine_of fused);
  let rep0 = make_rep (flat ()) in
  Replayer.feed_run rep0 ~insns starts ~len;
  check Alcotest.int "steps survive swaps"
    (Replayer.stats rep0).Tea_core.Transition.steps
    (Replayer.stats rep).Tea_core.Transition.steps;
  check
    Alcotest.(list (pair int int))
    "tbb counts survive swaps" (Replayer.tbb_counts rep0)
    (Replayer.tbb_counts rep)

(* ---------------- trigger hysteresis ---------------- *)

let test_trigger_debounce () =
  (* an oscillating gauge never fires an up=2 trigger *)
  let t = Trigger.create ~up:2 ~cooldown:0 () in
  for _ = 1 to 20 do
    check Alcotest.bool "over" false (Trigger.observe t true);
    check Alcotest.bool "under" false (Trigger.observe t false)
  done;
  check Alcotest.int "never fired" 0 (Trigger.fired t);
  (* two consecutive crossings fire exactly once *)
  let t = Trigger.create ~up:2 ~cooldown:3 () in
  check Alcotest.bool "first" false (Trigger.observe t true);
  check Alcotest.bool "second fires" true (Trigger.observe t true);
  check Alcotest.int "fired once" 1 (Trigger.fired t);
  (* cooldown swallows the next 3 observations, streak included *)
  check Alcotest.bool "cooling" false (Trigger.observe t true);
  check Alcotest.bool "cooling" false (Trigger.observe t true);
  check Alcotest.bool "armed during cooldown" false (Trigger.armed t);
  check Alcotest.bool "cooling" false (Trigger.observe t true);
  check Alcotest.bool "re-armed" true (Trigger.armed t);
  (* the streak restarts from zero after the cooldown *)
  check Alcotest.bool "restart streak" false (Trigger.observe t true);
  check Alcotest.bool "second fire" true (Trigger.observe t true);
  check Alcotest.int "fired twice" 2 (Trigger.fired t)

let test_trigger_edge_cases () =
  (* up=1 cooldown=0 fires on every crossing *)
  let t = Trigger.create ~up:1 ~cooldown:0 () in
  check Alcotest.bool "fires" true (Trigger.observe t true);
  check Alcotest.bool "fires again" true (Trigger.observe t true);
  check Alcotest.bool "under" false (Trigger.observe t false);
  check Alcotest.int "two fires" 2 (Trigger.fired t);
  Alcotest.check_raises "up < 1"
    (Invalid_argument "Trigger.create: up must be >= 1") (fun () ->
      ignore (Trigger.create ~up:0 ()));
  Alcotest.check_raises "cooldown < 0"
    (Invalid_argument "Trigger.create: cooldown must be >= 0") (fun () ->
      ignore (Trigger.create ~cooldown:(-1) ()))

(* ---------------- the live daemon ---------------- *)

let with_tmp suffix f =
  let path = Filename.temp_file "tea_test_retune" suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let bytes_of_events events =
  with_tmp ".trc" @@ fun path ->
  let w = Pc_trace.open_writer ~format:Pc_trace.V2 path in
  List.iter (Pc_trace.write_event w) events;
  Pc_trace.close_writer w;
  Pc_trace.read_all path

let stream_of hot n =
  bytes_of_events
    (List.init n (fun i ->
         Pc_trace.Block { start = List.nth hot (i mod List.length hot); insns = 1 }))

let sock_path () =
  let p = Filename.temp_file "tea_test_retune" ".sock" in
  Sys.remove p;
  p

let epoch_gauge text =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ "tea_image_epoch"; v ] -> int_of_string_opt v
         | _ -> None)

(* a daemon that must swap: the drift reference points at a state the
   traffic never visits, so every completed session measures maximal
   drift and the up=1 trigger fires immediately *)
let run_swapping_daemon ~jobs =
  let base = flat () in
  let drift = Drift.create ~threshold:0.2 [ (5000, 100) ] in
  let retune = { Server.default_retune with up = 1; cooldown = 0 } in
  let srv =
    Server.create ~offline_check:true ~drift ~base ~retune ~jobs ~image:base
      (Frame.Unix_sock (sock_path ()))
  in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run srv) in
  let addr = Server.addr srv in
  let s = stream_of [ 0x100; 0x200; 0x300 ] 40 in
  let s2 = stream_of [ 0x400; 0x300; 0x500 ] 30 in
  let sent = ref 0 in
  (* phase 1: traffic until the scrape shows the epoch bumped *)
  let deadline = 400 in
  let swapped = ref false in
  let tries = ref 0 in
  while (not !swapped) && !tries < deadline do
    incr tries;
    ignore (Client.replay_string addr s);
    incr sent;
    (match epoch_gauge (Client.scrape addr) with
    | Some e when e >= 1 -> swapped := true
    | _ -> ignore (Unix.select [] [] [] 0.01))
  done;
  if not !swapped then Alcotest.fail "daemon never swapped its image";
  (* phase 2: post-swap traffic replays on the new epoch *)
  for _ = 1 to 4 do
    ignore (Client.replay_string addr s2);
    incr sent
  done;
  Server.stop srv;
  Domain.join driver;
  check Alcotest.int "all sessions completed" !sent (Server.completed srv);
  if Server.epoch srv < 1 then Alcotest.fail "epoch not bumped";
  (srv, Server.fleet_profile srv, Server.offline_profile srv)

let test_daemon_swap_gate () =
  (* the acceptance gate: fleet == offline-sequential across the swap,
     at jobs 1/2/4 *)
  List.iter
    (fun jobs ->
      let srv, fleet, offline = run_swapping_daemon ~jobs in
      check profile
        (Printf.sprintf "fleet == offline across swaps (jobs %d)" jobs)
        offline fleet;
      check Alcotest.bool "swap pause measured" true
        (Server.swap_pause_ns srv >= 0))
    [ 1; 2; 4 ]

let test_fleet_edge_profile () =
  (* satellite 1: the retained traffic round-trips as a TEAEP1 snapshot
     over the flat base, equal to collecting the streams directly *)
  let base = flat () in
  let srv =
    Server.create ~retain:true ~base ~jobs:1 ~image:base
      (Frame.Unix_sock (sock_path ()))
  in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run ~until_sessions:2 srv) in
  let s1 = stream_of [ 0x100; 0x200; 0x300 ] 30 in
  let s2 = stream_of [ 0x400; 0x300 ] 20 in
  ignore (Client.replay_string (Server.addr srv) s1);
  ignore (Client.replay_string (Server.addr srv) s2);
  Domain.join driver;
  let prof = Server.fleet_edge_profile srv in
  let expect =
    Retune.collect_segments (flat ())
      (Retune.segments_of_raws [ s1; s2 ])
  in
  check
    Alcotest.(array int)
    "fleet edge profile visits" expect.Repack.visits prof.Repack.visits;
  with_tmp ".teaep" @@ fun path ->
  Repack.save_profile path prof;
  let back = Repack.load_profile path in
  check Alcotest.(array int) "TEAEP1 round-trip" prof.Repack.visits
    back.Repack.visits

let test_client_retry () =
  (* satellite 2: a client racing daemon startup connects once the
     socket appears; without retries the same race is an immediate
     error *)
  let path = sock_path () in
  let addr = Frame.Unix_sock path in
  (match Client.replay_string ~retries:0 addr "x" with
  | _ -> Alcotest.fail "connect to a missing socket must fail"
  | exception Unix.Unix_error _ -> ());
  (match Client.replay_string ~retries:1 ~backoff:(-1.0) addr "x" with
  | _ -> Alcotest.fail "negative backoff must be rejected"
  | exception Invalid_argument _ -> ());
  let image = flat () in
  let s = stream_of [ 0x100; 0x200; 0x300 ] 25 in
  let server_domain =
    Domain.spawn (fun () ->
        (* let the client hit ENOENT a few times first *)
        ignore (Unix.select [] [] [] 0.15);
        let srv = Server.create ~jobs:1 ~image addr in
        Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
        Server.run ~until_sessions:1 srv;
        Server.fleet_profile srv)
  in
  let p = Client.replay_string ~retries:10 ~backoff:0.02 addr s in
  let fleet = Domain.join server_domain in
  check profile "retried session profile folded into the fleet" fleet p

let () =
  Alcotest.run "tea_retune"
    [
      ( "swap",
        [
          qtest prop_forced_swaps;
          Alcotest.test_case "rebind basics" `Quick test_rebind_basics;
        ] );
      ( "trigger",
        [
          Alcotest.test_case "debounce" `Quick test_trigger_debounce;
          Alcotest.test_case "edge cases" `Quick test_trigger_edge_cases;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "gate: fleet == offline across swaps" `Quick
            test_daemon_swap_gate;
          Alcotest.test_case "fleet edge profile (TEAEP1)" `Quick
            test_fleet_edge_profile;
          Alcotest.test_case "client connect retry" `Quick test_client_retry;
        ] );
    ]

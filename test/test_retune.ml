(* Closed-loop continuous PGO: epoch-tagged hot image swap.

   Two layers of property: (1) offline — N forced mid-stream swaps
   of one Replayer.rebind chain through the flat / repacked / fused /
   compiled ladder of the same automaton leave TBB counts identical to
   a no-swap flat replay; (2) live —
   a daemon booted on a mistuned drift reference rebuilds and hot-swaps
   under traffic, and the fleet profile still equals the sequential
   offline replay (honouring the recorded swap schedule) at jobs 1/2/4.
   Plus the replay's own edge profile (compiled == step == a counting
   walk over the flat image, on any layout and across a rebind), units
   for the drift-trigger hysteresis, the TEAEP1 fleet edge profile, and
   a daemon whose heap stays flat under retune. *)

open Tea_isa
module I = Insn
module Block = Tea_cfg.Block
module Trace = Tea_traces.Trace
module Builder = Tea_core.Builder
module Automaton = Tea_core.Automaton
module Packed = Tea_core.Packed
module Replayer = Tea_core.Replayer
module Tierstat = Tea_core.Tierstat
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

(* [traces] plus a two-way branch (0x600 to 0x700 or 0x800, both back to
   0x600): a state whose edge costs change when repacking reorders its
   span, so a swap landing at a different stream position changes the
   profile's cycles *)
let branchy () =
  Packed.freeze
    (Builder.build
       (traces
       @ [ Trace.make ~id:3 ~kind:"test"
             [| block_at 0x600; block_at 0x700; block_at 0x800 |]
             [| [ 1; 2 ]; [ 0 ]; [ 0 ] |] ]))

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

let engine_of img = Replayer.Compiled (Tea_core.Compiled.of_packed img)

let make_rep img =
  Replayer.create_compiled (Tea_core.Compiled.of_packed img)

(* segment bounds from sorted distinct cut positions *)
let segments_of_cuts cuts len =
  let bounds = (0 :: cuts) @ [ len ] in
  let rec pair = function
    | lo :: (hi :: _ as rest) -> (lo, hi) :: pair rest
    | _ -> []
  in
  pair bounds

(* one replayer, rebound in place at every cut *)
let run_rebind epochs segs ~insns starts =
  let rep = make_rep (epochs 0) in
  List.iteri
    (fun i (lo, hi) ->
      if i > 0 then Replayer.rebind rep (engine_of (epochs i));
      Replayer.feed_run rep ~off:lo ~insns starts ~len:(hi - lo))
    segs;
  rep

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
  QCheck.Test.make ~name:"N mid-stream swaps: tbb and coverage invariant"
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
      let rep = run_rebind epochs segs ~insns starts in
      (* TBBs and coverage are layout-invariant: identical to a no-swap
         flat replay *)
      let rep0 = make_rep (flat ()) in
      Replayer.feed_run rep0 ~insns starts ~len;
      let p = Profile.of_replayer rep and p0 = Profile.of_replayer rep0 in
      Replayer.tbb_counts rep = Replayer.tbb_counts rep0
      && (p.covered, p.total, p.enters, p.exits, p.steps)
         = (p0.covered, p0.total, p0.enters, p0.exits, p0.steps))

(* The replay is the profile: on flat, repacked and fused layouts, with
   random feed_run seams and a rebind onto another layout mid-stream,
   the compiled batch's edge profile equals the step-at-a-time one and
   a counting walk over the flat image; and a snapshot (edge profile
   included) is unchanged by the rebind itself. *)
let edge_addrs = [| 0x100; 0x200; 0x300; 0x400; 0x500; 0x600; 0x700; 0x800; 0x900 |]

let gen_edge_case =
  let open QCheck.Gen in
  let starts =
    map
      (fun picks ->
        Array.of_list
          (List.map (fun i -> edge_addrs.(i mod Array.length edge_addrs)) picks))
      (list_size (int_range 2 150) (int_range 0 1000))
  in
  quad starts (list_size (int_range 0 6) (int_range 0 1000)) (int_range 0 1000)
    (pair (int_range 0 2) (int_range 0 2))

let prop_edge_profile =
  QCheck.Test.make
    ~name:"edge profile: compiled == step == flat collect, across seams and a rebind"
    ~count:200 (QCheck.make gen_edge_case)
    (fun (starts, rawseams, rawswap, (from_img, to_img)) ->
      let len = Array.length starts in
      let insns = Array.make len 1 in
      let base = branchy () in
      let repacked, fused = tuned_of base starts (len / 2) in
      let ladder = [| base; repacked; fused |] in
      let swap_at = rawswap mod (len + 1) in
      let seams =
        List.sort_uniq compare
          (swap_at :: List.map (fun c -> c mod (len + 1)) rawseams)
      in
      let rep = make_rep ladder.(from_img) in
      let pos = ref 0 and rebind_ok = ref true in
      List.iter
        (fun hi ->
          Replayer.feed_run rep ~off:!pos ~insns starts ~len:(hi - !pos);
          pos := hi;
          if hi = swap_at then begin
            let snap = Replayer.snapshot rep and ep = Replayer.edge_profile rep in
            Replayer.rebind rep (engine_of ladder.(to_img));
            rebind_ok :=
              Replayer.snapshot rep = snap && Replayer.edge_profile rep = ep
          end)
        (seams @ [ len ]);
      let step = make_rep ladder.(from_img) in
      Array.iteri (fun i pc -> Replayer.feed_addr step ~insns:insns.(i) pc) starts;
      let walk = Repack.collect base starts ~len in
      !rebind_ok
      && Replayer.edge_profile rep = walk
      && Replayer.edge_profile step = walk)

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

(* What `tea_tool replay <w> --pc-trace f -e compiled --tiers` prints,
   with and without `--retune` (replay half, rebuild from the replayer's
   own edge profile, rebind, finish): the per-state tier rows are a
   property of the automaton and the stream, so a mid-stream layout swap
   must leave them unchanged. *)
let test_retune_tiers () =
  List.iter
    (fun (name, image) ->
      let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
      let dbt = Tea_dbt.Stardbt.record ~strategy image in
      let packed =
        Packed.freeze
          (Builder.build (Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set))
      in
      let path = Filename.temp_file "tea_test_retune" ".trc" in
      ignore (Tea_pinsim.Trace_capture.record image path);
      let starts, insns, len = Shard.load_pc_trace path in
      Sys.remove path;
      let plain = make_rep packed in
      Replayer.feed_run plain ~insns starts ~len;
      let mid = len / 2 in
      let rep = make_rep packed in
      Replayer.feed_run rep ~insns starts ~len:mid;
      let tuned = Retune.build ~profile:(Replayer.edge_profile rep) packed in
      Replayer.rebind rep (engine_of tuned);
      Replayer.feed_run rep ~off:mid ~insns starts ~len:(len - mid);
      check Alcotest.bool (name ^ ": the swap renumbered states") true
        (Repack.moved_states tuned > 0);
      check
        Alcotest.(list (pair int (array int)))
        (name ^ ": --retune tier rows == plain")
        (Replayer.tiers plain).Tierstat.ts_states
        (Replayer.tiers rep).Tierstat.ts_states)
    [ ("micro:listscan", Tea_workloads.Micro.list_scan ());
      ( "181.mcf",
        Tea_workloads.Spec2000.image
          (Option.get (Tea_workloads.Spec2000.by_name "181.mcf")) ) ]

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

let bytes_of_events ?(format = Pc_trace.V2) events =
  with_tmp ".trc" @@ fun path ->
  let w = Pc_trace.open_writer ~format path in
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

(* a v3 stream over the branch, with switches and interrupts
   throughout, so a swap landing mid-stream sits at an event index that
   differs from its block index *)
let across_stream () =
  bytes_of_events ~format:Pc_trace.V3
    (List.concat
       (List.init 60 (fun i ->
            (if i mod 5 = 0 then [ Pc_trace.Switch { asid = i / 5 mod 2 } ] else [])
            @ (if i mod 11 = 0 then [ Pc_trace.Interrupt ] else [])
            @ [ Pc_trace.Block
                  { start = List.nth [ 0x600; 0x800; 0x600; 0x700 ] (i mod 4); insns = 1 } ])))

(* A stream's per-asid runs, cut at invalidations and interrupts. *)
let runs_of_bytes s =
  let path = Filename.temp_file "tea_test_retune" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  Shard.load_events path

(* the fleet edge profile's oracle: a counting walk over the flat base
   of every stream sent, split into per-asid runs each entered from
   NTE — the walks the daemon's replayers performed *)
let collect_streams base streams =
  List.fold_left
    (fun acc s ->
      List.fold_left
        (fun acc (_, runs) ->
          List.fold_left
            (fun acc { Pc_trace.starts; len; _ } ->
              Repack.merge acc (Repack.collect base starts ~len))
            acc runs)
        acc (runs_of_bytes s))
    (Repack.empty_profile base) streams

let check_edge_profile what (expect : Repack.profile) (got : Repack.profile) =
  check Alcotest.(array int) (what ^ " visits") expect.visits got.visits;
  check Alcotest.(array int) (what ^ " taken") expect.taken got.taken;
  check Alcotest.(array int) (what ^ " misses") expect.misses got.misses

let send_frames fd s ~lo ~hi =
  let off = ref lo in
  while !off < hi do
    let k = min 5 (hi - !off) in
    Frame.send fd Frame.tag_data (String.sub s !off k);
    off := !off + k
  done

(* Poll the daemon's counter [name] until it reaches [n]. *)
let await_counter srv name n =
  let rec go tries =
    let v =
      Option.value ~default:0
        (Tea_telemetry.Metrics.find_counter (Server.metrics srv) name)
    in
    if v < n then
      if tries = 0 then Alcotest.failf "%s stuck at %d, expected %d" name v n
      else begin
        ignore (Unix.select [] [] [] 0.002);
        go (tries - 1)
      end
  in
  go 2500

(* a daemon that must swap: the drift reference points at a state the
   traffic never visits, so every completed session measures maximal
   drift and the up=1 trigger fires immediately. One session per loop
   stays open across the swap, half sent before it and half after:
   loop 0 publishes the swap while the sessions on every other loop are
   mid-stream. *)
let run_swapping_daemon ~jobs =
  let base = branchy () in
  let drift = Drift.create ~threshold:0.2 [ (5000, 100) ] in
  let retune = { Server.up = 1; cooldown = 0 } in
  let srv =
    Server.create ~offline_check:true ~drift ~base ~retune ~jobs ~image:base
      (Frame.Unix_sock (sock_path ()))
  in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run srv) in
  let addr = Server.addr srv in
  (* the retune profile prefers 0x800 after 0x600, so the swap
     reorders that span *)
  let s =
    stream_of [ 0x100; 0x200; 0x300; 0x600; 0x800; 0x600; 0x800; 0x600; 0x700 ] 40
  in
  let s2 = stream_of [ 0x400; 0x300; 0x500 ] 30 in
  let across = across_stream () in
  let half = String.length across / 2 in
  (* held open at once, the [jobs] sessions land on [jobs] loops *)
  let across_fds = List.init jobs (fun _ -> Frame.connect addr) in
  List.iter (fun fd -> send_frames fd across ~lo:0 ~hi:half) across_fds;
  await_counter srv "serve.sessions_accepted" jobs;
  let sent = ref [] in
  (* phase 1: traffic until the scrape shows the epoch bumped *)
  let deadline = 400 in
  let swapped = ref false in
  let tries = ref 0 in
  while (not !swapped) && !tries < deadline do
    incr tries;
    ignore (Client.replay_string addr s);
    sent := s :: !sent;
    (match epoch_gauge (Client.scrape addr) with
    | Some e when e >= 1 -> swapped := true
    | _ -> ignore (Unix.select [] [] [] 0.01))
  done;
  if not !swapped then Alcotest.fail "daemon never swapped its image";
  (* phase 2: post-swap traffic replays on the new epoch *)
  for _ = 1 to 4 do
    ignore (Client.replay_string addr s2);
    sent := s2 :: !sent
  done;
  List.iter
    (fun fd ->
      send_frames fd across ~lo:half ~hi:(String.length across);
      Frame.send fd Frame.tag_end "";
      (match Frame.recv fd with
      | Some f when f.Frame.tag = Frame.tag_profile -> sent := across :: !sent
      | _ -> Alcotest.fail "a session open across the swap got no profile");
      Unix.close fd)
    across_fds;
  Server.stop srv;
  Domain.join driver;
  check Alcotest.int "all sessions completed" (List.length !sent)
    (Server.completed srv);
  Array.iteri
    (fun i b ->
      if b = 0 then Alcotest.failf "jobs %d: loop %d completed no session" jobs i)
    (Server.loop_blocks srv);
  if Server.epoch srv < 1 then Alcotest.fail "epoch not bumped";
  (* the fleet edge profile spans the swap and the session open across
     it: every epoch counted in the same original ids *)
  check_edge_profile
    (Printf.sprintf "fleet edge profile across swaps (jobs %d)" jobs)
    (collect_streams base !sent)
    (Server.fleet_edge_profile srv);
  (srv, Server.fleet_profile srv, Server.offline_profile srv, !sent)

let test_daemon_swap_gate () =
  (* the acceptance gate: fleet == offline-sequential across the swap,
     at jobs 1/2/4 *)
  List.iter
    (fun jobs ->
      let srv, fleet, offline, _ = run_swapping_daemon ~jobs in
      check profile
        (Printf.sprintf "fleet == offline across swaps (jobs %d)" jobs)
        offline fleet;
      check Alcotest.bool "swap pause measured" true
        (Server.swap_pause_ns srv >= 0))
    [ 1; 2; 4 ]

let state_rows text =
  List.filter
    (fun l -> String.starts_with ~prefix:"tea_dispatch_state_total" l)
    (String.split_on_char '\n' text)

let test_daemon_swap_tiers () =
  (* the tiers a daemon exposes after hot-swapping to a different layout
     are those of replaying the same streams offline on the flat image,
     row for row, and their totals are the fleet profile's in-trace
     hits, global hits and global misses *)
  List.iter
    (fun jobs ->
      let srv, fleet, _, sent = run_swapping_daemon ~jobs in
      let base = branchy () in
      let rep = make_rep base in
      List.iter
        (fun s ->
          List.iter
            (fun (_, runs) ->
              List.iter
                (fun { Pc_trace.starts; insns; len } ->
                  Replayer.set_state rep Automaton.nte;
                  Replayer.feed_run rep ~insns starts ~len)
                runs)
            (runs_of_bytes s))
        sent;
      (* the epoch the daemon swapped to, as its rebuild made it from
         the first phase's traffic, numbers states differently *)
      check Alcotest.bool "the swap renumbered states" true
        (Repack.moved_states
           (Retune.build ~profile:(collect_streams base [ List.hd (List.rev sent) ]) base)
        > 0);
      let offline = Replayer.tiers rep in
      let live = Server.tiers srv in
      check
        Alcotest.(list (pair int (array int)))
        (Printf.sprintf "tier rows == offline across swaps (jobs %d)" jobs)
        offline.Tierstat.ts_states live.Tierstat.ts_states;
      check
        Alcotest.(list string)
        "exposed state rows == offline"
        (state_rows
           (Tea_observe.Exposition.render ~tiers:offline
              Tea_telemetry.Metrics.empty))
        (state_rows (Server.exposition srv));
      let tot = live.Tierstat.ts_totals in
      check
        Alcotest.(list int)
        "tier totals == fleet hits / misses / in-trace"
        [ fleet.Profile.global_hits; fleet.Profile.global_misses;
          fleet.Profile.in_trace_hits ]
        [ tot.(Tierstat.t_hash); tot.(Tierstat.t_miss); tot.(Tierstat.t_compiled) ])
    [ 1; 2 ]

let test_fleet_edge_profile () =
  (* the sessions' own replay counts, summed, equal collecting the sent
     streams over the flat base — on a daemon that keeps no stream — and
     round-trip as a TEAEP1 snapshot *)
  let base = flat () in
  let srv =
    Server.create ~jobs:1 ~image:base (Frame.Unix_sock (sock_path ()))
  in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run ~until_sessions:2 srv) in
  let s1 = stream_of [ 0x100; 0x200; 0x300 ] 30 in
  let s2 = stream_of [ 0x400; 0x300 ] 20 in
  ignore (Client.replay_string (Server.addr srv) s1);
  ignore (Client.replay_string (Server.addr srv) s2);
  Domain.join driver;
  let prof = Server.fleet_edge_profile srv in
  check_edge_profile "fleet edge profile" (collect_streams (flat ()) [ s1; s2 ])
    prof;
  with_tmp ".teaep" @@ fun path ->
  Repack.save_profile path prof;
  check_edge_profile "TEAEP1 round-trip" prof (Repack.load_profile path)

let test_heap_flat () =
  (* a retune daemon whose trigger never fires keeps no served stream:
     after K more sessions of a ~64 KiB stream its live heap grows by
     far less than the bytes those sessions sent *)
  let base = flat () in
  let drift = Drift.create ~threshold:10.0 [ (1, 1) ] in
  let retune = { Server.up = 1; cooldown = 0 } in
  let srv =
    Server.create ~drift ~base ~retune ~jobs:1 ~image:base
      (Frame.Unix_sock (sock_path ()))
  in
  Fun.protect ~finally:(fun () -> Server.close srv) @@ fun () ->
  let driver = Domain.spawn (fun () -> Server.run srv) in
  let rec sized n =
    let s = stream_of [ 0x100; 0x200; 0x300; 0x400; 0x300; 0x500; 0x900 ] n in
    if String.length s >= 65_536 then s else sized (2 * n)
  in
  let s = sized 16_384 in
  let k = 12 in
  let send n =
    for _ = 1 to n do
      ignore (Client.replay_string (Server.addr srv) s)
    done;
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  let after_k = send k in
  let after_2k = send k in
  Server.stop srv;
  Domain.join driver;
  check Alcotest.int "sessions" (2 * k) (Server.completed srv);
  check Alcotest.int "no swap" 0 (Server.epoch srv);
  let growth = after_2k - after_k and budget = k * String.length s / 4 in
  if growth >= budget then
    Alcotest.failf "live heap grew %d bytes over %d sessions (budget %d)" growth
      k budget

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
          qtest prop_edge_profile;
          Alcotest.test_case "rebind basics" `Quick test_rebind_basics;
          Alcotest.test_case "--retune tier rows == plain" `Quick
            test_retune_tiers;
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
          Alcotest.test_case "tiers == offline across swaps" `Quick
            test_daemon_swap_tiers;
          Alcotest.test_case "fleet edge profile (TEAEP1)" `Quick
            test_fleet_edge_profile;
          Alcotest.test_case "heap stays flat under retune" `Quick
            test_heap_flat;
          Alcotest.test_case "client connect retry" `Quick test_client_retry;
        ] );
    ]

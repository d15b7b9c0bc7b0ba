(* One workload, measured end to end: inputs from the seed, set-up timed,
   reference profiles computed, warm-up, timed rounds for [seconds] or a
   fixed number of timed sessions with every answer checked, and — with
   tracing on — the span ledger that splits the time by layer. *)

module Profile = Tea_parallel.Profile
module Pool = Tea_parallel.Pool
module Shard = Tea_parallel.Shard
module Frame = Tea_serve.Frame
module Client = Tea_serve.Client
module Tierstat = Tea_core.Tierstat

type ctx = {
  seed : int;
  seconds : int;
  traced : bool;
  tmp : string;  (** scratch directory, removed at exit *)
  trace_dir : string;  (** where the Chrome span file goes *)
  daemon : string;  (** the tea_tool executable *)
}

let ( // ) = Filename.concat
let now = Unix.gettimeofday
let warmup = 3
let daemon_boots = 3

(* offline runs: at least this many measured rounds, however slow the host *)
let min_rounds = 20

(* serve runs: calibration passes at each end of each of [batches] batches *)
let batches = 8
let cal_passes = 3

(* ---- failure accounting (shared by both client threads) ---- *)

type tally = {
  mu : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** the first few, newest first *)
  mutable wrong : bool;  (** a wrong answer or a failed validity check *)
}

let tally () = { mu = Mutex.create (); attempted = 0; failed = 0; errors = []; wrong = false }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let attempt t = locked t (fun () -> t.attempted <- t.attempted + 1)

let note t msg =
  locked t (fun () -> if List.length t.errors < 10 then t.errors <- msg :: t.errors)

let fail t msg =
  locked t (fun () -> t.failed <- t.failed + 1);
  note t msg

let wrong t msg =
  locked t (fun () -> t.wrong <- true);
  fail t ("wrong answer: " ^ msg)

let invalid t msg =
  locked t (fun () -> t.wrong <- true);
  note t ("invalid run: " ^ msg)

type outcome = {
  tally : tally;
  e2e : Report.metric list;
  layers : Report.metric list;
  extra : Report.metric list;
  clock : Clock.log;  (** the run's calibration passes, see {!Clock} *)
}

(* ---- metric assembly ---- *)

let pct_metric ?unit_ name ~pct xs =
  match Stats.percentile ~pct xs with
  | Ok v -> Some (Report.metric ?unit_ ~samples:(List.length xs) name v)
  | Error _ -> None

let sum_blocks l = List.fold_left (fun a (_, b) -> a + b) 0 l

let ms_of ops = List.map (fun (dt, _) -> 1e3 *. dt) ops

let ns_per_block dt blocks = 1e9 *. dt /. float_of_int (max 1 blocks)

(* The end-to-end metrics from per-operation samples (seconds, blocks) and
   the throughput, with the samples it was taken from. *)
let end_to_end ~ops ~throughput:(throughput, samples) ~rss ~setup ~setup_samples =
  let ns = List.map (fun (dt, b) -> ns_per_block dt b) ops in
  List.filter_map Fun.id
    [
      pct_metric "ns_per_block_p50" ~pct:50 ns;
      pct_metric "latency_ms_p50" ~pct:50 (ms_of ops);
      Some (Report.metric ~samples "throughput_ns_per_block" throughput);
      Some (Report.metric "peak_rss_mb" rss);
      Some (Report.metric ~samples:setup_samples "setup_s" setup);
    ]

(* The tail is an extra: on this host it does not repeat within the
   bounds, so no bound can hold it (see benchmark/README.md). *)
let tail ops = pct_metric ~unit_:"ms" "latency_ms_p90" ~pct:90 (ms_of ops)

type layer_inputs = {
  nodes : Ledger.node list;
  stages : Pipeline.stages;
  stage_samples : int;  (** pipeline runs the stage times are the median of *)
  pool : Replica.pool_acc;
  tiers : Tierstat.snapshot;
  sessions : Profile.t list;  (** replica session profiles *)
  images : Tea_core.Compiled.t list;
  bytes : int;
  blocks : int;
  unaccounted : float;
  overhead : float;
}

let layer_metrics li =
  let m = Report.metric in
  let spans n = let _, c, _ = Ledger.total li.nodes n in c in
  let per_block name span = m ~samples:(spans span) name (Ledger.ns_per_block li.nodes span) in
  let mean_us name span = m ~samples:(spans span) name (Ledger.mean_us li.nodes span) in
  let stage name v = m ~samples:li.stage_samples name v in
  let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let sum f = List.fold_left (fun a p -> a + f p) 0 li.sessions in
  let steps = sum (fun p -> p.Profile.steps) in
  let images name f = m name (float_of_int (List.fold_left (fun a c -> a + f c) 0 li.images)) in
  let p = li.pool in
  [
    stage "setup.record_s" li.stages.Pipeline.record;
    stage "setup.build_s" li.stages.Pipeline.build;
    stage "setup.pgo_s" li.stages.Pipeline.pgo;
    stage "setup.fuse_s" li.stages.Pipeline.fuse;
    stage "setup.compile_s" li.stages.Pipeline.compile;
    per_block "pc_trace.read_ns_per_block" "pc_trace.read";
    (* Shard.load_* reads and decodes: decode is what the read does not cover *)
    m ~samples:(spans "shard.load") "pc_trace.decode_ns_per_block"
      (Ledger.ns_per_block li.nodes "shard.load" -. Ledger.ns_per_block li.nodes "pc_trace.read");
    per_block "pc_trace.stream_decode_ns_per_block" "pc_trace.stream_decode";
    m "pc_trace.bytes_per_block" (frac li.bytes li.blocks);
    per_block "shard.replay_ns_per_block" "shard.replay";
    m ~samples:p.Replica.calls "pool.busy_frac"
      (let t = p.Replica.busy_s +. p.Replica.idle_s in
       if t = 0.0 then 0.0 else p.Replica.busy_s /. t);
    m ~samples:p.Replica.calls "pool.wait_ms"
      (1e3 *. p.Replica.idle_s /. float_of_int (max 1 p.Replica.calls));
    mean_us "profile.merge_us" "profile.merge";
    per_block "replay.feed_ns_per_block" "replay.feed";
    mean_us "session.open_us" "session.open";
    m "dispatch.in_trace_frac" (frac (sum (fun p -> p.Profile.in_trace_hits)) steps);
    m "dispatch.global_miss_frac" (frac (sum (fun p -> p.Profile.global_misses)) steps);
    (* the share the daemon's always-on tier profiler charges to the global
       hash: the other tiers are the profile's in-trace and miss shares *)
    m "dispatch.tier_frac.hash"
      (frac li.tiers.Tierstat.ts_totals.(Tierstat.t_hash) (Tierstat.total li.tiers));
    images "compiled.closures" Tea_core.Compiled.n_closures;
    images "compiled.region_states" Tea_core.Compiled.region_states;
    per_block "frame.parse_ns_per_block" "frame.parse";
    mean_us "profile.encode_us" "profile.encode";
    mean_us "profile.fold_us" "profile.fold";
    m "ledger.unaccounted_frac" li.unaccounted;
    m "trace_overhead_frac" li.overhead;
  ]

let write_trace ctx w ledger t =
  (match Ledger.validate ledger with
  | Ok () -> ()
  | Error msg -> invalid t ("span file does not validate: " ^ msg));
  let path = ctx.trace_dir // Printf.sprintf "%s-seed%d.json" w.Workload.name ctx.seed in
  Ledger.write ledger path;
  Printf.eprintf "[bench] %s: spans written to %s\n%!" w.Workload.name path

(* The serve-side replica over each distinct (stream, image_for, expected
   answer), checked like every other answer. A workload with few streams
   replays them several times, so each layer gets several samples and the
   fold into the fleet is timed on a fleet that is not empty. *)
let serve_replicas ledger t streams =
  let fleet = ref Profile.empty in
  let one (sessions, tiers) (s, image_for, expected) =
    let session, tr = Replica.serve ledger ~image_for ~fleet s in
    (match Oracle.check ~expected session with
    | Ok () -> ()
    | Error m -> wrong t (s.Replica.id ^ " (serve replica): " ^ m));
    (session :: sessions, Tierstat.merge tiers tr)
  in
  List.fold_left
    (fun acc _ -> List.fold_left one acc streams)
    ([], Tierstat.empty)
    (List.init (max 1 (8 / List.length streams)) Fun.id)

let median_or_zero = function [] -> 0.0 | l -> Stats.median l

(* ---- offline workloads ---- *)

let offline ctx (w : Workload.t) =
  let t = tally () in
  let progs =
    List.mapi
      (fun i name ->
        let program = Inputs.program name in
        let cap = Inputs.capture ~path:(ctx.tmp // (name ^ ".capture")) program in
        let by = Inputs.rotation ~seed:ctx.seed ~salt:(i + 1) cap in
        (name, program, Inputs.rotate cap ~by))
      w.Workload.programs
  in
  (* set-up: the whole image pipeline, three times, each after a
     calibration pass; the last one is used *)
  let cal = Clock.log ~ipc:false in
  let reps =
    List.init 3 (fun _ ->
        let k = Clock.sample cal 1 in
        let rep = List.map (fun (_, program, s) -> Pipeline.build program ~tune:s) progs in
        (k, rep, List.fold_left (fun a (_, st) -> Pipeline.add a st) Pipeline.zero rep))
  in
  let sums = List.map (fun (_, _, s) -> s) reps in
  let stage f = Stats.median (List.map f sums) in
  let stages =
    Pipeline.
      {
        record = stage (fun s -> s.record);
        build = stage (fun s -> s.build);
        pgo = stage (fun s -> s.pgo);
        fuse = stage (fun s -> s.fuse);
        compile = stage (fun s -> s.compile);
      }
  in
  let built = Array.of_list (List.map fst (let _, rep, _ = List.nth reps 2 in rep)) in
  let image_for i = built.(i).Pipeline.image in
  let round_blocks = List.fold_left (fun a (_, _, s) -> a + s.Inputs.len) 0 progs in
  let make = Pipeline.make_compiled in
  (* the pool exists only from here on: idle worker domains slow the
     allocation-heavy set-up down by a third and make it noisy *)
  Pool.with_pool ~jobs:2 @@ fun pool ->
  (* the inputs as files, the reference answers, and the timed call *)
  let streams, expected, round, traced_round =
    match w.Workload.kind with
    | Workload.Offline_loopy ->
        let files =
          List.mapi
            (fun i (name, _, s) ->
              let path = ctx.tmp // (name ^ ".trc") in
              Inputs.write_v2 path s;
              (i, path, s))
            progs
        in
        let expected =
          List.map (fun (i, _, s) -> (i, Oracle.of_stream built.(i).Pipeline.auto s)) files
        in
        let round () =
          List.map (fun (i, path, _) -> (i, fst (Shard.replay_pc_trace pool (image_for i) ~make path))) files
        in
        let traced_round ledger acc =
          Ledger.root ledger "round" @@ fun () ->
          List.map
            (fun (i, path, s) ->
              ignore
                (Ledger.leaf ledger ~blocks:s.Inputs.len "pc_trace.read" (fun () ->
                     Tea_core.Pc_trace.read_all path));
              let starts, insns, len =
                Ledger.leaf ledger ~blocks:s.Inputs.len "shard.load" (fun () -> Shard.load_pc_trace path)
              in
              ( i,
                Replica.shard_replay ledger acc pool ~blocks:len (fun () ->
                    Shard.replay_arrays pool (image_for i) ~make ~insns starts ~len) ))
            files
        in
        let streams =
          List.map
            (fun (i, path, s) ->
              ( {
                  Replica.id = string_of_int i;
                  path;
                  bytes = Tea_core.Pc_trace.read_all path;
                  blocks = s.Inputs.len;
                  asids = [ 0 ];
                },
                (fun _ -> image_for i),
                List.assoc i expected ))
            files
        in
        (streams, expected, round, traced_round)
    | _ ->
        let path = ctx.tmp // "interleave.trc" in
        Inputs.write_interleaved ~seed:ctx.seed path
          (List.map (fun (name, _, s) -> (name, s)) progs);
        let expected =
          Oracle.of_file ~auto_for:(fun a -> built.(a).Pipeline.auto) path
        in
        let round () = Shard.replay_events pool image_for ~make path in
        let traced_round ledger acc =
          Ledger.root ledger "round" @@ fun () ->
          ignore
            (Ledger.leaf ledger ~blocks:round_blocks "pc_trace.read" (fun () ->
                 Tea_core.Pc_trace.read_all path));
          let per_asid =
            Ledger.leaf ledger ~blocks:round_blocks "shard.load" (fun () -> Shard.load_events path)
          in
          Replica.replay_runs ledger acc pool ~image_for per_asid
        in
        let stream =
          {
            Replica.id = "interleave";
            path;
            bytes = Tea_core.Pc_trace.read_all path;
            blocks = round_blocks;
            asids = List.map fst expected;
          }
        in
        ([ (stream, image_for, Oracle.merged expected) ], expected, round, traced_round)
  in
  let first = ref None in
  let check got =
    match !first with
    | Some p ->
        if not (List.equal (fun (a, x) (b, y) -> a = b && Profile.equal x y) p got) then
          wrong t "round profile differs from the first round's"
    | None -> (
        first := Some got;
        match Oracle.check_per_asid ~expected got with
        | Ok () -> ()
        | Error m -> wrong t m)
  in
  (* every round follows a calibration pass of its own, and starts from
     an empty major heap *)
  let timed_round f =
    let k = Clock.sample cal 1 in
    Gc.full_major ();
    attempt t;
    let t0 = now () in
    match f () with
    | got ->
        let dt = now () -. t0 in
        check got;
        Some (dt, k)
    | exception e ->
        fail t (Printexc.to_string e);
        None
  in
  for _ = 1 to warmup do ignore (timed_round round) done;
  (* rounds until [seconds] of wall time have gone by, passes and
     collections included; a traced run alternates plain and traced
     rounds, so both halves see the same machine and the same heap *)
  let ledger = Ledger.create () and acc = Replica.pool_acc () in
  let deadline = now () +. float_of_int ctx.seconds in
  let rec rounds j times =
    if j >= min_rounds && now () >= deadline then List.rev times
    else
      let r =
        if ctx.traced && j mod 2 = 1 then (true, timed_round (fun () -> traced_round ledger acc))
        else (false, timed_round round)
      in
      rounds (j + 1) (r :: times)
  in
  let times = rounds 0 [] in
  let pick traced =
    List.filter_map
      (fun (tr, r) ->
        match r with Some (dt, k) when tr = traced -> Some (Clock.at_run_median cal ~k dt) | _ -> None)
      times
  in
  let plain = pick false in
  let ops = List.map (fun dt -> (dt, round_blocks)) plain in
  let e2e =
    end_to_end ~ops
      ~throughput:(ns_per_block (List.fold_left ( +. ) 0.0 plain) (sum_blocks ops), List.length ops)
      ~rss:(Daemon.vmhwm_mb (Unix.getpid ()))
      ~setup:(Stats.median (List.map (fun (k, _, s) -> Clock.at_run_median cal ~k (Pipeline.total s)) reps))
      ~setup_samples:3
  in
  let layers =
    if not ctx.traced then []
    else begin
      let traced = pick true in
      let sessions, tiers = serve_replicas ledger t streams in
      let nodes = Ledger.nodes ledger in
      write_trace ctx w ledger t;
      (* the traced round's layers must tile it: what they leave uncovered
         is benchmark overhead, expected well under a tenth *)
      let unaccounted =
        median_or_zero
          (List.map (fun r -> Ledger.self r /. Ledger.dur r) (Ledger.named "round" nodes))
      in
      if Float.abs unaccounted > 0.1 then
        Printf.eprintf "[bench] %s: layers cover only %.0f%% of the traced round\n%!"
          w.Workload.name (100.0 *. (1.0 -. unaccounted));
      layer_metrics
        {
          nodes;
          stages;
          stage_samples = 3;
          pool = acc;
          tiers;
          sessions;
          images = Array.to_list (Array.map (fun b -> b.Pipeline.compiled) built);
          bytes = List.fold_left (fun a (s, _, _) -> a + String.length s.Replica.bytes) 0 streams;
          blocks = round_blocks;
          unaccounted;
          overhead = (median_or_zero traced /. median_or_zero plain) -. 1.0;
        }
    end
  in
  { tally = t; e2e; layers; extra = Option.to_list (tail ops); clock = cal }

(* ---- serve workloads ---- *)

type slot = Session of int | Abort of int * int  (** stream, bytes sent *)

(* A Frame-level copy of Client.replay_string with a span around each step
   of the session as the client sees it. *)
let traced_session ledger addr (s : Replica.stream) =
  Ledger.root ledger ~args:[ ("stream", s.Replica.id) ] "session" @@ fun () ->
  let fd = Ledger.leaf ledger "client.connect" (fun () -> Frame.connect addr) in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Ledger.leaf ledger ~blocks:s.Replica.blocks "client.send" (fun () ->
      let n = String.length s.Replica.bytes in
      let rec go off =
        if off < n then begin
          let k = min Replica.chunk (n - off) in
          Frame.send fd Frame.tag_data (String.sub s.Replica.bytes off k);
          go (off + k)
        end
      in
      go 0;
      Frame.send fd Frame.tag_end "");
  match Ledger.leaf ledger "client.reply_wait" (fun () -> Frame.recv fd) with
  | Some f when f.Frame.tag = Frame.tag_profile ->
      Ledger.leaf ledger "client.decode_profile" (fun () -> Frame.decode_profile f.Frame.payload)
  | Some f when f.Frame.tag = Frame.tag_error -> raise (Client.Server_error f.Frame.payload)
  | _ -> raise (Frame.Corrupt "no profile reply")

(* A rude client: part of a stream, then a close with no end-of-stream. *)
let abort addr bytes n =
  let fd = Frame.connect addr in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () -> Frame.send fd Frame.tag_data (String.sub bytes 0 (min n (String.length bytes)))

let serve ctx (w : Workload.t) =
  let t = tally () in
  let name = List.hd w.Workload.programs in
  let program = Inputs.program name in
  let cap = Inputs.capture ~path:(ctx.tmp // "capture.trc") program in
  (* the daemon's own preparation, in-process: the oracle's automaton, and
     the image the replicas of a traced run replay *)
  let built, stages = Pipeline.build program ~tune:cap in
  let auto = built.Pipeline.auto in
  let stream id path blocks asids =
    { Replica.id; path; bytes = Tea_core.Pc_trace.read_all path; blocks; asids }
  in
  let churn = w.Workload.kind = Workload.Serve_churn in
  let streams =
    if not churn then begin
      let s = Inputs.rotate cap ~by:(Inputs.rotation ~seed:ctx.seed ~salt:1 cap) in
      let v2 = ctx.tmp // "long-v2.trc" and v3 = ctx.tmp // "long-v3.trc" in
      Inputs.write_v2 v2 s;
      Inputs.write_two_asid v3 s;
      [| stream "v2" v2 s.Inputs.len [ 0 ]; stream "v3" v3 s.Inputs.len [ 0; 1 ] |]
    end
    else
      Inputs.slice_plan ~seed:ctx.seed ~count:256 ~lo:500 ~hi:20000 ~tail:0.3
        ~total:cap.Inputs.len
      |> Array.mapi (fun i (off, len) ->
             let path = ctx.tmp // Printf.sprintf "slice-%03d.trc" i in
             Inputs.write_v2 path (Inputs.sub cap ~off ~len);
             stream (string_of_int i) path len [ 0 ])
  in
  let expected =
    Array.map
      (fun s -> Oracle.merged (Oracle.of_file ~auto_for:(fun _ -> auto) s.Replica.path))
      streams
  in
  (* the session plan: 3 warm-up sessions per client, then the measured
     slots; serve-churn turns one slot in 64 into a rude abort *)
  let warm = 2 * warmup in
  let n = Workload.sessions w ~seconds:ctx.seconds in
  let slots = warm + n in
  let order = Inputs.session_order ~seed:ctx.seed ~pool:(Array.length streams) in
  let aborts =
    if churn then Inputs.abort_plan ~seed:ctx.seed ~every:64 ~sessions:n else Array.make n None
  in
  let plan =
    Array.init slots (fun i ->
        let k = order.(i mod Array.length order) in
        match if i >= warm then aborts.(i - warm) else None with
        | Some u -> Abort (k, Inputs.abort_bytes u ~size:(String.length streams.(k).Replica.bytes))
        | None -> Session k)
  in
  (* set-up: three daemon boots to the banner, each after a calibration
     pass; the last one serves *)
  let args =
    [ name; "--engine"; "compiled"; "--pgo"; "--fuse"; "--jobs"; "2" ]
    @ if churn then [ "--retune" ] else []
  in
  let cal = Clock.log ~ipc:true in
  let boot () =
    let k = Clock.sample cal 1 in
    let d, s = Daemon.spawn ~exe:ctx.daemon ~tmp:ctx.tmp ~sock:(ctx.tmp // "d.sock") args in
    (d, (k, s))
  in
  let earlier =
    List.init (daemon_boots - 1) (fun _ ->
        let d, s = boot () in
        Daemon.stop d;
        s)
  in
  let d, last = boot () in
  let boots = last :: earlier in
  let addr = d.Daemon.addr in
  let ledger = Ledger.create () in
  let lat = Array.make slots nan and t_start = Array.make slots nan and t_end = Array.make slots nan in
  let traced = Array.make slots false in
  let scrapes = ref [] and aborts_sent = Atomic.make 0 in
  let next = Atomic.make 0 and mine = Array.make 2 0 in
  (* both clients take slots below [hi] until there are none left *)
  let client (id, hi) =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < hi then begin
        (match plan.(i) with
        | Abort (k, bytes) -> (
            match abort addr streams.(k).Replica.bytes bytes with
            | () -> Atomic.incr aborts_sent
            | exception e -> note t ("abort: " ^ Printexc.to_string e))
        | Session k -> (
            attempt t;
            mine.(id) <- mine.(id) + 1;
            let s = streams.(k) in
            (* spans nest per domain and both clients share one, so only
               client 0 traces; client 1's sessions are the plain half *)
            traced.(i) <- ctx.traced && id = 0 && i >= warm;
            let t0 = now () in
            match
              if traced.(i) then traced_session ledger addr s
              else Client.replay_string ~retries:3 ~chunk:Replica.chunk addr s.Replica.bytes
            with
            | p -> (
                let t1 = now () in
                match Oracle.check ~expected:expected.(k) p with
                | Ok () ->
                    lat.(i) <- t1 -. t0;
                    t_start.(i) <- t0;
                    t_end.(i) <- t1
                | Error m -> wrong t (Printf.sprintf "session %d (stream %s): %s" i s.Replica.id m))
            | exception e -> fail t (Printf.sprintf "session %d: %s" i (Printexc.to_string e))));
        (* client 0 scrapes while client 1's session is in flight *)
        if id = 0 && i >= warm && (match plan.(i) with Session _ -> true | Abort _ -> false)
           && ((not churn) || mine.(0) mod 8 = 0)
        then begin
          attempt t;
          let t0 = now () in
          match Client.scrape ~retries:3 addr with
          | _ -> scrapes := (i, now () -. t0) :: !scrapes
          | exception e -> fail t ("scrape: " ^ Printexc.to_string e)
        end;
        loop ()
      end
    in
    loop ()
  in
  let run_slots lo hi =
    Atomic.set next lo;
    let other = Thread.create client (1, hi) in
    Fun.protect ~finally:(fun () -> Thread.join other) (fun () -> client (0, hi))
  in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  (* The warm-up, then the measured slots in batches with calibration
     passes between them. The clients share the benchmark's one domain, so
     a pass cannot run among their sessions; a batch's sessions are
     restated at the speed its neighbouring passes saw. *)
  run_slots 0 warm;
  let bound b = warm + (b * n / batches) in
  let k_at = Array.make (batches + 1) (Clock.sample cal cal_passes) in
  for b = 1 to batches do
    run_slots (bound (b - 1)) (bound b);
    k_at.(b) <- Clock.sample cal cal_passes
  done;
  let rec batch ?(b = 0) i = if i < bound (b + 1) then b else batch ~b:(b + 1) i in
  let at_speed b dt = Clock.at_run_median cal ~k:((k_at.(b) +. k_at.(b + 1)) /. 2.0) dt in
  (* after the last reply: the daemon's own counters, and its peak memory *)
  let aborts_sent = Atomic.get aborts_sent in
  let rec final tries =
    let text = Client.scrape ~retries:3 addr in
    let s = Daemon.parse_scrape text in
    if int_of_float (Daemon.series s "serve_disconnects") <> aborts_sent && tries > 0 then begin
      Unix.sleepf 0.05;
      final (tries - 1)
    end
    else (text, s)
  in
  let text, scraped = final 60 in
  let rss = Daemon.peak_rss_mb d in
  Daemon.stop d;
  let disconnects = int_of_float (Daemon.series scraped "serve_disconnects") in
  let epoch = int_of_float (Daemon.series scraped "tea_image_epoch") in
  if disconnects <> aborts_sent then
    invalid t (Printf.sprintf "daemon counted %d disconnects for %d aborts" disconnects aborts_sent);
  if churn && epoch < 1 then invalid t "no hot swap happened (tea_image_epoch 0)";
  let completed =
    List.filter_map
      (fun i ->
        match plan.(i) with
        | Session k when Float.is_finite lat.(i) -> Some (i, streams.(k).Replica.blocks)
        | _ -> None)
      (List.init n (fun j -> warm + j))
  in
  (* throughput: a batch's wall time over the blocks of the sessions it
     completed; the median batch, so one batch that a burst of load on the
     host caught between two calibrations does not move it *)
  let batch_ns =
    List.filter_map
      (fun b ->
        match List.filter (fun (i, _) -> batch i = b) completed with
        | [] -> None
        | in_batch ->
            let span =
              List.fold_left (fun a (i, _) -> Float.max a t_end.(i)) neg_infinity in_batch
              -. List.fold_left (fun a (i, _) -> Float.min a t_start.(i)) infinity in_batch
            in
            Some (ns_per_block (at_speed b span) (sum_blocks in_batch)))
      (List.init batches Fun.id)
  in
  let plain = List.filter (fun (i, _) -> not traced.(i)) completed in
  let ops = List.map (fun (i, b) -> (at_speed (batch i) lat.(i), b)) plain in
  let e2e =
    end_to_end ~ops ~rss
      ~throughput:(median_or_zero batch_ns, List.length batch_ns)
      ~setup:(Stats.median (List.map (fun (k, s) -> Clock.at_run_median cal ~k s) boots))
      ~setup_samples:daemon_boots
  in
  let series name = Daemon.series scraped name in
  let scrape_ms = List.map (fun (i, dt) -> 1e3 *. at_speed (batch i) dt) !scrapes in
  let extra =
    List.filter_map Fun.id
      [
        tail ops;
        pct_metric ~unit_:"ms" "scrape_ms_p50" ~pct:50 scrape_ms;
        pct_metric ~unit_:"ms" "scrape_ms_p90" ~pct:90 scrape_ms;
        Some (Report.metric ~unit_:"count" "sessions_completed" (series "serve_sessions_completed"));
        Some (Report.metric ~unit_:"count" "aborts" (float_of_int aborts_sent));
        Some (Report.metric ~unit_:"count" "serve.disconnects" (float_of_int disconnects));
        Some (Report.metric ~unit_:"count" "retune.swaps" (float_of_int epoch));
        Some (Report.metric ~unit_:"ratio" "retune.drift_l1" (series "tea_drift_l1"));
      ]
  in
  let layers, extra =
    if not ctx.traced then ([], extra)
    else begin
      (* the replicas run after the daemon has stopped *)
      let image_for _ = built.Pipeline.image in
      let acc = Replica.pool_acc () in
      Pool.with_pool ~jobs:2 (fun pool ->
          Array.iteri
            (fun k s ->
              match Replica.offline ledger acc pool ~image_for s with
              | got -> (
                  match Oracle.check ~expected:expected.(k) (Oracle.merged got) with
                  | Ok () -> ()
                  | Error m -> wrong t (s.Replica.id ^ " (offline replica): " ^ m))
              | exception e -> fail t (Printexc.to_string e))
            streams);
      let sessions, tiers =
        serve_replicas ledger t
          (Array.to_list (Array.mapi (fun k s -> (s, image_for, expected.(k))) streams))
      in
      let nodes = Ledger.nodes ledger in
      write_trace ctx w ledger t;
      (* unaccounted: the share of a client-observed session that the
         single-thread replica's layer time for the same stream does not
         cover — queueing, scheduling and the daemon's select loop *)
      let replica_s =
        List.map
          (fun r -> (Option.get (Ledger.arg r "stream"), r.Ledger.children))
          (Ledger.named "replica.serve" nodes)
      in
      let sessions_traced = Ledger.named "session" nodes in
      let unaccounted =
        median_or_zero
          (List.map
             (fun r -> 1.0 -. (List.assoc (Option.get (Ledger.arg r "stream")) replica_s /. Ledger.dur r))
             sessions_traced)
      in
      (* both as measured: span durations are not restated *)
      let plain_lat = List.map (fun (i, _) -> lat.(i)) plain
      and traced_lat = List.map (fun r -> Ledger.dur r) sessions_traced in
      let layers =
        layer_metrics
          {
            nodes;
            stages;
            stage_samples = 1;
            pool = acc;
            tiers;
            sessions;
            images = [ built.Pipeline.compiled ];
            bytes = Array.fold_left (fun a s -> a + String.length s.Replica.bytes) 0 streams;
            blocks = Array.fold_left (fun a s -> a + s.Replica.blocks) 0 streams;
            unaccounted;
            overhead = (median_or_zero traced_lat /. median_or_zero plain_lat) -. 1.0;
          }
      in
      let mean_us name = Ledger.mean_us nodes name in
      let busy = series "pool_domain00_busy_us" +. series "pool_domain01_busy_us"
      and wait = series "pool_domain00_wait_us" +. series "pool_domain01_wait_us" in
      let client =
        [
          Report.metric ~unit_:"us" "client.connect_us" (mean_us "client.connect");
          Report.metric ~unit_:"ms" "client.send_ms" (mean_us "client.send" /. 1e3);
          Report.metric ~unit_:"ms" "client.reply_wait_ms" (mean_us "client.reply_wait" /. 1e3);
          Report.metric ~unit_:"us" "client.decode_profile_us" (mean_us "client.decode_profile");
          Report.metric ~unit_:"ratio" "serve.pool_busy_frac" (if busy +. wait = 0.0 then 0.0 else busy /. (busy +. wait));
          Report.metric ~unit_:"ns/block" "serve.session_ns_per_block_p50" (series "serve_session_ns_per_block@0.5");
          Report.metric ~unit_:"count" "serve.queue_depth_p50" (series "serve_queue_depth@0.5");
          Report.metric ~unit_:"count" "serve.queue_depth_p95" (series "serve_queue_depth@0.95");
          Report.metric ~unit_:"count" "serve.frames_per_session"
            (series "serve_frames" /. Float.max 1.0 (series "serve_sessions_accepted"));
          Report.metric ~unit_:"B" "scrape.bytes" (float_of_int (String.length text));
        ]
      in
      (layers, extra @ client)
    end
  in
  { tally = t; e2e; layers; extra; clock = cal }

(* Differential tests of the closure-threaded compiled engine
   (Tea_core.Compiled behind Tea_opt.Compile): compiled replay must be
   observationally identical — TBB mapping, coverage, enter/exit
   counters, stats and simulated cycles — to stepping the packed image
   one address at a time ({!Packed.step}) over flat, repacked and fused
   images, fed in one batch, split at an arbitrary seam or chopped into
   many short batches; TBB-identical to the reference engine; sharded
   replay through compiled workers must merge to the sequential profile
   at jobs 1/2/4; demuxed multi-asid replay through compiled engines
   must match step-at-a-time isolated per-asid replay; replayers sharing
   one compiled image, interleaved or on two domains at once, must each
   equal a replayer on its own image; and the dispatch-tier attribution
   of a compiled replay must stay a total partition of the blocks
   replayed. *)

open Tea_isa
module I = Insn
module Block = Tea_cfg.Block
module Trace = Tea_traces.Trace
module Automaton = Tea_core.Automaton
module Builder = Tea_core.Builder
module Packed = Tea_core.Packed
module Compiled = Tea_core.Compiled
module Replayer = Tea_core.Replayer
module Transition = Tea_core.Transition
module Tierstat = Tea_core.Tierstat
module Multi = Tea_core.Multi_replayer
module Repack = Tea_opt.Repack
module Fuse = Tea_opt.Fuse
module Compile = Tea_opt.Compile
module Scenario = Tea_workloads.Scenario
module Pool = Tea_parallel.Pool
module Profile = Tea_parallel.Profile
module Shard = Tea_parallel.Shard

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let block_at addr = Block.make Block.Branch [ (addr, I.Jmp (I.Abs 0)) ]

(* ---------------- Random workload generation ----------------

   Same pool as test_fuse's generator: traces skew toward long
   single-successor runs so fused chains form, and a fraction of states
   get two successors so the straight-line region's bimodal arm is
   exercised; streams mix loop-shaped repetition with random addresses
   so region runs, span misses, hash hits and NTE cuts all happen. *)

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

(* The three image variants every property sweeps: flat, profile-guided
   repacked, and repacked+fused (fusion over the stream's own profile
   would gate most chains out on these tiny workloads, so fuse
   unconditionally — the identity must hold either way). *)
let variants w addrs ~len =
  let auto = Builder.build w.w_traces in
  let flat = Packed.freeze auto in
  let tuned = Repack.repack flat (Repack.collect flat addrs ~len) in
  (auto, [ flat; tuned; Fuse.fuse tuned ])

let compiled_make img = Replayer.create_compiled (Compile.compile img)

(* The oracle every batch property compares against: the same image
   stepped one address at a time ({!Replayer.feed_addr} on a compiled
   replayer runs {!Packed.step} on its base image). *)
let stepped img ~insns addrs ~len =
  let rep = compiled_make img in
  for i = 0 to len - 1 do
    Replayer.feed_addr rep ~insns:insns.(i) addrs.(i)
  done;
  rep

let compiled_replayer ?cut img ~insns addrs ~len =
  let rep = compiled_make img in
  (match cut with
  | Some c when c > 0 && c < len ->
      Replayer.feed_run rep ~insns addrs ~len:c;
      Replayer.feed_run rep ~off:c ~insns addrs ~len:(len - c)
  | _ -> Replayer.feed_run rep ~insns addrs ~len);
  rep

(* The tentpole property: compiling any image changes no replay
   observable — full snapshot equality (counts, coverage, enters/exits,
   stats, simulated cycles) plus the halt state, whether the stream is
   fed in one batch or split at an arbitrary seam (compiled dispatch is
   bounded by the threaded batch end, so a seam never moves a cycle). *)
let prop_compiled_is_identity =
  QCheck.Test.make ~name:"compiled replay == packed replay" ~count:150
    (QCheck.pair gen_workload (QCheck.int_range 0 200))
    (fun (w, cut) ->
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let _, imgs = variants w addrs ~len in
      List.for_all
        (fun img ->
          let base = stepped img ~insns addrs ~len in
          let once = compiled_replayer img ~insns addrs ~len in
          let split =
            compiled_replayer ~cut:(min cut len) img ~insns addrs ~len
          in
          Replayer.snapshot base = Replayer.snapshot once
          && Replayer.snapshot base = Replayer.snapshot split
          && Replayer.state base = Replayer.state once
          && Replayer.state base = Replayer.state split)
        imgs)

(* Against the paper-faithful engine: the TBB mapping (the answer to
   "which TBB is executing") and the boundary counters must agree with a
   reference replay of the same stream. *)
let prop_compiled_equals_reference =
  QCheck.Test.make ~name:"compiled TBB mapping == reference" ~count:100
    gen_workload (fun w ->
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let auto, imgs = variants w addrs ~len in
      let reference =
        Replayer.create (Transition.create Transition.config_global_local auto)
      in
      Replayer.feed_run reference ~insns addrs ~len;
      List.for_all
        (fun img ->
          let comp = compiled_replayer img ~insns addrs ~len in
          Replayer.tbb_counts reference = Replayer.tbb_counts comp
          && Replayer.covered_insns reference = Replayer.covered_insns comp
          && Replayer.trace_enters reference = Replayer.trace_enters comp
          && Replayer.trace_exits reference = Replayer.trace_exits comp)
        imgs)

(* feed_addr single-stepping must equal the stream chopped into many
   short feed_run batches (1..7 blocks, drawn per workload) — every cut
   lands somewhere different, including inside fused chains and region
   runs, and the batch bound is the only loop-carried variable. *)
let prop_compiled_feed_addr =
  QCheck.Test.make ~name:"compiled feed_run == repeated feed_addr" ~count:100
    (QCheck.pair gen_workload (QCheck.int_range 1 7))
    (fun (w, batch) ->
      (* the shrinker steps below the range; a 0-block batch never ends *)
      let batch = max 1 batch in
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let _, imgs = variants w addrs ~len in
      List.for_all
        (fun img ->
          let one = stepped img ~insns addrs ~len in
          let batched = compiled_make img in
          let off = ref 0 in
          while !off < len do
            let n = min batch (len - !off) in
            Replayer.feed_run batched ~off:!off ~insns addrs ~len:n;
            off := !off + n
          done;
          Replayer.snapshot one = Replayer.snapshot batched
          && Replayer.state one = Replayer.state batched)
        imgs)

(* ---------------- negative block addresses ----------------

   No trace holds a negative address, but a stream can: its deltas may
   run below zero. An empty hash slot's key is -1, so the probe must test
   for the empty slot before comparing keys, and the compares' "no
   label" marker must equal no int at all. Batched, one-step and
   reference replay must agree on every negative address, -1 and
   [min_int] included. *)

let negatives = [ -1; -2; -3; -7; -0x1000; min_int; min_int + 1 ]

(* Snapshot and state of the batched and the stepped compiled replay
   agree, and both match the reference engine's engine-invariant
   fields. *)
let negative_agree auto img addrs =
  let len = Array.length addrs in
  let insns = Array.init len (fun i -> 1 + (i mod 3)) in
  let one = stepped img ~insns addrs ~len in
  let batched = compiled_replayer img ~insns addrs ~len in
  let reference =
    Replayer.create (Transition.create Transition.config_global_local auto)
  in
  Replayer.feed_run reference ~insns addrs ~len;
  Replayer.snapshot one = Replayer.snapshot batched
  && Replayer.state one = Replayer.state batched
  && Replayer.tbb_counts reference = Replayer.tbb_counts batched
  && Replayer.covered_insns reference = Replayer.covered_insns batched
  && Replayer.trace_enters reference = Replayer.trace_enters batched
  && Replayer.trace_exits reference = Replayer.trace_exits batched

let test_negative_addresses () =
  (* a three-block loop at 0, 1, 2: its region slots compare 0..2 *)
  let auto =
    Builder.build
      [ Trace.linear ~id:0 ~kind:"test" ~cycle:true
          [ block_at 0x0; block_at 0x1; block_at 0x2 ] ]
  in
  let flat = Packed.freeze auto in
  let imgs = [ flat; Fuse.fuse flat ] in
  let streams =
    [ [| -1 |]; [| 57; -1; 33; -1; 0; 1 |]; [| 0; -1; 0 |]; [| -7; -3 |];
      [| min_int |]; [| 0; 1; min_int; 2; 0; 1; 2; -1; 0; 1; 2 |] ]
    @ List.map (fun a -> [| 0; 1; 2; a; 0; a; a; 1; 2; 0 |]) negatives
  in
  List.iter
    (fun addrs ->
      List.iteri
        (fun k img ->
          check Alcotest.bool
            (Printf.sprintf "[%s] on image %d"
               (String.concat "; " (Array.to_list (Array.map string_of_int addrs)))
               k)
            true
            (negative_agree auto img addrs))
        imgs)
    streams

(* The generated workloads with a fifth of their addresses negative. *)
let prop_negative_addresses =
  QCheck.Test.make ~name:"negative addresses: feed_run == feed_addr == reference"
    ~count:100
    (QCheck.pair gen_workload (QCheck.int_range 0 1000))
    (fun (w, salt) ->
      let addrs, _, len = arrays_of_stream w.w_stream in
      let addrs =
        Array.mapi
          (fun i a ->
            if (i + salt) mod 5 = 0 then
              List.nth negatives ((i + salt) mod List.length negatives)
            else a)
          addrs
      in
      let auto, imgs = variants w addrs ~len in
      List.for_all (fun img -> negative_agree auto img addrs) imgs)

(* ---------------- one compiled image, many replayers ---------------- *)

let listscan_fixture () =
  let image = Tea_workloads.Micro.list_scan () in
  let strategy = Option.get (Tea_traces.Registry.by_name "mret") in
  let dbt = Tea_dbt.Stardbt.record ~strategy image in
  let traces = Tea_traces.Trace_set.to_list dbt.Tea_dbt.Stardbt.set in
  let flat = Packed.freeze (Builder.build traces) in
  let path = Filename.temp_file "tea_compile" ".trc" in
  let _ = Tea_pinsim.Trace_capture.record image path in
  let starts, insns, len = Tea_parallel.Shard.load_pc_trace path in
  Sys.remove path;
  (flat, starts, insns, len)

let counters_of img rep =
  let acc = Array.make (Packed.n_counters img) 0 in
  Replayer.add_edge_counts rep acc;
  acc

(* A compiled image is an immutable value: [n] replayers sharing one,
   fed their own streams in randomly interleaved batches and all rebound
   onto one shared image of another layout at a random batch, must each
   equal a replayer on images built for it alone and one stepping
   ({!Packed.step}) a block at a time on its own images — snapshot,
   cycles, raw counters and state. *)
let prop_shared_image =
  QCheck.Test.make ~name:"replayers sharing one compiled image == own images"
    ~count:100
    (QCheck.pair gen_workload QCheck.small_nat)
    (fun (w, seed) ->
      let addrs, insns, len = arrays_of_stream w.w_stream in
      (* the flat and the repacked+fused layouts, built afresh per call *)
      let layouts () =
        let _, imgs = variants w addrs ~len in
        (List.hd imgs, List.nth imgs 2)
      in
      let from_img, to_img = layouts () in
      let rand = Random.State.make [| seed |] in
      let n = 3 in
      (* replayer [k] replays the stream rotated by [k * len / n] *)
      let streams =
        Array.init n (fun k ->
            let r = k * len / n in
            let rot a = Array.init len (fun i -> a.((i + r) mod len)) in
            (rot addrs, rot insns))
      in
      let pos = Array.make n 0 and sched = ref [] in
      while Array.exists (fun p -> p < len) pos do
        let k = Random.State.int rand n in
        let b = min (1 + Random.State.int rand 7) (len - pos.(k)) in
        if b > 0 then begin
          sched := (k, pos.(k), b) :: !sched;
          pos.(k) <- pos.(k) + b
        end
      done;
      let sched = List.rev !sched in
      let at = Random.State.int rand (List.length sched + 1) in
      let shared_from = Compile.compile from_img
      and shared_to = Compile.compile to_img in
      let shared = Array.init n (fun _ -> Replayer.create_compiled shared_from) in
      let alone () =
        let f, t = layouts () in
        (compiled_make f, Replayer.Compiled (Compile.compile t))
      in
      let own = Array.init n (fun _ -> alone ()) in
      let step = Array.init n (fun _ -> alone ()) in
      List.iteri
        (fun i (k, off, b) ->
          if i = at then
            for j = 0 to n - 1 do
              Replayer.rebind shared.(j) (Replayer.Compiled shared_to);
              Replayer.rebind (fst own.(j)) (snd own.(j));
              Replayer.rebind (fst step.(j)) (snd step.(j))
            done;
          let a, ins = streams.(k) in
          Replayer.feed_run shared.(k) ~off ~insns:ins a ~len:b;
          Replayer.feed_run (fst own.(k)) ~off ~insns:ins a ~len:b;
          for j = off to off + b - 1 do
            Replayer.feed_addr (fst step.(k)) ~insns:ins.(j) a.(j)
          done)
        sched;
      let same a b =
        Replayer.snapshot a = Replayer.snapshot b
        && Replayer.cycles a = Replayer.cycles b
        && counters_of from_img a = counters_of from_img b
        && Replayer.state a = Replayer.state b
      in
      List.for_all
        (fun k -> same shared.(k) (fst own.(k)) && same shared.(k) (fst step.(k)))
        (List.init n Fun.id))

(* Two domains replaying one compiled image at the same time, in short
   batches so both keep crossing every closure shape: each result equals
   the same replay run alone. *)
let test_shared_image_domains () =
  let flat, starts, insns, len = listscan_fixture () in
  let tuned =
    let r = Repack.repack flat (Repack.collect flat starts ~len) in
    Fuse.fuse r
  in
  List.iter
    (fun img ->
      let c = Compile.compile img in
      let rot r a = Array.init len (fun i -> a.((i + r) mod len)) in
      let replay r =
        let a = rot r starts and ins = rot r insns in
        let rep = Replayer.create_compiled c in
        for _ = 1 to 4 do
          let off = ref 0 in
          while !off < len do
            let b = min 61 (len - !off) in
            Replayer.feed_run rep ~off:!off ~insns:ins a ~len:b;
            off := !off + b
          done
        done;
        (Replayer.snapshot rep, Replayer.cycles rep, counters_of img rep)
      in
      let alone = List.map replay [ 0; len / 3 ] in
      let d = List.map (fun r -> Domain.spawn (fun () -> replay r)) [ 0; len / 3 ] in
      let together = List.map Domain.join d in
      check Alcotest.bool "concurrent == alone" true (alone = together))
    [ flat; tuned ]

(* ---------------- high fan-out images ----------------

   Images built straight from raw arrays, so every span shape the
   transition loop resolves occurs: each state, NTE included, gets 0..12
   edges (a third of them a single edge instead, so chains form), any
   edge may target NTE, and a random subset of PCs are trace heads. The
   stream walks the image, mostly taking one of the current state's
   edges, otherwise any PC of the pool — a head, another state's label,
   or one no table knows. *)

let fan_pool = 16

let fan_pc i = 0x4000 + (0x10 * i)

type fan = { f_img : Packed.t; f_addrs : int array; f_insns : int array }

let gen_fan rand =
  let open QCheck.Gen in
  let n = int_range 2 14 rand in
  let spans =
    Array.init n (fun _ ->
        let deg = if int_range 0 2 rand = 0 then 1 else int_range 0 12 rand in
        let pool = Array.init fan_pool Fun.id in
        shuffle_a pool rand;
        let labels = Array.sub pool 0 deg in
        Array.sort compare labels;
        Array.map
          (fun l ->
            (fan_pc l, if int_range 0 3 rand = 0 then Automaton.nte else int_range 1 (n - 1) rand))
          labels)
  in
  let offsets = Array.make (n + 1) 0 in
  Array.iteri (fun s sp -> offsets.(s + 1) <- offsets.(s) + Array.length sp) spans;
  let edges = Array.concat (Array.to_list spans) in
  let heads =
    List.filter_map
      (fun l -> if int_range 0 2 rand = 0 then Some (fan_pc l, int_range 1 (n - 1) rand) else None)
      (List.init fan_pool Fun.id)
  in
  let hash_keys, hash_vals = Packed.build_hash heads n in
  let img =
    Packed.of_raw
      {
        Packed.offsets;
        labels = Array.map fst edges;
        targets = Array.map snd edges;
        state_trace = Array.init n (fun s -> if s = Automaton.nte then -1 else 0);
        state_tbb = Array.init n Fun.id;
        state_start = Array.init n (fun s -> if s = Automaton.nte then 0 else fan_pc s);
        state_insns = Array.init n (fun s -> if s = Automaton.nte then 0 else 1 + (s mod 3));
        hash_keys;
        hash_vals;
        hot_len = Array.make n 0;
        orig_of = Array.init n Fun.id;
      }
  in
  let len = int_range 0 300 rand in
  let counts = Array.make (Packed.n_counters img) 0 and cycles = ref 0 in
  let st = ref Automaton.nte in
  let f_addrs =
    Array.init len (fun _ ->
        let sp = spans.(!st) in
        let pc =
          if Array.length sp > 0 && int_range 0 9 rand < 7 then
            fst sp.(int_range 0 (Array.length sp - 1) rand)
          else fan_pc (int_range 0 (fan_pool + 1) rand)
        in
        st := Packed.step img counts cycles !st pc;
        pc)
  in
  { f_img = img; f_addrs; f_insns = Array.init len (fun _ -> int_range 0 4 rand) }

let arb_fan =
  QCheck.make
    ~print:(fun f ->
      Printf.sprintf "slots=%d edges=%d stream=%d" (Packed.n_slots f.f_img)
        (Packed.n_edges f.f_img) (Array.length f.f_addrs))
    gen_fan

(* flat, repacked, and both fused with single-member chains allowed, so
   as many states as possible sit behind a matcher *)
let fan_variants f =
  let len = Array.length f.f_addrs in
  let tuned = Repack.repack f.f_img (Repack.collect f.f_img f.f_addrs ~len) in
  [ f.f_img; tuned; Fuse.fuse ~min_chain:1 f.f_img; Fuse.fuse ~min_chain:1 tuned ]

(* The loop's scan and inline hash probe against {!Packed.step} one
   block at a time: raw counters and cycles straight from the step, the
   snapshot and state from a replayer stepping it; the compiled side
   runs the whole stream in one batch and again chopped into batches of
   1..9 blocks. *)
let prop_fanout_equals_step =
  QCheck.Test.make ~name:"fan-out 0-12: compiled == Packed.step" ~count:200
    (QCheck.pair arb_fan (QCheck.int_range 1 9))
    (fun (f, batch) ->
      let batch = max 1 batch in
      let addrs = f.f_addrs and insns = f.f_insns in
      let len = Array.length addrs in
      List.for_all
        (fun img ->
          let counts = Array.make (Packed.n_counters img) 0 and cycles = ref 0 in
          let st = ref Automaton.nte in
          Array.iter (fun pc -> st := Packed.step img counts cycles !st pc) addrs;
          let one = stepped img ~insns addrs ~len in
          let whole = compiled_replayer img ~insns addrs ~len in
          let chopped = compiled_make img in
          let off = ref 0 in
          while !off < len do
            let n = min batch (len - !off) in
            Replayer.feed_run chopped ~off:!off ~insns addrs ~len:n;
            off := !off + n
          done;
          List.for_all
            (fun rep ->
              counters_of img rep = counts
              && Replayer.cycles rep = !cycles
              && Replayer.state rep = !st
              && Replayer.snapshot rep = Replayer.snapshot one)
            [ whole; chopped ])
        (fan_variants f))

(* The generator reaches what the property is for: over a fixed sample,
   every degree 0..12 occurs both touching NTE (as source or target) and
   not, chains form, and a chain member sees a PC off its chain (the
   matcher's zero-length fall-through into the loop). *)
let test_fan_coverage () =
  let rand = Random.State.make [| 7 |] in
  let nte_deg = Array.make 13 false and plain_deg = Array.make 13 false in
  let falls = ref 0 in
  for _ = 1 to 300 do
    let f = gen_fan rand in
    let raw = Packed.to_raw f.f_img in
    for s = 0 to Packed.n_slots f.f_img - 1 do
      let lo = raw.Packed.offsets.(s) and hi = raw.Packed.offsets.(s + 1) in
      let touches = ref (s = Automaton.nte) in
      for e = lo to hi - 1 do
        if raw.Packed.targets.(e) = Automaton.nte then touches := true
      done;
      (if !touches then nte_deg else plain_deg).(hi - lo) <- true
    done;
    let fused = Fuse.fuse ~min_chain:1 f.f_img in
    match Packed.fusion_of fused with
    | None -> ()
    | Some fu ->
        let counts = Array.make (Packed.n_counters fused) 0 in
        let st = ref Automaton.nte in
        Array.iter
          (fun pc ->
            if fu.Packed.fchain.(!st) >= 0 && pc <> raw.Packed.labels.(raw.Packed.offsets.(!st))
            then incr falls;
            st := Packed.step fused counts (ref 0) !st pc)
          f.f_addrs
  done;
  check Alcotest.(array bool) "every degree touches NTE" (Array.make 13 true) nte_deg;
  check Alcotest.(array bool) "every degree stays in-trace" (Array.make 13 true) plain_deg;
  check Alcotest.bool "chain members fall through" true (!falls > 0)

(* ---------------- sharded replay through compiled workers ------------ *)

let prop_sharded_compiled_replay =
  QCheck.Test.make ~name:"compiled shards: jobs 1/2/4 == sequential" ~count:15
    gen_workload (fun w ->
      let addrs, insns, len = arrays_of_stream w.w_stream in
      let _, imgs = variants w addrs ~len in
      List.for_all
        (fun img ->
          let pseq = Profile.of_replayer (stepped img ~insns addrs ~len) in
          List.for_all
            (fun jobs ->
              let pn =
                Pool.with_pool ~jobs (fun pool ->
                    Shard.replay_arrays pool img ~make:compiled_make ~insns
                      addrs ~len)
              in
              Profile.equal pseq pn)
            [ 1; 2; 4 ])
        imgs)

(* ---------------- multi-asid demux through compiled engines ---------- *)

let with_tmp f =
  let path = Filename.temp_file "tea_test_compile" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* Two asids with independent automata, interleaved with invalidations
   (SMC) in one PCTR3 stream: demuxed replay through per-asid compiled
   engines must produce exactly the snapshots of replaying each asid's
   projection in isolation, one event (so one {!Packed.step}) at a time,
   and Shard.replay_events with compiled replayers must give them too. *)
let prop_multi_asid_compiled =
  QCheck.Test.make ~name:"multi-asid demux: compiled == packed" ~count:25
    (QCheck.pair gen_workload gen_workload)
    (fun (w0, w1) ->
      QCheck.assume
        (w0.w_stream <> [] && w1.w_stream <> []);
      let img_of w =
        let addrs, _, len = arrays_of_stream w.w_stream in
        let flat = Packed.freeze (Builder.build w.w_traces) in
        Repack.repack flat (Repack.collect flat addrs ~len)
      in
      let imgs = [| img_of w0; img_of w1 |] in
      let stream_of asid w =
        let starts, insns, len = arrays_of_stream w.w_stream in
        Scenario.stream ~asid ~name:"gen" ~starts ~insns ~len
      in
      let scn emit =
        Scenario.interleave ~quantum:3 [ stream_of 0 w0; stream_of 1 w1 ] emit;
        (* then a second, self-modifying pass of asid 0's stream *)
        emit (Tea_core.Pc_trace.Switch { asid = 0 });
        Scenario.smc ~period:17 (stream_of 0 w0) emit
      in
      with_tmp (fun path ->
          let _ = Scenario.write_file path scn in
          let packed_for asid = imgs.(asid) in
          let make asid = compiled_make (packed_for asid) in
          let want = Multi.replay_isolated make path in
          let got = Multi.snapshots (Multi.replay_events make path) in
          let sharded =
            Pool.with_pool ~jobs:2 (fun pool ->
                Shard.replay_events pool packed_for ~make:compiled_make path)
          in
          want = got
          && List.for_all2
               (fun (a1, s1) (a2, p2) -> a1 = a2 && Profile.equal s1 p2)
               want sharded))

(* ---------------- dispatch-tier partition ---------------- *)

(* A compiled replay attributes every block to exactly one of the
   compiled, hash and miss tiers: the counters' tiers partition the
   batch, and an installed tally's totals are the same. *)
let test_tier_partition () =
  let w =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 42 |]) (QCheck.gen gen_workload)
  in
  let addrs, insns, len = arrays_of_stream w.w_stream in
  let _, imgs = variants w addrs ~len in
  List.iter
    (fun img ->
      Tierstat.install ();
      let rep, installed =
        match compiled_replayer img ~insns addrs ~len with
        | rep -> (rep, Tierstat.uninstall ())
        | exception e ->
            ignore (Tierstat.uninstall ());
            raise e
      in
      let snap = Replayer.tiers rep in
      check Alcotest.int "tiers partition the batch" len (Tierstat.total snap);
      check
        Alcotest.(array int)
        "installed totals == counter totals" snap.Tierstat.ts_totals
        installed.Tierstat.ts_totals)
    imgs

(* ---------------- image statistics on a real capture ---------------- *)

let test_image_stats () =
  let flat, starts, insns, len = listscan_fixture () in
  let tuned = Repack.repack flat (Repack.collect flat starts ~len) in
  let c = Compile.compile tuned in
  (* every slot no chain fronts dispatches in the one transition loop:
     the only other closures are the chain matchers *)
  check Alcotest.int "every unchained slot is a region slot"
    (1 + Compiled.chained_states c)
    (Compiled.n_closures c);
  (* listscan is bimodal-branchy: its loop states resolve by the
     region's inline compares, not behind chain matchers *)
  check Alcotest.bool "region states found" true (Compiled.region_states c > 0);
  let d = Compile.describe c in
  check Alcotest.bool "describe mentions the region" true
    (let needle = "straight-line region states" in
     let rec has i =
       i + String.length needle <= String.length d
       && (String.sub d i (String.length needle) = needle || has (i + 1))
     in
     has 0);
  (* engine tag *)
  let rep = Replayer.create_compiled c in
  check Alcotest.bool "compiled engine reported" true
    (match Replayer.engine rep with
    | Replayer.Compiled _ -> true
    | _ -> false);
  (* compiled_replay: end-to-end identity on the capture *)
  let _, baseline, tuned_rep = Compile.compiled_replay flat ~insns starts ~len in
  check Alcotest.bool "capture replay identical" true
    (Replayer.snapshot baseline = Replayer.snapshot tuned_rep)

let () =
  Alcotest.run "tea_compile"
    [
      ( "differential",
        [
          qtest prop_compiled_is_identity;
          qtest prop_compiled_equals_reference;
          qtest prop_compiled_feed_addr;
          Alcotest.test_case "negative block addresses" `Quick test_negative_addresses;
          qtest prop_negative_addresses;
          qtest prop_sharded_compiled_replay;
          qtest prop_multi_asid_compiled;
          qtest prop_shared_image;
          qtest prop_fanout_equals_step;
          Alcotest.test_case "fan-out generator coverage" `Quick test_fan_coverage;
          Alcotest.test_case "two domains, one image" `Quick
            test_shared_image_domains;
        ] );
      ( "attribution",
        [ Alcotest.test_case "tier partition" `Quick test_tier_partition ] );
      ( "image",
        [ Alcotest.test_case "stats and describe" `Quick test_image_stats ] );
    ]

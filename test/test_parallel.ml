(* The parallel replay driver: the Domain pool, the mergeable Profile
   algebra, and Shard's array and PC-trace file replay. The headline
   property is exactness — replay through Shard at any domain count must
   give the bit-identical profile of the address-at-a-time sequential run
   (per-state counts, coverage, enter/exit counters, stats and simulated
   cycles) for any workload. *)

open Tea_isa
module I = Insn
module Block = Tea_cfg.Block
module Trace = Tea_traces.Trace
module Automaton = Tea_core.Automaton
module Builder = Tea_core.Builder
module Packed = Tea_core.Packed
module Compiled = Tea_core.Compiled
module Replayer = Tea_core.Replayer
module Pc_trace = Tea_core.Pc_trace
module Multi_replayer = Tea_core.Multi_replayer
module Pool = Tea_parallel.Pool
module Profile = Tea_parallel.Profile
module Shard = Tea_parallel.Shard
module Probe = Tea_telemetry.Probe
module Span = Tea_telemetry.Span

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let block_at addr = Block.make Block.Branch [ (addr, I.Jmp (I.Abs 0)) ]

(* Fixtures shared with test_core/test_packed: T1 cycles
   0x100->0x200->0x300->0x100, T2 chains 0x400->0x300. *)
let t1 =
  Trace.linear ~id:0 ~kind:"test" ~cycle:true
    [ block_at 0x100; block_at 0x200; block_at 0x300 ]

let t2 = Trace.linear ~id:1 ~kind:"test" [ block_at 0x400; block_at 0x300 ]

let fixture_packed () = Packed.freeze (Builder.build [ t1; t2 ])

let compiled img = Replayer.create_compiled (Compiled.of_packed img)

(* A looping stream over the fixture: in-trace runs, cross-trace hops and
   cold blocks (0x999 and 0x555 are in no trace). *)
let fixture_stream n =
  let lap = [ 0x100; 0x200; 0x300; 0x100; 0x999; 0x400; 0x300; 0x555 ] in
  Array.init n (fun i -> List.nth lap (i mod List.length lap))

(* ---------------- Pool ---------------- *)

let test_pool_map_order () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let calls = Atomic.make 0 in
      let r =
        Pool.map pool
          ~f:(fun i ->
            Atomic.incr calls;
            i * i)
          100
      in
      check (Alcotest.array Alcotest.int) "squares in index order"
        (Array.init 100 (fun i -> i * i))
        r;
      check Alcotest.int "every task ran exactly once" 100 (Atomic.get calls))

let test_pool_inline () =
  Pool.with_pool ~jobs:1 (fun pool ->
      check Alcotest.int "jobs" 1 (Pool.jobs pool);
      let self = Domain.self () in
      let r = Pool.map pool ~f:(fun i -> (Domain.self () = self, i + 1)) 5 in
      check
        Alcotest.(array (pair bool int))
        "inline results, on the caller's domain"
        [| (true, 1); (true, 2); (true, 3); (true, 4); (true, 5) |]
        r;
      check Alcotest.int "one stat entry: the callers'" 1
        (List.length (Pool.domain_stats pool)))

let test_pool_map_list () =
  Pool.with_pool ~jobs:2 (fun pool ->
      check (Alcotest.list Alcotest.string) "order preserved"
        [ "a!"; "b!"; "c!" ]
        (Pool.map_list pool (fun s -> s ^ "!") [ "a"; "b"; "c" ]))

let test_pool_exception () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.check_raises "task exception reaches the caller"
            (Failure "boom")
            (fun () ->
              ignore
                (Pool.map pool
                   ~f:(fun i -> if i = 5 then failwith "boom" else i)
                   10));
          (* the pool survives a failed map *)
          let r = Pool.map pool ~f:(fun i -> i) 4 in
          check (Alcotest.array Alcotest.int) "reusable after failure"
            [| 0; 1; 2; 3 |] r))
    [ 1; 2 ]

(* A one-task batch runs on the caller at every jobs: no worker is woken,
   so no worker's busy time moves, and a failure leaves the pool usable. *)
let test_pool_single_task_inline () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          (* every entry but the last, the callers' *)
          let workers () =
            List.rev (List.tl (List.rev (Pool.domain_stats pool)))
            |> List.map (fun d -> d.Pool.d_busy)
          in
          (* a multi-task batch first, so the workers have run *)
          ignore (Pool.map pool ~f:(fun i -> i) 8);
          let before = workers () in
          let self = Domain.self () in
          let r = Pool.map pool ~f:(fun i -> (Domain.self () = self, i)) 1 in
          check Alcotest.bool "ran on the caller's domain" true (fst r.(0));
          Alcotest.check_raises "one-task exception reaches the caller"
            (Failure "lone") (fun () ->
              ignore (Pool.map pool ~f:(fun _ -> failwith "lone") 1));
          check (Alcotest.array Alcotest.int) "reusable after a lone failure"
            [| 42 |]
            (Pool.map pool ~f:(fun _ -> 42) 1);
          check
            Alcotest.(list (float 0.0))
            "no worker ran a lone task" before (workers ())))
    [ 2; 4 ]

let test_pool_shutdown () =
  let pool = Pool.create ~jobs:2 in
  ignore (Pool.map pool ~f:(fun i -> i) 3);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool ~f:(fun i -> i) 1));
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0))

(* Pool lifecycle hardening: several driver domains mapping on one pool
   at once, in batches of 20 and of one (each map owns a private batch
   counter, and a caller may run another caller's task), and shutdown
   racing shutdown (exactly one caller joins the workers). *)
let test_pool_concurrent_drivers () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let driver d () =
            for round = 1 to 25 do
              let r = Pool.map pool ~f:(fun i -> (d * 1000) + (round * i)) 20 in
              let expect = Array.init 20 (fun i -> (d * 1000) + (round * i)) in
              if r <> expect then
                Alcotest.failf "driver %d round %d: wrong batch results" d round;
              if Pool.map pool ~f:(fun i -> (d * 1000) + round + i) 1
                 <> [| (d * 1000) + round |]
              then Alcotest.failf "driver %d round %d: wrong one-task result" d round
            done
          in
          let ds = List.init 3 (fun d -> Domain.spawn (driver (d + 1))) in
          driver 0 ();
          List.iter Domain.join ds))
    [ 1; 2 ]

let test_pool_concurrent_shutdown () =
  let pool = Pool.create ~jobs:2 in
  ignore (Pool.map pool ~f:(fun i -> i) 8);
  let ds = List.init 4 (fun _ -> Domain.spawn (fun () -> Pool.shutdown pool)) in
  Pool.shutdown pool;
  List.iter Domain.join ds;
  Alcotest.check_raises "map after concurrent shutdown"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool ~f:(fun i -> i) 1))

(* ---------------- Profile ---------------- *)

let run_profile stream =
  let rep = compiled (fixture_packed ()) in
  Array.iter (fun a -> Replayer.feed_addr rep ~insns:1 a) stream;
  (Profile.of_replayer rep, rep)

let profile = Alcotest.testable Profile.pp Profile.equal

let test_of_replayer () =
  let p, rep = run_profile (fixture_stream 40) in
  check Alcotest.int "covered" (Replayer.covered_insns rep) p.Profile.covered;
  check Alcotest.int "total" (Replayer.total_insns rep) p.Profile.total;
  check Alcotest.int "enters" (Replayer.trace_enters rep) p.Profile.enters;
  check Alcotest.int "exits" (Replayer.trace_exits rep) p.Profile.exits;
  check Alcotest.int "cycles" (Replayer.cycles rep) p.Profile.cycles;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "counts" (Replayer.tbb_counts rep) p.Profile.counts;
  check Alcotest.int "steps" (Replayer.stats rep).Tea_core.Transition.steps
    p.Profile.steps

let test_profile_merge_identity () =
  let p, _ = run_profile (fixture_stream 33) in
  check profile "left identity" p (Profile.merge Profile.empty p);
  check profile "right identity" p (Profile.merge p Profile.empty);
  check profile "merge_all" p (Profile.merge_all [ Profile.empty; p ])

let test_profile_merge_assoc_comm () =
  let a, _ = run_profile (fixture_stream 17) in
  let b, _ = run_profile (fixture_stream 40) in
  let c, _ = run_profile (Array.map (fun x -> x + 0x10) (fixture_stream 9)) in
  check profile "commutative" (Profile.merge a b) (Profile.merge b a);
  check profile "associative"
    (Profile.merge (Profile.merge a b) c)
    (Profile.merge a (Profile.merge b c));
  let m = Profile.merge a b in
  check (Alcotest.float 1e-9) "coverage"
    (float_of_int m.Profile.covered /. float_of_int m.Profile.total)
    (Profile.coverage m)

(* Splitting one replay at an arbitrary point and carrying the state
   across with [set_state] must merge back to the whole-run profile: the
   profile algebra is additive over disjoint step ranges. *)
let test_profile_split_merge () =
  let stream = fixture_stream 50 in
  let whole, _ = run_profile stream in
  List.iter
    (fun k ->
      let rep_a = compiled (fixture_packed ()) in
      Array.iteri
        (fun i a -> if i < k then Replayer.feed_addr rep_a ~insns:1 a)
        stream;
      let rep_b = compiled (fixture_packed ()) in
      Replayer.set_state rep_b (Replayer.state rep_a);
      Array.iteri
        (fun i a -> if i >= k then Replayer.feed_addr rep_b ~insns:1 a)
        stream;
      check profile
        (Printf.sprintf "split at %d == whole" k)
        whole
        (Profile.merge (Profile.of_replayer rep_a) (Profile.of_replayer rep_b)))
    [ 0; 1; 13; 25; 49; 50 ]

(* ---------------- Random workloads (same shape as test_packed) -------- *)

let pool_size = 16

let pool_addr i = 0x1000 + (0x10 * (i mod (pool_size + 4)))

let gen_trace id rand =
  let open QCheck.Gen in
  let n = int_range 1 6 rand in
  let idxs = Array.init n (fun _ -> int_range 0 (pool_size - 1) rand) in
  let blocks = Array.map (fun i -> block_at (pool_addr i)) idxs in
  let succs =
    Array.init n (fun _ ->
        let k = int_range 0 3 rand in
        let chosen = List.init k (fun _ -> int_range 0 (n - 1) rand) in
        let seen = Hashtbl.create 4 in
        List.filter
          (fun j ->
            let label = pool_addr idxs.(j) in
            if Hashtbl.mem seen label then false
            else begin
              Hashtbl.add seen label ();
              true
            end)
          chosen)
  in
  Trace.make ~id ~kind:"gen" blocks succs

type workload = { w_traces : Trace.t list; w_stream : (int * int) list }

let gen_workload =
  let open QCheck.Gen in
  let gen rand =
    let n_traces = int_range 1 5 rand in
    let w_traces = List.init n_traces (fun id -> gen_trace id rand) in
    let n_steps = int_range 0 400 rand in
    let w_stream =
      List.init n_steps (fun _ ->
          (pool_addr (int_range 0 (pool_size + 3) rand), int_range 0 4 rand))
    in
    { w_traces; w_stream }
  in
  QCheck.make
    ~print:(fun w ->
      Printf.sprintf "traces=%d stream=%d"
        (List.length w.w_traces) (List.length w.w_stream))
    gen

(* The oracle: the image stepped one address at a time. *)
let sequential_profile packed ~starts ~insns ~len =
  let rep = compiled packed in
  for i = 0 to len - 1 do
    Replayer.feed_addr rep ~insns:insns.(i) starts.(i)
  done;
  Profile.of_replayer rep

(* Shard replay == address-at-a-time replay, exactly, for 1, 2 and 4
   domains — whatever the automaton and stream. *)
let prop_shard_equals_sequential =
  QCheck.Test.make ~name:"sharded parallel replay == sequential (jobs 1/2/4)"
    ~count:60 gen_workload (fun w ->
      let auto = Builder.build w.w_traces in
      if Automaton.check_deterministic auto <> Ok () then
        QCheck.Test.fail_report "generated automaton not deterministic";
      let packed = Packed.freeze auto in
      let starts = Array.of_list (List.map fst w.w_stream) in
      let insns = Array.of_list (List.map snd w.w_stream) in
      let len = Array.length starts in
      let seq = sequential_profile packed ~starts ~insns ~len in
      List.for_all
        (fun jobs ->
          let par =
            Pool.with_pool ~jobs (fun pool ->
                Shard.replay_arrays pool packed ~insns starts ~len)
          in
          if Profile.equal seq par then true
          else
            QCheck.Test.fail_reportf "jobs=%d: %a <> %a" jobs Profile.pp par
              Profile.pp seq)
        [ 1; 2; 4 ])

let test_shard_fixture () =
  let packed = fixture_packed () in
  let starts = fixture_stream 1000 in
  let insns = Array.make 1000 1 in
  let seq = sequential_profile packed ~starts ~insns ~len:1000 in
  Pool.with_pool ~jobs:4 (fun pool ->
      let par = Shard.replay_arrays pool packed ~insns starts ~len:1000 in
      check profile "4-way shard == sequential" seq par)

let test_shard_validation () =
  let packed = fixture_packed () in
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.check_raises "len out of range"
        (Invalid_argument "Shard.replay_arrays: len out of range") (fun () ->
          ignore (Shard.replay_arrays pool packed [| 0x100 |] ~len:2));
      Alcotest.check_raises "short insns"
        (Invalid_argument "Shard.replay_arrays: insns array shorter than len")
        (fun () ->
          ignore
            (Shard.replay_arrays pool packed ~insns:[||] [| 0x100 |] ~len:1));
      (* empty stream: trivially equal to sequential *)
      check profile "empty stream" Profile.empty
        (Shard.replay_arrays pool packed [||] ~len:0))

let test_shard_pc_trace () =
  let path = Filename.temp_file "tea_test_parallel" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Pc_trace.open_writer path in
      let starts = fixture_stream 700 in
      Array.iter (fun a -> Pc_trace.write w ~start:a ~insns:2) starts;
      Pc_trace.close_writer w;
      let packed = fixture_packed () in
      let seq =
        sequential_profile packed ~starts ~insns:(Array.make 700 2) ~len:700
      in
      List.iter
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              let par, blocks = Shard.replay_pc_trace pool packed path in
              check Alcotest.int "block count" 700 blocks;
              check profile
                (Printf.sprintf "jobs %d: pc-trace file == sequential" jobs)
                seq par))
        [ 1; 3 ])

(* ---------------- Pipelined offline replay ----------------

   On a pool of two or more jobs, Shard's file replays decode on the
   caller and replay on a worker, through a Multi_replayer relay of 8
   slots of 4096 blocks, for files of at least that many bytes; smaller
   files replay on the caller. Whatever the format, interleaving, cuts
   and damage, the result must be the inline (jobs 1) one: the same
   profiles, or the same [Corrupt] message, and the pool replays
   correctly afterwards. *)

let ring_blocks = Multi_replayer.relay_blocks

let with_trace_file f =
  let path = Filename.temp_file "tea_test_relay" ".trc" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* [len] blocks of the fixture's looping stream in [fmt]; a v3 stream
   also switches among asids 0-3 and carries invalidations and
   interrupts, all drawn from [seed]. *)
let write_relay_stream path ~fmt ~len ~seed =
  let rand = Random.State.make [| seed |] in
  let w = Pc_trace.open_writer ~format:fmt path in
  let lap = fixture_stream 8 in
  for i = 0 to len - 1 do
    if fmt = Pc_trace.V3 then begin
      match Random.State.int rand 40 with
      | 0 | 1 -> Pc_trace.switch_asid w (Random.State.int rand 4)
      | 2 -> Pc_trace.invalidate w (Random.State.int rand 4)
      | 3 -> Pc_trace.interrupt w
      | _ -> ()
    end;
    let start =
      if Random.State.int rand 50 = 0 then 0x999 + Random.State.int rand 4
      else lap.(i mod 8)
    in
    Pc_trace.write w ~start ~insns:(Random.State.int rand 4)
  done;
  Pc_trace.close_writer w

(* Truncate the file, keeping at least [ring_blocks] bytes of a file that
   has them, so it still goes through the relay; or flip one of its
   bits. *)
let damage_file path ~seed kind =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let rand = Random.State.make [| seed; 1 |] in
  let n = String.length s in
  let s =
    match kind with
    | `Cut ->
        let keep = if n >= ring_blocks then ring_blocks else 0 in
        String.sub s 0 (keep + Random.State.int rand (n - keep + 1))
    | `Flip when n > 0 ->
        let b = Bytes.of_string s and i = Random.State.int rand n in
        Bytes.set b i
          (Char.chr (Char.code s.[i] lxor (1 lsl Random.State.int rand 8)));
        Bytes.to_string b
    | `Flip | `Whole -> s
  in
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let corrupt_or f =
  match f () with v -> Ok v | exception Pc_trace.Corrupt m -> Error m

(* Both Shard file replays of [path] on [pool]. *)
let shard_replays pool path =
  let packed = fixture_packed () in
  ( corrupt_or (fun () -> Shard.replay_pc_trace pool packed path),
    corrupt_or (fun () -> Shard.replay_events pool (fun _ -> packed) path) )

(* The [Pool.map] batches [f] opens, counted on a span sink. *)
let with_map_count f =
  let sink = Span.create () in
  Probe.install ~spans:sink ();
  Fun.protect ~finally:(fun () -> ignore (Probe.uninstall ())) @@ fun () ->
  f (fun () ->
      List.length
        (List.filter (fun e -> e.Span.e_name = "pool.map") (Span.events sink)))

(* [shard_replays] and the number of [Pool.map] batches they opened. *)
let shard_replays_maps maps pool path =
  let before = maps () in
  let r = shard_replays pool path in
  (r, maps () - before)

let replays_equal (single_a, events_a) (single_b, events_b) =
  let single =
    match (single_a, single_b) with
    | Ok (p, n), Ok (q, m) -> n = m && Profile.equal p q
    | Error a, Error b -> a = b
    | _ -> false
  in
  let events =
    match (events_a, events_b) with
    | Ok a, Ok b ->
        List.length a = List.length b
        && List.for_all2 (fun (x, p) (y, q) -> x = y && Profile.equal p q) a b
    | Error a, Error b -> a = b
    | _ -> false
  in
  single && events

(* Every block record takes at least one byte, so these files all reach
   the relay. *)
let gen_relay_case =
  let open QCheck.Gen in
  let len =
    map (( + ) ring_blocks)
      (frequency
         [ (2, oneofl [ 0; 1; 4095; 4096; 4097 ]);
           (1, oneofl [ ring_blocks; (2 * ring_blocks) + 1 ]);
           (3, int_range 0 20_000) ])
  in
  quad
    (oneofl [ Pc_trace.V1; Pc_trace.V2; Pc_trace.V3 ])
    len nat
    (frequencyl [ (3, `Whole); (1, `Cut); (1, `Flip) ])

let print_relay_case (fmt, len, seed, dmg) =
  Printf.sprintf "%s, %d blocks, seed %d, %s"
    (match fmt with Pc_trace.V1 -> "v1" | V2 -> "v2" | V3 -> "v3")
    len seed
    (match dmg with `Whole -> "whole" | `Cut -> "truncated" | `Flip -> "bit-flipped")

let test_relay_equals_inline () =
  with_map_count @@ fun maps ->
  Pool.with_pool ~jobs:1 @@ fun p1 ->
  Pool.with_pool ~jobs:2 @@ fun p2 ->
  Pool.with_pool ~jobs:4 @@ fun p4 ->
  (* a good v3 file every case replays afterwards, on the same pools *)
  with_trace_file @@ fun good ->
  write_relay_stream good ~fmt:Pc_trace.V3 ~len:(ring_blocks + 17) ~seed:7;
  let good_inline = shard_replays p1 good in
  QCheck.Test.check_exn
    (QCheck.Test.make
       ~name:"Shard file replays on pools of 2 and 4 == a pool of 1" ~count:60
       (QCheck.make ~print:print_relay_case gen_relay_case)
       (fun (fmt, len, seed, dmg) ->
         with_trace_file @@ fun path ->
         write_relay_stream path ~fmt ~len ~seed;
         damage_file path ~seed dmg;
         let inline = shard_replays p1 path in
         (* each of the two replays maps its decode and replay tasks *)
         let relayed pool path =
           let r, n = shard_replays_maps maps pool path in
           if n <> 2 then
             QCheck.Test.fail_reportf "jobs %d: %d pool maps, not the relay's 2"
               (Pool.jobs pool) n;
           r
         in
         List.for_all
           (fun pool ->
             replays_equal inline (relayed pool path)
             || QCheck.Test.fail_reportf "jobs %d differs from jobs 1"
                  (Pool.jobs pool))
           [ p2; p4 ]
         && List.for_all
              (fun pool ->
                replays_equal good_inline (relayed pool good)
                || QCheck.Test.fail_reportf "jobs %d: a good file replays wrong afterwards"
                     (Pool.jobs pool))
              [ p2; p4 ]))

(* A file of fewer bytes than the ring holds blocks replays on the
   caller at any job count, mapping no task; one of that many bytes or
   more goes through the relay. Past the first
   lap, every block of the fixture's stream is a one-byte token, so a
   file of any size from a few dozen bytes on is written exactly. *)
let test_small_file_inline () =
  with_trace_file @@ fun path ->
  let write blocks =
    let w = Pc_trace.open_writer path in
    Array.iter (fun start -> Pc_trace.write w ~start ~insns:1) (fixture_stream blocks);
    Pc_trace.close_writer w;
    (Unix.stat path).Unix.st_size
  in
  let lap = write 16 in
  with_map_count @@ fun maps ->
  Pool.with_pool ~jobs:1 @@ fun p1 ->
  List.iter
    (fun bytes ->
      check Alcotest.int "file size" bytes (write (16 + bytes - lap));
      let inline = shard_replays p1 path in
      List.iter
        (fun jobs ->
          Pool.with_pool ~jobs @@ fun pool ->
          let got, n = shard_replays_maps maps pool path in
          check Alcotest.bool
            (Printf.sprintf "%d bytes, jobs %d == jobs 1" bytes jobs)
            true (replays_equal inline got);
          check Alcotest.int
            (Printf.sprintf "%d bytes, jobs %d: pool maps" bytes jobs)
            (if bytes < ring_blocks then 0 else 2)
            n)
        [ 2; 4 ])
    [ ring_blocks - 1; ring_blocks; ring_blocks + 1 ]

(* Other callers' batches hold every worker of a jobs-2 pool, so the
   replay's consumer task cannot start on one: the replay's caller
   decodes, its producer replays every run itself, and the caller then
   runs the drained consumer. A producer that waited for the consumer
   would hang here (the test gives up after a minute). *)
let test_relay_held_worker () =
  with_trace_file @@ fun path ->
  let len = (3 * ring_blocks) + 5 in
  write_relay_stream path ~fmt:Pc_trace.V2 ~len ~seed:3;
  let packed = fixture_packed () in
  let inline =
    Pool.with_pool ~jobs:1 (fun p -> Shard.replay_pc_trace p packed path)
  in
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let release = Atomic.make false in
  let wait_for a =
    while not (Atomic.get a) do
      Unix.sleepf 0.001
    done
  in
  (* each holder's caller runs its task 0 until a worker has taken its
     task 1, which holds that worker *)
  let holder () =
    let held = Atomic.make false in
    let d =
      Domain.spawn (fun () ->
          Pool.map pool 2 ~f:(fun i ->
              if i = 1 then begin
                Atomic.set held true;
                wait_for release
              end
              else wait_for held))
    in
    wait_for held;
    d
  in
  let holders = List.init (List.length (Pool.domain_stats pool) - 1) (fun _ -> holder ()) in
  let finished = Atomic.make false in
  let replay =
    Domain.spawn (fun () ->
        let r = Shard.replay_pc_trace pool packed path in
        Atomic.set finished true;
        r)
  in
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get finished)) && Unix.gettimeofday () -. t0 < 60.0 do
    Unix.sleepf 0.001
  done;
  let done_alone = Atomic.get finished in
  Atomic.set release true;
  List.iter (fun d -> ignore (Domain.join d)) holders;
  let par, blocks = Domain.join replay in
  check Alcotest.bool "the replay returned with every worker held" true done_alone;
  check Alcotest.int "block count" (snd inline) blocks;
  check profile "held-worker replay == jobs 1" (fst inline) par

(* ---------------- Replayer satellites ---------------- *)

(* feed_run ~off replays exactly the sub-array, for both engines. *)
let test_feed_run_off () =
  let stream = fixture_stream 60 in
  let insns = Array.map (fun _ -> 1) stream in
  let with_off =
    let rep = compiled (fixture_packed ()) in
    Replayer.feed_run rep ~off:20 ~insns stream ~len:30;
    Profile.of_replayer rep
  in
  let with_sub =
    let rep = compiled (fixture_packed ()) in
    Replayer.feed_run rep
      ~insns:(Array.sub insns 20 30)
      (Array.sub stream 20 30) ~len:30;
    Profile.of_replayer rep
  in
  check profile "compiled: off == sub-array copy" with_sub with_off;
  let reference off =
    let auto = Builder.build [ t1; t2 ] in
    let rep =
      Replayer.create
        (Tea_core.Transition.create Tea_core.Transition.config_global_local auto)
    in
    if off then Replayer.feed_run rep ~off:20 ~insns stream ~len:30
    else
      Replayer.feed_run rep
        ~insns:(Array.sub insns 20 30)
        (Array.sub stream 20 30) ~len:30;
    Profile.of_replayer rep
  in
  check profile "reference: off == sub-array copy" (reference false)
    (reference true);
  let rep = compiled (fixture_packed ()) in
  Alcotest.check_raises "off+len out of range"
    (Invalid_argument "Replayer.feed_run: len out of range") (fun () ->
      Replayer.feed_run rep ~off:40 stream ~len:30);
  Alcotest.check_raises "negative off"
    (Invalid_argument "Replayer.feed_run: len out of range") (fun () ->
      Replayer.feed_run rep ~off:(-1) stream ~len:1)

(* The cached no-insns scratch must behave like an explicit zero array,
   across repeated batches of different sizes (regrowth included). *)
let test_feed_run_no_insns_scratch () =
  let a =
    let rep = compiled (fixture_packed ()) in
    Replayer.feed_run rep (fixture_stream 10) ~len:10;
    Replayer.feed_run rep (fixture_stream 300) ~len:300;
    Replayer.feed_run rep ~off:5 (fixture_stream 40) ~len:35;
    Profile.of_replayer rep
  in
  let b =
    let rep = compiled (fixture_packed ()) in
    Replayer.feed_run rep ~insns:(Array.make 10 0) (fixture_stream 10) ~len:10;
    Replayer.feed_run rep ~insns:(Array.make 300 0) (fixture_stream 300)
      ~len:300;
    Replayer.feed_run rep ~off:5 ~insns:(Array.make 40 0) (fixture_stream 40)
      ~len:35;
    Profile.of_replayer rep
  in
  check profile "no-insns batches == explicit zero arrays" b a;
  check Alcotest.int "no coverage accrued" 0 a.Profile.covered

let test_set_state_validation () =
  let rep = compiled (fixture_packed ()) in
  Alcotest.check_raises "negative id"
    (Invalid_argument "Replayer.set_state: negative state id") (fun () ->
      Replayer.set_state rep (-1));
  Replayer.set_state rep 9999;
  (* the batch loop attributes the range check to itself, not Packed.step *)
  Alcotest.check_raises "stale state caught at next batch"
    (Invalid_argument "Replayer.feed_run: state id outside the frozen image")
    (fun () -> Replayer.feed_run rep [| 0x100 |] ~len:1)

(* Packed.hash_pc is the one hash definition: every occupied slot of a
   frozen image's head table must be reachable by linear probing from its
   hash_pc home slot (no hole in between), and head_of must agree. *)
let test_hash_pc_exported () =
  let packed = fixture_packed () in
  let raw = Packed.to_raw packed in
  let keys = raw.Packed.hash_keys and vals = raw.Packed.hash_vals in
  let mask = Array.length keys - 1 in
  Array.iteri
    (fun _ key ->
      if key >= 0 then begin
        let rec find i steps =
          if steps > mask then Alcotest.failf "0x%x unreachable from home" key
          else if keys.(i) = key then i
          else if keys.(i) < 0 then
            Alcotest.failf "probe chain for 0x%x hits a hole" key
          else find ((i + 1) land mask) (steps + 1)
        in
        let slot = find (Packed.hash_pc mask key) 0 in
        check (Alcotest.option Alcotest.int)
          (Printf.sprintf "head_of 0x%x" key)
          (Some vals.(slot))
          (Packed.head_of packed key)
      end)
    keys

(* Regression: --jobs 0 / negatives used to be accepted by the CLI and
   silently fall through to the sequential path; parse_jobs is the single
   validation point and must reject everything create would reject. *)
let test_pool_parse_jobs () =
  let ok s n =
    match Pool.parse_jobs s with
    | Ok got -> check Alcotest.int s n got
    | Error msg -> Alcotest.failf "parse_jobs %S rejected: %s" s msg
  in
  let rejected s =
    match Pool.parse_jobs s with
    | Ok n -> Alcotest.failf "parse_jobs %S accepted as %d" s n
    | Error msg ->
        check Alcotest.bool (s ^ " has a reason") true (String.length msg > 0)
  in
  ok "1" 1;
  ok "8" 8;
  ok " 4 " 4;
  ok "126" 126;
  List.iter rejected [ "0"; "-1"; "-42"; ""; "two"; "1.5"; "1x"; "127"; "1000" ];
  (* rejected before a worker is spawned *)
  Alcotest.check_raises "jobs above the runtime's domain limit"
    (Invalid_argument "Pool.create: jobs must be <= 126 (the runtime's domain limit)")
    (fun () -> ignore (Pool.create ~jobs:1000))

let () =
  Alcotest.run "tea_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map order and values" `Quick test_pool_map_order;
          Alcotest.test_case "parse_jobs" `Quick test_pool_parse_jobs;
          Alcotest.test_case "inline jobs=1" `Quick test_pool_inline;
          Alcotest.test_case "map_list" `Quick test_pool_map_list;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "one-task batch inline" `Quick
            test_pool_single_task_inline;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "concurrent drivers" `Quick
            test_pool_concurrent_drivers;
          Alcotest.test_case "concurrent shutdown" `Quick
            test_pool_concurrent_shutdown;
        ] );
      ( "profile",
        [
          Alcotest.test_case "of_replayer" `Quick test_of_replayer;
          Alcotest.test_case "merge identity" `Quick test_profile_merge_identity;
          Alcotest.test_case "merge assoc/comm" `Quick
            test_profile_merge_assoc_comm;
          Alcotest.test_case "split+merge == whole" `Quick
            test_profile_split_merge;
        ] );
      ( "shard",
        [
          qtest prop_shard_equals_sequential;
          Alcotest.test_case "fixture 4-way" `Quick test_shard_fixture;
          Alcotest.test_case "validation" `Quick test_shard_validation;
          Alcotest.test_case "pc-trace file" `Quick test_shard_pc_trace;
          Alcotest.test_case "file replays: jobs 2 and 4 == jobs 1" `Quick
            test_relay_equals_inline;
          Alcotest.test_case "one worker held by another caller" `Quick
            test_relay_held_worker;
          Alcotest.test_case "files below the ring's size replay inline" `Quick
            test_small_file_inline;
        ] );
      ( "replayer",
        [
          Alcotest.test_case "feed_run off" `Quick test_feed_run_off;
          Alcotest.test_case "no-insns scratch" `Quick
            test_feed_run_no_insns_scratch;
          Alcotest.test_case "set_state validation" `Quick
            test_set_state_validation;
          Alcotest.test_case "hash_pc exported" `Quick test_hash_pc_exported;
        ] );
    ]

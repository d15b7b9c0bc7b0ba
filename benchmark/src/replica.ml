(* In-process replicas for the traced run. They call the same public
   functions the system under test composes, each inside a span, over the
   workload's own streams — so every layer gets a number on every workload
   without a probe added to the program.

   - [offline]: file → profile as the sharded driver composes it
     (read, decode/demux, shard replay, merge);
   - [serve]: one daemon session on a single thread (frame parse,
     streaming decode onto the unboxed event queue, session open, feeder
     dispatch, merge, fold into the fleet, reply encode). *)

module Profile = Tea_parallel.Profile
module Shard = Tea_parallel.Shard
module Pool = Tea_parallel.Pool
module Frame = Tea_serve.Frame
module Evq = Tea_serve.Evq
module Multi = Tea_core.Multi_replayer

type stream = {
  id : string;
  path : string;  (** the stream as a trace file *)
  bytes : string;  (** the same bytes, as a client sends them *)
  blocks : int;
  asids : int list;  (** the address spaces that execute blocks *)
}

(* Worker time the pool spent inside tasks, summed over its domains. *)
let busy pool =
  List.fold_left (fun a d -> a +. d.Pool.d_busy) 0.0 (Pool.domain_stats pool)

type pool_acc = { mutable busy_s : float; mutable idle_s : float; mutable calls : int }

let pool_acc () = { busy_s = 0.0; idle_s = 0.0; calls = 0 }

(* One Shard.replay_arrays call in a span, with the pool's busy time over
   the call; idle is worker time the call held the pool without work. *)
let shard_replay ledger acc pool ~blocks f =
  let b0 = busy pool and t0 = Unix.gettimeofday () in
  let p = Ledger.leaf ledger ~blocks "shard.replay" f in
  let wall = Unix.gettimeofday () -. t0 and b = busy pool -. b0 in
  acc.busy_s <- acc.busy_s +. b;
  acc.idle_s <- acc.idle_s +. Float.max 0.0 ((float_of_int (Pool.jobs pool) *. wall) -. b);
  acc.calls <- acc.calls + 1;
  p

(* Replay one demultiplexed file run by run, as Shard.replay_events does. *)
let replay_runs ledger acc pool ~image_for per_asid =
  List.map
    (fun (asid, runs) ->
      let profiles =
        List.map
          (fun r ->
            shard_replay ledger acc pool ~blocks:r.Shard.len (fun () ->
                Shard.replay_arrays pool (image_for asid) ~make:Pipeline.make_compiled
                  ~insns:r.Shard.insns r.Shard.starts ~len:r.Shard.len))
          runs
      in
      (asid, Ledger.leaf ledger "profile.merge" (fun () -> Profile.merge_all profiles)))
    per_asid

let offline ledger acc pool ~image_for s =
  Ledger.root ledger ~args:[ ("stream", s.id) ] "replica.offline" @@ fun () ->
  ignore (Ledger.leaf ledger ~blocks:s.blocks "pc_trace.read" (fun () -> Tea_core.Pc_trace.read_all s.path));
  let per_asid = Ledger.leaf ledger ~blocks:s.blocks "shard.load" (fun () -> Shard.load_events s.path) in
  replay_runs ledger acc pool ~image_for per_asid

let chunk = 65536

(* What a client puts on the wire for a stream: data frames of at most
   [chunk] payload bytes, then the empty end-of-stream frame. *)
let framed bytes =
  let b = Buffer.create (String.length bytes + 64) in
  let n = String.length bytes in
  let rec go off =
    if off < n then begin
      let k = min chunk (n - off) in
      Buffer.add_string b (Frame.encode Frame.tag_data (String.sub bytes off k));
      go (off + k)
    end
  in
  go 0;
  Buffer.add_string b (Frame.encode Frame.tag_end "");
  Buffer.contents b

let serve ledger ~image_for ~fleet s =
  let wire = framed s.bytes in
  Ledger.root ledger ~args:[ ("stream", s.id) ] "replica.serve" @@ fun () ->
  let payloads =
    Ledger.leaf ledger ~blocks:s.blocks "frame.parse" (fun () ->
        let p = Frame.parser_ () and acc = ref [] in
        let n = String.length wire in
        let rec go off =
          if off < n then begin
            let k = min chunk (n - off) in
            Frame.parser_feed p ~off ~len:k wire (fun f ->
                if f.Frame.tag = Frame.tag_data then acc := f.Frame.payload :: !acc);
            go (off + k)
          end
        in
        go 0;
        List.rev !acc)
  in
  let q = Evq.create () in
  Ledger.leaf ledger ~blocks:s.blocks "pc_trace.stream_decode" (fun () ->
      let d = Tea_core.Pc_trace.decoder () in
      List.iter (fun pl -> Tea_core.Pc_trace.decoder_feed d pl (fun ~asid ev -> Evq.push q ~asid ev)) payloads;
      Tea_core.Pc_trace.decoder_finish d);
  let multi =
    Ledger.leaf ledger "session.open" (fun () ->
        let reps = List.map (fun a -> (a, Pipeline.make_compiled (image_for a))) s.asids in
        Multi.create (fun a -> List.assoc a reps))
  in
  Tea_core.Tierstat.install ();
  (try
     Ledger.leaf ledger ~blocks:s.blocks "replay.feed" (fun () ->
         let fdr = Multi.feeder multi in
         while not (Evq.is_empty q) do
           let tag = Evq.tag q and asid = Evq.asid q and a = Evq.f1 q and b = Evq.f2 q in
           Evq.drop q;
           if tag = Evq.tag_block then Multi.feeder_block fdr ~asid ~start:a ~insns:b
           else
             Multi.feeder_feed fdr ~asid
               (if tag = Evq.tag_switch then Tea_core.Pc_trace.Switch { asid = a }
                else if tag = Evq.tag_invalidate then Tea_core.Pc_trace.Invalidate { asid = a }
                else Tea_core.Pc_trace.Interrupt)
         done;
         Multi.feeder_flush fdr)
   with e ->
     ignore (Tea_core.Tierstat.uninstall ());
     raise e);
  let tiers = Tea_core.Tierstat.uninstall () in
  let session =
    Ledger.leaf ledger "profile.merge" (fun () ->
        Profile.merge_all (List.map snd (Multi.snapshots multi)))
  in
  fleet := Ledger.leaf ledger "profile.fold" (fun () -> Profile.merge !fleet session);
  ignore (Ledger.leaf ledger "profile.encode" (fun () -> Frame.encode_profile session));
  (session, tiers)

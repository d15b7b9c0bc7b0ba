module Automaton = Tea_core.Automaton
module Packed = Tea_core.Packed
module Replayer = Tea_core.Replayer
module Pc_trace = Tea_core.Pc_trace

(* What a worker learned about its chunk [lo, hi). *)
type chunk =
  | Whole of Profile.t * Automaton.state
      (* replayed [lo, hi) entirely (chunk 0: entry state known = NTE) *)
  | Suffix of { sync : int; profile : Profile.t; exit_state : Automaton.state }
      (* replayed (sync, hi) from the entry-independent state at [sync];
         the prefix [lo, sync] is the driver's *)
  | Unsynced (* no sync point in the chunk; the driver replays all of it *)

(* The union of every state's in-trace labels. A PC outside this set
   resolves identically from any state (head-or-NTE), which is what makes
   it a legal chunk seam. Built once per replay, shared read-only across
   the workers. *)
let edge_labels packed =
  let raw = Packed.to_raw packed in
  let h = Hashtbl.create (2 * Array.length raw.Packed.labels + 1) in
  Array.iter (fun l -> Hashtbl.replace h l ()) raw.Packed.labels;
  h

let resolve packed pc =
  match Packed.head_of packed pc with Some s -> s | None -> Automaton.nte

let default_make p =
  Replayer.create_compiled (Tea_core.Compiled.of_packed (Packed.dup p))

let replay_span pool packed ?(make = default_make) ?entry ?insns starts ~off
    ~len =
  if off < 0 || len < 0 || off + len > Array.length starts then
    invalid_arg "Shard.replay_span: span out of range";
  (match insns with
  | Some a when Array.length a < off + len ->
      invalid_arg "Shard.replay_span: insns array shorter than span"
  | _ -> ());
  let n_chunks = max 1 (min (Pool.jobs pool) len) in
  let bounds =
    Array.init n_chunks (fun i ->
        (off + (i * len / n_chunks), off + ((i + 1) * len / n_chunks)))
  in
  let labels = edge_labels packed in
  let work i =
    let lo, hi = bounds.(i) in
    if i = 0 then begin
      let rep = make packed in
      (match entry with Some e -> Replayer.set_state rep e | None -> ());
      Replayer.feed_run rep ~off:lo ?insns starts ~len:(hi - lo);
      Pool.add_units pool (hi - lo);
      Whole (Profile.of_replayer rep, Replayer.state rep)
    end
    else begin
      let sync = ref lo in
      while !sync < hi && Hashtbl.mem labels starts.(!sync) do
        incr sync
      done;
      if !sync >= hi then Unsynced
      else begin
        let k = !sync in
        let rep = make packed in
        Replayer.set_state rep (resolve packed starts.(k));
        let n = hi - k - 1 in
        if n > 0 then Replayer.feed_run rep ~off:(k + 1) ?insns starts ~len:n;
        Pool.add_units pool n;
        Suffix
          {
            sync = k;
            profile = Profile.of_replayer rep;
            exit_state = Replayer.state rep;
          }
      end
    end
  in
  let chunks = Pool.map pool ~f:work n_chunks in
  (* Sequential stitch: carry the true state across chunks, replaying
     only what no worker could — each chunk's uncertain prefix. *)
  let driver = make packed in
  (match entry with Some e -> Replayer.set_state driver e | None -> ());
  let driver_steps = ref 0 in
  Array.iteri
    (fun i chunk ->
      let lo, hi = bounds.(i) in
      match chunk with
      | Whole (_, exit_state) -> Replayer.set_state driver exit_state
      | Suffix { sync; exit_state; _ } ->
          Replayer.feed_run driver ~off:lo ?insns starts ~len:(sync - lo + 1);
          driver_steps := !driver_steps + (sync - lo + 1);
          (* the step at [sync] is entry-independent: the true walk must
             land exactly where the worker started *)
          assert (Replayer.state driver = resolve packed starts.(sync));
          Replayer.set_state driver exit_state
      | Unsynced ->
          if hi > lo then begin
            Replayer.feed_run driver ~off:lo ?insns starts ~len:(hi - lo);
            driver_steps := !driver_steps + (hi - lo)
          end)
    chunks;
  Pool.add_units pool !driver_steps;
  let parts =
    Array.to_list
      (Array.map
         (function
           | Whole (p, _) -> p | Suffix { profile; _ } -> profile
           | Unsynced -> Profile.empty)
         chunks)
  in
  (Profile.merge_all (Profile.of_replayer driver :: parts), Replayer.state driver)

let replay_arrays pool packed ?make ?insns starts ~len =
  if len < 0 || len > Array.length starts then
    invalid_arg "Shard.replay_arrays: len out of range";
  (match insns with
  | Some a when Array.length a < len ->
      invalid_arg "Shard.replay_arrays: insns array shorter than len"
  | _ -> ());
  fst (replay_span pool packed ?make ?insns starts ~off:0 ~len)

let load_pc_trace path =
  let { Pc_trace.starts; insns; len } = Pc_trace.load path in
  (starts, insns, len)

let replay_pc_trace pool packed ?make path =
  let starts, insns, len = load_pc_trace path in
  (replay_arrays pool packed ?make ~insns starts ~len, len)

(* ---- multi-asid event streams ----

   [replay_arrays] assumes one uncut single-asid stream: its sync-point
   chunking carries ONE automaton state across seams, so a chunk seam
   falling on an asid switch would stitch with the wrong automaton, and a
   mid-chunk invalidation would not exist in its vocabulary at all. The
   fix is demux-first: split the event stream into per-asid runs, cut at
   every invalidation/interrupt (each run re-enters at NTE — exactly what
   [Replayer.set_state nte] does in the demuxed replayer, with no
   accounting), and shard each run independently. Seams then never
   straddle an asid or a cut by construction, and the per-run profiles
   merge additively into exactly the per-asid sequential snapshot. *)

type run = Pc_trace.run = { starts : int array; insns : int array; len : int }

let load_events path = Pc_trace.demux (Pc_trace.read_all path)

let replay_events pool packed_for ?make path =
  load_events path
  |> List.map (fun (asid, runs) ->
         let packed = packed_for asid in
         let profile =
           Profile.merge_all
             (List.map
                (fun r ->
                  replay_arrays pool packed ?make ~insns:r.insns r.starts
                    ~len:r.len)
                runs)
         in
         (asid, profile))

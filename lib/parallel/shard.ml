module Automaton = Tea_core.Automaton
module Packed = Tea_core.Packed
module Replayer = Tea_core.Replayer
module Pc_trace = Tea_core.Pc_trace

let default_make p =
  Replayer.create_compiled (Tea_core.Compiled.of_packed (Packed.dup p))

let replay_arrays pool packed ?(make = default_make) ?insns starts ~len =
  if len < 0 || len > Array.length starts then
    invalid_arg "Shard.replay_arrays: len out of range";
  (match insns with
  | Some a when Array.length a < len ->
      invalid_arg "Shard.replay_arrays: insns array shorter than len"
  | _ -> ());
  let rep = make packed in
  Replayer.feed_run rep ?insns starts ~len;
  Pool.add_units pool len;
  Profile.of_replayer rep

let load_pc_trace path =
  let { Pc_trace.starts; insns; len } = Pc_trace.load path in
  (starts, insns, len)

let replay_pc_trace pool packed ?(make = default_make) path =
  let rep = make packed in
  let blocks = ref 0 in
  Pc_trace.iter_chunks path (fun ~starts ~insns ~len ->
      Replayer.feed_run rep ~insns starts ~len;
      blocks := !blocks + len);
  Pool.add_units pool !blocks;
  (Profile.of_replayer rep, !blocks)

type run = Pc_trace.run = { starts : int array; insns : int array; len : int }

let load_events path = Pc_trace.demux (Pc_trace.read_all path)

(* One task per asid: its runs replay in stream order on one replayer,
   each re-entering at NTE as the demuxed Multi_replayer cut does. *)
let replay_events pool packed_for ?(make = default_make) path =
  let asids =
    Array.of_list
      (List.map (fun (asid, runs) -> (asid, packed_for asid, runs))
         (load_events path))
  in
  Pool.map pool (Array.length asids) ~f:(fun i ->
      let asid, packed, runs = asids.(i) in
      let rep = make packed in
      List.iter
        (fun r ->
          Replayer.set_state rep Automaton.nte;
          Replayer.feed_run rep ~insns:r.insns r.starts ~len:r.len;
          Pool.add_units pool r.len)
        runs;
      (asid, Profile.of_replayer rep))
  |> Array.to_list

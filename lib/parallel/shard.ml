module Replayer = Tea_core.Replayer
module Pc_trace = Tea_core.Pc_trace
module Multi_replayer = Tea_core.Multi_replayer
module Vec = Tea_util.Vec

let default_make p = Replayer.create_compiled (Tea_core.Compiled.of_packed p)

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
  let m = Multi_replayer.create (fun _ -> rep) in
  let blocks = Multi_replayer.replay_file m (Pc_trace.single_decoder ()) path in
  Pool.add_units pool blocks;
  (Profile.of_replayer rep, blocks)

type run = Pc_trace.run = { starts : int array; insns : int array; len : int }

(* Per asid: the open run's blocks and the closed runs, newest first. *)
type runs = { s : int Vec.t; i : int Vec.t; mutable closed : run list }

let load_events path =
  let tbl = Hashtbl.create 8 in
  let cut a =
    match Hashtbl.find_opt tbl a with
    | Some r when not (Vec.is_empty r.s) ->
        r.closed <-
          { starts = Vec.to_array r.s; insns = Vec.to_array r.i; len = Vec.length r.s }
          :: r.closed;
        Vec.clear r.s;
        Vec.clear r.i
    | _ -> ()
  in
  Pc_trace.fold_events path () (fun () ~asid ev ->
      match ev with
      | Pc_trace.Block { start; insns } ->
          let r =
            match Hashtbl.find_opt tbl asid with
            | Some r -> r
            | None ->
                let r = { s = Vec.create (); i = Vec.create (); closed = [] } in
                Hashtbl.add tbl asid r;
                r
          in
          Vec.push r.s start;
          Vec.push r.i insns
      | Pc_trace.Invalidate { asid = a } -> cut a
      | Pc_trace.Interrupt -> cut asid
      | Pc_trace.Switch _ -> ());
  Hashtbl.fold (fun a _ acc -> a :: acc) tbl []
  |> List.sort Int.compare
  |> List.map (fun a ->
         cut a;
         (a, List.rev (Hashtbl.find tbl a).closed))

(* One streaming pass on the caller: each asid's blocks collect in its
   own run buffer, so batches stay long at any interleaving. *)
let replay_events pool packed_for ?(make = default_make) path =
  let m = Multi_replayer.create (fun asid -> make (packed_for asid)) in
  Pool.add_units pool (Multi_replayer.replay_file m (Pc_trace.decoder ()) path);
  Multi_replayer.snapshots m

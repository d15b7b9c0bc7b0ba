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

(* One streaming pass over [path] through [make]'s replayers, each asid's
   blocks collecting in its own run buffer. On a pool of two or more
   workers one task decodes and hands the filled buffers through a relay
   to a second task that replays them. Otherwise both run on the
   caller, and so they do for a file of fewer bytes than the relay's
   ring holds blocks: such a file holds fewer blocks than the ring, so
   the two worker wake-ups would cost more than the overlap saves. *)
let replay_file pool dec make path =
  (* read here: a file-sized buffer freed by a worker would stay in
     that worker's malloc arena *)
  let s = Pc_trace.read_all path in
  if Pool.jobs pool < 2 || String.length s < Multi_replayer.relay_blocks then begin
    let m = Multi_replayer.create make in
    let blocks = Multi_replayer.replay_string m dec s in
    Pool.add_units pool blocks;
    (m, blocks)
  end
  else begin
    let relay = Multi_replayer.relay (Pool.add_units pool) in
    let m = Multi_replayer.create ~relay make in
    let blocks =
      Pool.map pool 2 ~f:(fun task ->
          if task = 0 then Multi_replayer.replay_string m dec s
          else begin
            Multi_replayer.relay_drain relay;
            0
          end)
    in
    (m, blocks.(0))
  end

let replay_pc_trace pool packed ?(make = default_make) path =
  let rep = make packed in
  let _, blocks = replay_file pool (Pc_trace.single_decoder ()) (fun _ -> rep) path in
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

let replay_events pool packed_for ?(make = default_make) path =
  let m, _ =
    replay_file pool (Pc_trace.decoder ()) (fun asid -> make (packed_for asid)) path
  in
  Multi_replayer.snapshots m

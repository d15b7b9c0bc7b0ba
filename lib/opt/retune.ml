(* Closed-loop continuous PGO: the pieces that turn "the drift gauge
   crossed threshold" into "the daemon dispatches through a freshly
   repacked+fused image", without stopping replay.

   The serve daemon retains each completed session's raw trace bytes.
   A retune pass demuxes those bytes back into per-asid block segments
   (Pc_trace.demux, cut at invalidations/interrupts — the same runs
   Tea_parallel.Shard.replay_events replays), walks them
   through Repack.collect to get an edge profile, and rebuilds the
   tuning ladder from the *flat* source image: collect -> repack ->
   collect again over the repacked layout -> fuse. Rebuilding from flat
   every generation keeps each epoch's image one permutation away from
   orig-id space and every TEAEP1 snapshot in orig space, so epochs
   never compound.

   The rebuild runs in a background domain (a builder below) while the
   caller keeps replaying on the current image; the swap itself is the
   caller's job (Replayer.rebind between batches). *)

module Packed = Tea_core.Packed
module Pc_trace = Tea_core.Pc_trace

type segment = Pc_trace.run

(* each retained string is one complete session stream: its own demux,
   its own asid buckets — sessions never share automata *)
let segments_of_raws raws =
  List.concat_map (fun raw -> List.concat_map snd (Pc_trace.demux raw)) raws

let collect_segments img segs =
  List.fold_left
    (fun acc { Pc_trace.starts; len; _ } ->
      Repack.merge acc (Repack.collect img starts ~len))
    (Repack.empty_profile img) segs

(* -- one generation of the tuning ladder -- *)

let build ?(fuse = true) ?hot_prefix ~src ~profile_of () =
  if Packed.is_fused src then
    invalid_arg "Retune.build: source image must be unfused";
  let prof = profile_of src in
  let repacked = Repack.repack ?hot_prefix src prof in
  let tuned =
    if fuse then Fuse.fuse ~profile:(profile_of repacked) repacked
    else repacked
  in
  (tuned, prof)

(* -- the background builder -- *)

type outcome = (Packed.t * Repack.profile, exn) result

type builder = {
  cell : outcome option Atomic.t;
  mutable dom : unit Domain.t option;
}

let launch f =
  let cell = Atomic.make None in
  let dom =
    Domain.spawn (fun () ->
        let r = try Ok (f ()) with e -> Error e in
        Atomic.set cell (Some r))
  in
  { cell; dom = Some dom }

let join_done b =
  match b.dom with
  | Some d ->
      Domain.join d;
      b.dom <- None
  | None -> ()

let poll b =
  match Atomic.get b.cell with
  | None -> None
  | Some r ->
      join_done b;
      Some r

let await b =
  join_done b;
  match Atomic.get b.cell with
  | Some r -> r
  | None -> assert false (* the domain ran to completion before join *)

(* Closed-loop continuous PGO (documented in the interface): one
   generation of the tuning ladder, from the flat image and an orig-id
   edge profile, built in a background domain while the caller keeps
   replaying; the swap is the caller's (Replayer.rebind between
   batches). *)

module Packed = Tea_core.Packed

(* -- one generation of the tuning ladder -- *)

let build ?(fuse = true) ?hot_prefix ~profile src =
  if Packed.is_fused src then
    invalid_arg "Retune.build: source image must be unfused";
  let repacked = Repack.repack ?hot_prefix src (Repack.permute src profile) in
  if fuse then Fuse.fuse ~profile:(Repack.permute repacked profile) repacked
  else repacked

(* -- the background builder -- *)

type 'a builder = {
  cell : ('a, exn) result option Atomic.t;
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

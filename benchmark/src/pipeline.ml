(* The image pipeline of `tea_tool replay --pgo --fuse -e compiled`, one
   public call per stage, each stage timed: mret recording under the DBT,
   Builder.build + Packed.freeze, Repack, Fuse, Compile. *)

module Packed = Tea_core.Packed

type stages = {
  record : float;
  build : float;
  pgo : float;
  fuse : float;
  compile : float;
}

let total s = s.record +. s.build +. s.pgo +. s.fuse +. s.compile

let add a b =
  {
    record = a.record +. b.record;
    build = a.build +. b.build;
    pgo = a.pgo +. b.pgo;
    fuse = a.fuse +. b.fuse;
    compile = a.compile +. b.compile;
  }

let zero = { record = 0.; build = 0.; pgo = 0.; fuse = 0.; compile = 0. }

type built = {
  auto : Tea_core.Automaton.t;  (** the oracle's automaton *)
  image : Packed.t;  (** repacked and fused on the tuning stream *)
  compiled : Tea_core.Compiled.t;  (** for image statistics *)
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let mret = Option.get (Tea_traces.Registry.by_name "mret")

let build program ~(tune : Inputs.stream) =
  let traces, record =
    timed (fun () ->
        let r = Tea_dbt.Stardbt.record ~strategy:mret program in
        Tea_traces.Trace_set.to_list r.Tea_dbt.Stardbt.set)
  in
  let (auto, flat), build =
    timed (fun () ->
        let auto = Tea_core.Builder.build traces in
        (auto, Packed.freeze auto))
  in
  let starts = tune.Inputs.starts and len = tune.Inputs.len in
  let repacked, pgo =
    timed (fun () ->
        Tea_opt.Repack.repack flat (Tea_opt.Repack.collect flat starts ~len))
  in
  let image, fuse =
    timed (fun () ->
        let profile = Tea_opt.Repack.collect repacked starts ~len in
        Tea_opt.Fuse.fuse ~profile repacked)
  in
  let compiled, compile =
    timed (fun () -> Tea_opt.Compile.compile (Packed.dup image))
  in
  ({ auto; image; compiled }, { record; build; pgo; fuse; compile })

(* The replayer factory every sharded and serving path gets: a compiled
   engine over a private dup of the shared image. *)
let make_compiled img =
  Tea_core.Replayer.create_compiled (Tea_core.Compiled.of_packed (Packed.dup img))

module Transition = Tea_core.Transition
module Packed = Tea_core.Packed
module Replayer = Tea_core.Replayer
module Builder = Tea_core.Builder

type engine = [ `Reference | `Compiled ]

type result = {
  coverage : float;
  covered_insns : int;
  total_insns : int;
  native_cycles : int;
  framework_cycles : int;
  tool_cycles : int;
  total_cycles : int;
  slowdown : float;
  trace_enters : int;
  trace_exits : int;
  transition_stats : Transition.stats;
}

let replay ?(params = Cost_params.default)
    ?(transition = Transition.config_global_local) ?(engine = `Reference)
    ?(pgo = false) ?(fuse = false) ?fuel ~traces image =
  if pgo && engine = `Reference then
    invalid_arg "Pintool_replay.replay: pgo requires the compiled engine";
  if fuse && engine = `Reference then
    invalid_arg "Pintool_replay.replay: fuse requires the compiled engine";
  let auto = Builder.build traces in
  let compiled img = Replayer.create_compiled (Tea_core.Compiled.of_packed img) in
  let rep =
    match engine with
    | `Reference -> Replayer.create (Transition.create transition auto)
    | `Compiled -> compiled (Packed.freeze auto)
  in
  (* §4.1: step the TEA on taken/fall-through edges (merged logical blocks),
     not on Pin's fragment boundaries. *)
  let analysis_calls = ref 0 in
  (* PGO/fusion path: buffer the edge stream during the (single) Pin run,
     then profile-repack and/or superstate-fuse the packed image and
     batch-replay it through freshly specialized closures — the pintool
     analogue of `tea_tool repack` / `tea_tool fuse`. One analysis call
     per emitted block either way. *)
  let tune = pgo || fuse in
  let pgo_addrs = ref [||] and pgo_insns = ref [||] and pgo_len = ref 0 in
  let push addr insns =
    let cap = Array.length !pgo_addrs in
    if !pgo_len = cap then begin
      let cap' = max 1024 (2 * cap) in
      let a = Array.make cap' 0 and b = Array.make cap' 0 in
      Array.blit !pgo_addrs 0 a 0 cap;
      Array.blit !pgo_insns 0 b 0 cap;
      pgo_addrs := a;
      pgo_insns := b
    end;
    !pgo_addrs.(!pgo_len) <- addr;
    !pgo_insns.(!pgo_len) <- insns;
    incr pgo_len
  in
  let filter =
    Edge_filter.create ~emit:(fun block ~expanded ->
        incr analysis_calls;
        if tune then push block.Tea_cfg.Block.start expanded
        else Replayer.feed_addr rep ~insns:expanded block.Tea_cfg.Block.start)
  in
  let stats = Pin.run ~params ?fuel ~tool:(Edge_filter.callbacks filter) image in
  Edge_filter.flush filter;
  let rep =
    if not tune then rep
    else begin
      let flat =
        match Replayer.engine rep with
        | Replayer.Compiled c -> Tea_core.Compiled.base c
        | Replayer.Reference _ -> assert false
      in
      let img =
        if not pgo then flat
        else
          Tea_opt.Repack.repack flat
            (Tea_opt.Repack.collect flat !pgo_addrs ~len:!pgo_len)
      in
      let img =
        if not fuse then img
        else if not pgo then Tea_opt.Fuse.fuse img
        else
          (* pgo+fuse composition: the captured stream, re-collected
             over the repacked layout, gates chain selection *)
          let profile = Tea_opt.Repack.collect img !pgo_addrs ~len:!pgo_len in
          Tea_opt.Fuse.fuse ~profile img
      in
      let tuned = compiled img in
      Replayer.feed_run tuned ~insns:!pgo_insns !pgo_addrs ~len:!pgo_len;
      tuned
    end
  in
  let st = Replayer.stats rep in
  let tool_cycles =
    (params.Cost_params.analysis_call * !analysis_calls)
    + Replayer.cycles rep
    + (params.Cost_params.nte_side_work * st.Transition.global_misses)
  in
  let total_cycles = stats.Pin.framework_cycles + tool_cycles in
  let native = stats.Pin.native_cycles in
  ( {
      coverage = Replayer.coverage rep;
      covered_insns = Replayer.covered_insns rep;
      total_insns = Replayer.total_insns rep;
      native_cycles = native;
      framework_cycles = stats.Pin.framework_cycles;
      tool_cycles;
      total_cycles;
      slowdown =
        (if native = 0 then 0.0
         else float_of_int total_cycles /. float_of_int native);
      trace_enters = Replayer.trace_enters rep;
      trace_exits = Replayer.trace_exits rep;
      transition_stats = st;
    },
    rep )

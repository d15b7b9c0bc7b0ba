module Transition = Tea_core.Transition

type row = {
  native : float;
  without_pintool : float;
  empty : float;
  no_global_local : float;
  global_no_local : float;
  global_local : float;
  compiled : float;
}

let measure ?(params = Cost_params.default) ?(pgo = false) ?(fuse = false)
    ?fuel ~traces image =
  let native = Pin.native_cycles ?fuel image in
  let ratio cycles =
    if native = 0 then 0.0 else float_of_int cycles /. float_of_int native
  in
  let without_pintool =
    let stats = Pin.run ~params ?fuel image in
    ratio stats.Pin.framework_cycles
  in
  let replay_with ?engine ?pgo ?fuse transition traces =
    let result, _rep =
      Pintool_replay.replay ~params ~transition ?engine ?pgo ?fuse ?fuel
        ~traces image
    in
    ratio result.Pintool_replay.total_cycles
  in
  {
    native = 1.0;
    without_pintool;
    empty = replay_with Transition.config_global_no_local [];
    no_global_local = replay_with Transition.config_no_global_local traces;
    global_no_local = replay_with Transition.config_global_no_local traces;
    global_local = replay_with Transition.config_global_local traces;
    compiled =
      replay_with ~engine:`Compiled ~pgo ~fuse Transition.config_global_local
        traces;
  }

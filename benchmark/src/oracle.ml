(* The correctness oracle: every answer the system under test gives is
   compared with a replay through the reference [Transition] engine over
   the same automaton — never with another run of the engine under test.
   Reference profiles are computed once per distinct stream, before any
   timing starts. *)

module Profile = Tea_parallel.Profile
module Replayer = Tea_core.Replayer

let replayer auto =
  Replayer.create
    (Tea_core.Transition.create Tea_core.Transition.config_global_local auto)

(* Reference profile of a single-asid block stream. *)
let of_stream auto (s : Inputs.stream) =
  let r = replayer auto in
  Replayer.feed_run r ~insns:s.Inputs.insns s.Inputs.starts ~len:s.Inputs.len;
  Replayer.snapshot r

(* Reference per-asid profiles of a trace file of any format: each asid's
   projection replayed in isolation on a fresh reference replayer. *)
let of_file ~auto_for path =
  Tea_core.Multi_replayer.replay_isolated (fun asid -> replayer (auto_for asid)) path

(* What a session reply carries: the per-asid profiles merged. *)
let merged per_asid = Profile.merge_all (List.map snd per_asid)

(* Engines may split cross-trace resolutions differently between the stats
   counters (and charge different simulated cycles), so only the
   engine-invariant fields are compared. *)
let check ~expected (got : Profile.t) =
  let field name f =
    if f expected = f got then None
    else Some (Printf.sprintf "%s %d <> %d" name (f expected) (f got))
  in
  let diffs =
    List.filter_map Fun.id
      [
        field "covered" (fun p -> p.Profile.covered);
        field "total" (fun p -> p.Profile.total);
        field "enters" (fun p -> p.Profile.enters);
        field "exits" (fun p -> p.Profile.exits);
        field "steps" (fun p -> p.Profile.steps);
        (if expected.Profile.counts = got.Profile.counts then None
         else Some "per-state counts differ");
      ]
  in
  match diffs with [] -> Ok () | d -> Error (String.concat ", " d)

let check_per_asid ~expected got =
  let ids l = List.map fst l in
  if ids expected <> ids got then Error "asid sets differ"
  else
    List.fold_left2
      (fun acc (asid, e) (_, g) ->
        match (acc, check ~expected:e g) with
        | Error _, _ -> acc
        | Ok (), Ok () -> Ok ()
        | Ok (), Error m -> Error (Printf.sprintf "asid %d: %s" asid m))
      (Ok ()) expected got

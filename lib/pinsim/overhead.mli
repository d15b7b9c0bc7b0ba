(** The Table 4 measurement harness: one program, seven configurations.

    - Native: plain execution (always 1.00);
    - Without Pintool: Pin alone (JIT + dispatch);
    - Empty: the replay pintool loaded with an empty trace set — global B+
      tree, no local caches, exactly the configuration footnoted in §4.2;
    - No Global / Local: linked-list container + per-state local caches;
    - Global / No Local: B+ tree, no caches;
    - Global / Local: both (the configuration behind Tables 2 and 3);
    - Compiled: the compiled {!Tea_core.Compiled} dispatch over a
      flat-array {!Tea_core.Packed} image — our beyond-paper column
      showing what the transition function costs once compiled. Its host
      ns/block win is deliberately excluded from Table 4's simulated
      ratios. *)

type row = {
  native : float;            (** 1.00 by construction *)
  without_pintool : float;
  empty : float;
  no_global_local : float;
  global_no_local : float;
  global_local : float;
  compiled : float;
}

val measure :
  ?params:Cost_params.t ->
  ?pgo:bool ->
  ?fuse:bool ->
  ?fuel:int ->
  traces:Tea_traces.Trace.t list ->
  Tea_isa.Image.t ->
  row
(** Slowdowns normalized to the native run of the same image. [pgo]
    (default false) profile-repacks the compiled column's image on the
    measured stream first, and [fuse] (default false) superstate-fuses it
    ({!Pintool_replay.replay}'s [?pgo] / [?fuse]); the reference columns
    are unaffected. *)

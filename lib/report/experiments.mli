(** Experiment drivers: one per table of the paper's evaluation (§4).

    Each driver consumes prepared per-benchmark data (program image plus
    StarDBT recording runs for each strategy) and produces row records plus
    a paper-shaped ASCII rendering. "Time" columns report simulated
    mega-cycles — absolute magnitudes cannot match the paper's seconds
    (our substrate is an interpreter, our workloads are synthetic), but the
    ratios and orderings are the reproduction targets; see EXPERIMENTS.md. *)

type bench = {
  profile : Tea_workloads.Proggen.profile;
  image : Tea_isa.Image.t;
  dbt : (string * Tea_dbt.Stardbt.result) list;
      (** per strategy, in {!Tea_traces.Registry.all} order *)
}

val prepare :
  ?pool:Tea_parallel.Pool.t ->
  ?benchmarks:string list ->
  ?config:Tea_traces.Recorder.config ->
  ?fuel:int ->
  unit ->
  bench list
(** Generate images and run the StarDBT recorder with every strategy.
    [benchmarks] defaults to all 26.

    Every driver here accepts an optional [pool]: benchmarks are
    independent, so they shard across the pool's domains, with results
    (and therefore every rendered table) byte-identical to the sequential
    run — only wall-clock time and the pool's per-domain counters differ.
    Omitting [pool] is the plain sequential [List.map]. *)

val mret_traces : bench -> Tea_traces.Trace.t list
(** The MRET trace set from the prepared DBT run (Tables 2-4 input). *)

(** {1 Table 1 — size savings} *)

type size_cell = { dbt_bytes : int; tea_bytes : int; saving : float }

type table1_row = { t1_name : string; cells : (string * size_cell) list }

val table1 : ?pool:Tea_parallel.Pool.t -> bench list -> table1_row list

val render_table1 : table1_row list -> string

(** {1 Table 2 — replaying} *)

type table2_row = {
  t2_name : string;
  tea_coverage : float;
  tea_mcycles : float;
  dbt_coverage : float;
  dbt_mcycles : float;
}

val table2 : ?pool:Tea_parallel.Pool.t -> ?fuel:int -> bench list -> table2_row list

val render_table2 : table2_row list -> string

(** {1 Table 3 — recording} *)

type table3_row = {
  t3_name : string;
  pin_coverage : float;
  pin_mcycles : float;
  sdbt_coverage : float;
  sdbt_mcycles : float;
  n_traces : int;
}

val table3 : ?pool:Tea_parallel.Pool.t -> ?fuel:int -> bench list -> table3_row list

val render_table3 : table3_row list -> string

(** {1 Table 4 — overhead ablation} *)

type table4_row = { t4_name : string; row : Tea_pinsim.Overhead.row }

val table4 :
  ?pool:Tea_parallel.Pool.t ->
  ?pgo:bool ->
  ?fuse:bool ->
  ?fuel:int ->
  bench list ->
  table4_row list
(** [pgo] profile-repacks the compiled column's image on each benchmark's
    own stream before measuring, [fuse] superstate-fuses it; both compose
    ({!Tea_pinsim.Overhead.measure}). *)

val render_table4 : table4_row list -> string

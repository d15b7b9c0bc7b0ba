(** Small statistics helpers used by the experiment tables. *)

val geomean : float list -> float
(** Geometric mean; zero/negative entries are skipped (the paper's tables
    never contain them). Returns 0 on an empty list. *)

val mean : float list -> float

val percent : float -> string
(** ["77%"] style, rounded to the nearest integer. *)

val percent1 : float -> string
(** ["99.8%"] style, one decimal. *)

val ratio : float -> string
(** ["13.53"] style, two decimals. *)

val kb : int -> int
(** Bytes to whole KB, rounding up (sizes under 1 KB still show as 1). *)

val savings : dbt:int -> tea:int -> float
(** [1 - tea/dbt], the Table 1 "Savings" fraction. *)

val rate : int -> float -> string
(** [rate units secs] — ["3.2M/s"]-style throughput; ["-"] when nothing
    was measured. *)

val render : ?title:string -> Tea_telemetry.Metrics.snapshot -> string
(** ASCII rendering of a telemetry snapshot: a counter table and, when
    present, a histogram table (count, sum, non-empty log2 buckets). The
    one sink for every metrics surface — `tea_tool --metrics` and the
    bench harness. Deterministic input renders deterministically (golden
    tested). *)

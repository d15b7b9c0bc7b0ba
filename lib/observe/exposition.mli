(** Prometheus-style text exposition.

    Families:

    - [tea_counter{name="..."}] — every registry counter;
    - [tea_histogram_bucket{name="...",le="..."}] /
      [_count] / [_sum] — cumulative log2 buckets ([le] is the bucket's
      inclusive integer upper bound; ["0"] for the [<= 0] bucket;
      ["+Inf"] closes the series) plus estimated
      [tea_histogram_quantile{...,q="0.5"|"0.95"|"0.99"}] rows;
    - [tea_dispatch_tier_total{tier="..."}] — the three dispatch tiers,
      zeros included, when a {!Tea_core.Tierstat} snapshot is supplied;
      per-state [tea_dispatch_state_total{state="...",tier="..."}] rows
      (original state ids) follow for every state that resolved a
      block;
    - [tea_drift_l1] / [tea_drift_threshold] gauges when a drift
      measurement is supplied;
    - [tea_loop_blocks_total{loop="..."}] — the blocks of the sessions
      each daemon event loop completed, every loop, zeros included,
      when [loops] is non-empty;
    - a [tea_image_epoch] gauge when an image epoch is supplied (the
      generation of the hot-swapped dispatch image; 0 = boot image).

    Deterministic: input snapshots are sorted, names go through
    {!Tea_telemetry.Metrics.sanitize_name}, label values through
    {!Tea_telemetry.Metrics.escape_label}, and floats use one fixed
    format — equal snapshots render to byte-equal text (the
    scrape-equals-offline gate builds on this). *)

val render :
  ?tiers:Tea_core.Tierstat.snapshot ->
  ?drift:float * float ->
  ?epoch:int ->
  ?loops:int array ->
  Tea_telemetry.Metrics.snapshot ->
  string
(** [drift] is [(distance, threshold)]. [epoch] is the current image
    epoch. [loops.(i)] is loop [i]'s block count (default: none). *)

(* Prometheus-style text exposition of a metrics snapshot, a dispatch
   tier snapshot, and a drift gauge. Deterministic: snapshots are sorted
   (Metrics sorts by name, Tierstat by state), names are sanitized and
   label values escaped through the Metrics helpers, and floats render
   with one fixed format — so equal snapshots produce byte-equal text
   and the goldens are stable. *)

module Metrics = Tea_telemetry.Metrics
module Tierstat = Tea_core.Tierstat

let fmt_float v =
  (* %.17g roundtrips doubles; trim the common integral case for
     readability ("3" not "3.0000000000000000") *)
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let quantiles = [ ("0.5", 0.5); ("0.95", 0.95); ("0.99", 0.99) ]

let render ?tiers ?drift ?epoch (s : Metrics.snapshot) =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b l) fmt in
  (* counters *)
  if s.Metrics.s_counters <> [] then begin
    line "# TYPE tea_counter counter\n";
    List.iter
      (fun (name, v) ->
        line "tea_counter{name=\"%s\"} %d\n"
          (Metrics.escape_label (Metrics.sanitize_name name))
          v)
      s.Metrics.s_counters
  end;
  (* histograms: cumulative buckets, count, sum, then the estimated
     quantiles (p50/p95/p99) *)
  if s.Metrics.s_histograms <> [] then begin
    line "# TYPE tea_histogram histogram\n";
    List.iter
      (fun (name, h) ->
        let name = Metrics.escape_label (Metrics.sanitize_name name) in
        let cum = ref 0 in
        List.iter
          (fun (bkt, n) ->
            cum := !cum + n;
            (* bucket 0 holds values <= 0; bucket k >= 1 holds
               [2^(k-1), 2^k), whose inclusive upper bound is 2^k - 1 *)
            let le = if bkt = 0 then "0" else string_of_int ((1 lsl bkt) - 1) in
            line "tea_histogram_bucket{name=\"%s\",le=\"%s\"} %d\n" name le !cum)
          h.Metrics.hs_buckets;
        line "tea_histogram_bucket{name=\"%s\",le=\"+Inf\"} %d\n" name
          h.Metrics.hs_count;
        line "tea_histogram_count{name=\"%s\"} %d\n" name h.Metrics.hs_count;
        line "tea_histogram_sum{name=\"%s\"} %d\n" name h.Metrics.hs_sum;
        List.iter
          (fun (lbl, q) ->
            line "tea_histogram_quantile{name=\"%s\",q=\"%s\"} %s\n" name lbl
              (fmt_float (Metrics.quantile h q)))
          quantiles)
      s.Metrics.s_histograms
  end;
  (* dispatch tiers: per-tier totals (every tier, zeros included, so the
     scrape always answers "which tiers exist"), then per-state rows for
     states that resolved at least one block *)
  (match tiers with
  | None -> ()
  | Some (ts : Tierstat.snapshot) ->
      line "# TYPE tea_dispatch_tier_total counter\n";
      for t = 0 to Tierstat.n_tiers - 1 do
        line "tea_dispatch_tier_total{tier=\"%s\"} %d\n" (Tierstat.tier_name t)
          ts.Tierstat.ts_totals.(t)
      done;
      let rows = ts.Tierstat.ts_states in
      if rows <> [] then begin
        line "# TYPE tea_dispatch_state_total counter\n";
        List.iter
          (fun (st, row) ->
            for t = 0 to Tierstat.n_tiers - 1 do
              if row.(t) <> 0 then
                line "tea_dispatch_state_total{state=\"%d\",tier=\"%s\"} %d\n"
                  st (Tierstat.tier_name t) row.(t)
            done)
          rows
      end);
  (* drift gauge *)
  (match drift with
  | None -> ()
  | Some (d, threshold) ->
      line "# TYPE tea_drift_l1 gauge\n";
      line "tea_drift_l1 %s\n" (fmt_float d);
      line "# TYPE tea_drift_threshold gauge\n";
      line "tea_drift_threshold %s\n" (fmt_float threshold));
  (* image epoch gauge: which generation of the hot-swapped image the
     daemon is dispatching through (0 = the image it booted with) *)
  (match epoch with
  | None -> ()
  | Some e ->
      line "# TYPE tea_image_epoch gauge\n";
      line "tea_image_epoch %d\n" e);
  Buffer.contents b

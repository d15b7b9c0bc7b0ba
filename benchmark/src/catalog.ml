(* Every metric the benchmark reports by name. BENCHMARK.json at the root
   of the repository declares the same names, units, directions and bounds
   (a unit test holds the two together). *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end only *)
}

let e2e name unit_ bound = { name; unit_; better = Lower; bound = Some bound }

let end_to_end =
  [
    e2e "ns_per_block_p50" "ns/block" 0.25;
    e2e "latency_ms_p50" "ms" 0.25;
    e2e "throughput_ns_per_block" "ns/block" 0.25;
    e2e "peak_rss_mb" "MB" 0.08;
    e2e "setup_s" "s" 0.25;
  ]

let layer ?(better = Lower) name unit_ = { name; unit_; better; bound = None }

let per_layer =
  [
    layer "setup.record_s" "s";
    layer "setup.build_s" "s";
    layer "setup.pgo_s" "s";
    layer "setup.fuse_s" "s";
    layer "setup.compile_s" "s";
    layer "pc_trace.read_ns_per_block" "ns/block";
    layer "pc_trace.decode_ns_per_block" "ns/block";
    layer "pc_trace.stream_decode_ns_per_block" "ns/block";
    layer "pc_trace.bytes_per_block" "B/block";
    layer "shard.replay_ns_per_block" "ns/block";
    layer ~better:Higher "pool.busy_frac" "ratio";
    layer "pool.wait_ms" "ms";
    layer "profile.merge_us" "us";
    layer "replay.feed_ns_per_block" "ns/block";
    layer "session.open_us" "us";
    layer ~better:Higher "dispatch.in_trace_frac" "ratio";
    layer "dispatch.global_miss_frac" "ratio";
    layer "dispatch.tier_frac.hash" "ratio";
    layer "compiled.closures" "count";
    layer ~better:Higher "compiled.region_states" "count";
    layer "frame.parse_ns_per_block" "ns/block";
    layer "profile.encode_us" "us";
    layer "profile.fold_us" "us";
    layer "ledger.unaccounted_frac" "ratio";
    layer "trace_overhead_frac" "ratio";
  ]

let find name =
  List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)

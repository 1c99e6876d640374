//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names; `--selftest` checks
//! the two against each other so they cannot drift apart.

/// `(name, unit, better, bound)`: what a user of the system sees. The
/// bound is the share of the parent's median by which the metric may get
/// worse before a change counts as a regression. One bound serves all
/// seven workloads, so the noisiest sets it: on the 2-core reference box
/// the timings of the TCP workloads spread up to 18 % between runs on ten
/// seeds, peak RSS under 2 % (README, "Bounds and the spread they come
/// from").
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("round_ms_p50", "ms", "lower", 0.25),
    ("rounds_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("wire_bytes_per_round", "bytes", "lower", 0.01),
];

/// `(name, unit, better)`: single layers, layer = crate name. No bounds.
pub const PER_LAYER: [(&str, &str, &str); 61] = [
    ("data.generate_ms", "ms", "lower"),
    ("graph.partition_ms", "ms", "lower"),
    ("sparse.normalize_ms", "ms", "lower"),
    ("sparse.spmm_ms", "ms", "lower"),
    ("sparse.spmm_nnz", "count", "lower"),
    ("sparse.spmm_gflops", "GFLOP/s", "higher"),
    ("tensor.gemm_fwd_ms", "ms", "lower"),
    ("tensor.gemm_wgrad_ms", "ms", "lower"),
    ("tensor.gemm_igrad_ms", "ms", "lower"),
    ("tensor.gemm_gflops", "GFLOP/s", "higher"),
    ("tensor.moments_ms", "ms", "lower"),
    ("autograd.forward_ms", "ms", "lower"),
    ("autograd.backward_ms", "ms", "lower"),
    ("autograd.cmd_value_ms", "ms", "lower"),
    ("autograd.cmd_grad_ms", "ms", "lower"),
    ("autograd.tape_nodes", "count", "lower"),
    ("autograd.overhead_ms", "ms", "lower"),
    ("nn.adam_step_ms", "ms", "lower"),
    ("nn.post_step_ms", "ms", "lower"),
    ("nn.params_copy_ms", "ms", "lower"),
    ("nn.model_scalars", "count", "lower"),
    ("federated.fold_ms", "ms", "lower"),
    ("federated.fold_finish_ms", "ms", "lower"),
    ("federated.cohort_sample_us", "us", "lower"),
    ("federated.eval_ms", "ms", "lower"),
    ("federated.uplink_bytes_per_round", "bytes", "lower"),
    ("federated.downlink_bytes_per_round", "bytes", "lower"),
    ("federated.stats_byte_share", "ratio", "lower"),
    ("core.run_init_ms", "ms", "lower"),
    ("core.first_round_ms", "ms", "lower"),
    ("core.round_ms_tail", "ms", "lower"),
    ("core.round_tail_pct", "pct", "higher"),
    ("core.round_samples", "count", "higher"),
    ("core.round_ms_max", "ms", "lower"),
    ("core.phase.local_train_ms", "ms", "lower"),
    ("core.phase.comms_ms", "ms", "lower"),
    ("core.phase.aggregation_ms", "ms", "lower"),
    ("core.phase.eval_ms", "ms", "lower"),
    ("core.phase.fold_overlap_ms", "ms", "lower"),
    ("core.phase.unattributed_ms", "ms", "lower"),
    ("core.phase.coverage", "ratio", "higher"),
    ("core.participants_per_round", "count", "higher"),
    ("core.frames_per_round", "count", "lower"),
    ("core.local_steps_per_round", "count", "lower"),
    ("core.stats.means_ms", "ms", "lower"),
    ("core.stats.moments_ms", "ms", "lower"),
    ("core.stats.fold_ms", "ms", "lower"),
    ("core.stats.targets_ms", "ms", "lower"),
    ("core.failed_round_share", "ratio", "lower"),
    ("transport.frame_bytes", "bytes", "lower"),
    ("transport.encode_ms", "ms", "lower"),
    ("transport.decode_ms", "ms", "lower"),
    ("transport.crc_mb_per_s", "MB/s", "higher"),
    ("transport.inproc_roundtrip_us", "us", "lower"),
    ("net.join_ms", "ms", "lower"),
    ("net.frame_rtt_ms", "ms", "lower"),
    ("net.small_frame_rtt_us", "us", "lower"),
    ("telemetry.trace_overhead_pct", "%", "lower"),
    ("telemetry.events_per_round", "count", "lower"),
    ("proc.cpu_s_per_round", "s", "lower"),
    ("proc.probe_coverage", "ratio", "higher"),
];

/// Measured values by metric name; a name not in the map is absent on
/// this workload (its layer does not run there).
pub type Values = std::collections::BTreeMap<&'static str, f64>;

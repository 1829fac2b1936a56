package main

// metricDef names one reported metric. For end-to-end metrics bound is the
// share of the parent's median by which the metric may worsen before a
// change counts as a regression; for layer metrics moves names the
// end-to-end metric and workload the layer should move.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd is printed by every untraced run, in this order.
var endToEnd = []metricDef{
	{name: "write_p50_us", unit: "us", better: "lower", bound: 0.2},
	{name: "write_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "read_p50_us", unit: "us", better: "lower", bound: 0.2},
	{name: "read_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "ok_frac", unit: "ratio", better: "higher", bound: 0.0001},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.2},
	{name: "failover_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer is printed by every traced run, in this order. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{name: "loadgen.late_p50_us", unit: "us", better: "lower", moves: "harness floor; should not move"},
	{name: "loadgen.late_p99_us", unit: "us", better: "lower", moves: "harness floor; should not move"},
	{name: "kvstore.do_p50_us", unit: "us", better: "lower", moves: "write_p50_us on kv-read, reconfig-failover"},
	{name: "kvstore.do_p90_us", unit: "us", better: "lower", moves: "write_p90_us on kv-read, reconfig-failover"},
	{name: "kvstore.fastget_follower_p50_us", unit: "us", better: "lower", moves: "read_p50_us on kv-read"},
	{name: "kvstore.fastget_follower_p90_us", unit: "us", better: "lower", moves: "read_p90_us on kv-read"},
	{name: "kvstore.fastget_lease_p50_us", unit: "us", better: "lower", moves: "read_p50_us on reconfig-failover"},
	{name: "kvstore.fastget_lease_p90_us", unit: "us", better: "lower", moves: "read_p90_us on reconfig-failover"},
	{name: "kvstore.retries_per_kop", unit: "count", better: "lower", moves: "ok_frac and failover_p50_ms on reconfig-failover"},
	{name: "kvstore.apply_lag_p50", unit: "entries", better: "lower", moves: "read_p90_us on kv-read"},
	{name: "kvstore.apply_lag_p99", unit: "entries", better: "lower", moves: "read_p90_us on kv-read"},
	{name: "raft.batch_wait_p50_us", unit: "us", better: "lower", moves: "write_p50_us on kv-write-tcp"},
	{name: "raft.batch_wait_p90_us", unit: "us", better: "lower", moves: "write_p90_us on kv-write-tcp"},
	{name: "raft.batch_entries_mean", unit: "count", better: "higher", moves: "max_rate_ops and cpu_us_per_op on kv-write-tcp"},
	{name: "raft.propose_p50_us", unit: "us", better: "lower", moves: "write_p50_us on kv-write-tcp"},
	{name: "raft.apply_wait_p50_us", unit: "us", better: "lower", moves: "write_p50_us on kv-write-tcp"},
	{name: "raft.apply_wait_p90_us", unit: "us", better: "lower", moves: "write_p90_us on kv-write-tcp"},
	{name: "raft.wal_save_leader_p50_us", unit: "us", better: "lower", moves: "write_p50_us on kv-write-tcp, reconfig-failover"},
	{name: "raft.wal_save_leader_p99_us", unit: "us", better: "lower", moves: "write_p90_us on kv-write-tcp, reconfig-failover"},
	{name: "raft.wal_save_follower_p50_us", unit: "us", better: "lower", moves: "write_p50_us on kv-write-tcp, reconfig-failover"},
	{name: "raft.wal_save_follower_p99_us", unit: "us", better: "lower", moves: "write_p90_us on kv-write-tcp, reconfig-failover"},
	{name: "raft.wal_syncs_per_op", unit: "count", better: "lower", moves: "max_rate_ops on kv-write-tcp"},
	{name: "raft.wal_busy_frac", unit: "ratio", better: "lower", moves: "write_p90_us on kv-write-tcp"},
	{name: "raft.wal_bytes_per_op", unit: "bytes", better: "lower", moves: "cpu_us_per_op on kv-write-tcp"},
	{name: "raft.snapshot_save_p50_ms", unit: "ms", better: "lower", moves: "write_p90_us and peak_rss_mb on every workload"},
	{name: "raftcore.reads_coalesced_frac", unit: "ratio", better: "higher", moves: "read_p90_us on kv-read"},
	{name: "raftcore.barriers_per_read", unit: "count", better: "lower", moves: "read_p90_us on kv-read"},
	{name: "raftcore.lease_hit_frac", unit: "ratio", better: "higher", moves: "read_p50_us on reconfig-failover"},
	{name: "raftcore.elections_per_crash", unit: "count", better: "lower", moves: "failover_p50_ms on every workload"},
	{name: "raftcore.transfers_aborted", unit: "count", better: "lower", moves: "failover_p50_ms on reconfig-failover"},
	{name: "transport.msgs_per_op", unit: "count", better: "lower", moves: "cpu_us_per_op on every workload"},
	{name: "transport.send_p50_us", unit: "us", better: "lower", moves: "write_p50_us on kv-write-tcp"},
	{name: "transport.hop_p50_us", unit: "us", better: "lower", moves: "write_p50_us on kv-write-tcp"},
	{name: "transport.dropped", unit: "count", better: "lower", moves: "ok_frac on every workload"},
	{name: "transport.shed", unit: "count", better: "lower", moves: "ok_frac on kv-write-tcp"},
	{name: "multiraft.group_p90_max_us", unit: "us", better: "lower", moves: "write_p90_us on kv-write-tcp"},
	{name: "cluster.reconfigure_keep_p50_ms", unit: "ms", better: "lower", moves: "write_p90_us on reconfig-failover"},
	{name: "cluster.reconfigure_keep_max_ms", unit: "ms", better: "lower", moves: "write_p90_us on reconfig-failover"},
	{name: "cluster.reconfigure_drop_leader_p50_ms", unit: "ms", better: "lower", moves: "write_p90_us on reconfig-failover"},
	{name: "cluster.reconfigure_drop_leader_max_ms", unit: "ms", better: "lower", moves: "write_p90_us on reconfig-failover"},
	{name: "cluster.leaderless_p50_ms", unit: "ms", better: "lower", moves: "failover_p50_ms on every workload"},
	{name: "go.alloc_bytes_per_op", unit: "bytes", better: "lower", moves: "cpu_us_per_op on every workload"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower", moves: "write_p90_us on every workload"},
	{name: "stage.batch_wait_p50_us", unit: "us", better: "lower", moves: "write_p50_us on kv-write-tcp"},
	{name: "stage.leader_wal_p50_us", unit: "us", better: "lower", moves: "write_p50_us on kv-write-tcp"},
	{name: "stage.hop_quorum_p50_us", unit: "us", better: "lower", moves: "write_p50_us on kv-write-tcp"},
	{name: "stage.apply_wake_p50_us", unit: "us", better: "lower", moves: "write_p50_us on kv-write-tcp"},
	{name: "stage.median_put_sum_ratio", unit: "ratio", better: "higher", moves: "check: the median put's stages sum to its latency"},
	{name: "stage.median_sum_ratio", unit: "ratio", better: "higher", moves: "sum of stage medians over the median put latency"},
	{name: "trace.overhead_write_p50_us", unit: "us", better: "lower", moves: "traced minus untraced write_p50_us"},
	{name: "trace.overhead_cpu_us_per_op", unit: "us", better: "lower", moves: "traced minus untraced cpu_us_per_op"},
	{name: "calib.sleep_50us_p50_us", unit: "us", better: "lower", moves: "machine calibration"},
	{name: "calib.fsync_p50_us", unit: "us", better: "lower", moves: "machine calibration"},
	{name: "calib.tcp_rtt_p50_us", unit: "us", better: "lower", moves: "machine calibration"},
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"adore/internal/kvstore"
)

// tracedRun measures the nominal load untraced and then traced, so the
// difference is the tracing overhead, then (except where the load itself
// crashes leaders) a traced failover phase. Per-layer metrics come from
// the traced phases.
func (r *runner) tracedRun(dur time.Duration, m map[string]float64, cal calibration) ([]*op, error) {
	var steps []eventStep
	if r.w.reconfig {
		steps = r.reconfigSteps()
	}
	if err := r.warm(); err != nil {
		return nil, err
	}
	u, err := r.phase(r.w.rate, share(dur, 0.3), steps, r.w.eventEvery, false)
	if err != nil {
		return nil, err
	}
	tp, err := r.phase(r.w.rate, share(dur, 0.45), steps, r.w.eventEvery, true)
	if err != nil {
		return nil, err
	}
	measured := append(append([]*op(nil), u.ph.ops...), tp.ph.ops...)
	uPuts, _, _ := latencies(u.ph.ops)
	tPuts, _, _ := latencies(tp.ph.ops)
	m["trace.overhead_write_p50_us"] = us(tPuts.Quantile(0.5)) - us(uPuts.Quantile(0.5))
	m["trace.overhead_cpu_us_per_op"] = ratio(us(tp.cpu), float64(len(tp.ph.ops))) - ratio(us(u.cpu), float64(len(u.ph.ops)))
	if err := r.layerMetrics(tp, m); err != nil {
		return nil, err
	}

	crashPhase := tp
	if !r.w.reconfig {
		fp, err := r.phase(r.w.rate, share(dur, 0.25), r.crashSteps(), crashEvery, true)
		if err != nil {
			return nil, err
		}
		measured = append(measured, fp.ph.ops...)
		crashPhase = fp
	}
	var leaderless []float64
	for _, c := range crashPhase.ev.crashes {
		leaderless = append(leaderless, ms(c.leaderless))
	}
	m["cluster.leaderless_p50_ms"] = median(leaderless)
	m["raftcore.elections_per_crash"] = ratio(float64(crashPhase.ctr.core.Elections), float64(len(crashPhase.ev.crashes)))
	m["raftcore.transfers_aborted"] = float64(crashPhase.ctr.core.TransfersAborted)
	m["kvstore.retries_per_kop"] = 1000 * ratio(float64(tp.ctr.retries+crashPhase.ctr.retries), float64(len(measured)-len(u.ph.ops)))

	m["calib.sleep_50us_p50_us"] = cal.Sleep50us
	m["calib.fsync_p50_us"] = cal.FsyncUs
	m["calib.tcp_rtt_p50_us"] = cal.TCPRttUs
	return measured, nil
}

// layerMetrics derives the per-layer numbers of one traced phase.
func (r *runner) layerMetrics(tp *phaseOut, m map[string]float64) error {
	ops := tp.ph.ops
	n := float64(len(ops))
	m["loadgen.late_p50_us"] = us(tp.ph.late.Quantile(0.5))
	m["loadgen.late_p99_us"] = us(tp.ph.late.Quantile(0.99))

	// Calls into the kvstore client, timed from when a session made them.
	var do, get, propose, applyWait Samples
	groupPuts := map[int]*Samples{}
	acked := 0
	for _, o := range ops {
		if !o.ok {
			continue
		}
		if o.put {
			acked++
			do.Add(o.end - o.issued)
			if o.waited > 0 {
				propose.Add(o.waited - o.proposed)
				applyWait.Add(o.end - o.waited)
			}
			if groupPuts[o.group] == nil {
				groupPuts[o.group] = &Samples{}
			}
			groupPuts[o.group].Add(o.latency())
		} else {
			get.Add(o.end - o.issued)
		}
	}
	if s, ok := r.sys.(*replSystem); ok {
		m["kvstore.do_p50_us"] = us(do.Quantile(0.5))
		m["kvstore.do_p90_us"] = us(do.Quantile(0.9))
		mode := "lease"
		if s.mode == kvstore.ReadModeFollower {
			mode = "follower"
		}
		m["kvstore.fastget_"+mode+"_p50_us"] = us(get.Quantile(0.5))
		m["kvstore.fastget_"+mode+"_p90_us"] = us(get.Quantile(0.9))
	}
	m["raft.propose_p50_us"] = us(propose.Quantile(0.5))
	m["raft.apply_wait_p50_us"] = us(applyWait.Quantile(0.5))
	m["raft.apply_wait_p90_us"] = us(applyWait.Quantile(0.9))
	var worst time.Duration
	for _, s := range groupPuts {
		if p := s.Quantile(0.9); p > worst {
			worst = p
		}
	}
	m["multiraft.group_p90_max_us"] = us(worst)

	m["kvstore.apply_lag_p50"] = quantile(r.lag, 0.5)
	m["kvstore.apply_lag_p99"] = quantile(r.lag, 0.99)

	t := r.t
	t.mu.Lock()
	m["raft.wal_save_leader_p50_us"] = us(t.walLeader.Quantile(0.5))
	m["raft.wal_save_leader_p99_us"] = us(t.walLeader.Quantile(0.99))
	m["raft.wal_save_follower_p50_us"] = us(t.walFollow.Quantile(0.5))
	m["raft.wal_save_follower_p99_us"] = us(t.walFollow.Quantile(0.99))
	m["raft.snapshot_save_p50_ms"] = ms(t.snapSave.Quantile(0.5))
	m["transport.send_p50_us"] = us(t.sendTime.Quantile(0.5))
	entries := 0
	for _, b := range t.batch {
		entries += b
	}
	m["raft.batch_entries_mean"] = ratio(float64(entries), float64(len(t.batch)))
	var busiest time.Duration
	for _, b := range t.walBusy {
		if b > busiest {
			busiest = b
		}
	}
	t.mu.Unlock()
	if r.w.durable {
		m["raft.wal_syncs_per_op"] = ratio(float64(tp.syncs), n)
		m["raft.wal_busy_frac"] = ratio(float64(busiest), float64(tp.wall))
		m["raft.wal_bytes_per_op"] = ratio(float64(r.walGrowth()), float64(acked))
	}

	core := tp.ctr.core
	reads := float64(get.N())
	m["raftcore.reads_coalesced_frac"] = ratio(float64(core.ReadsCoalesced), float64(core.ReadBarriers+core.ReadsCoalesced))
	m["raftcore.barriers_per_read"] = ratio(float64(core.ReadBarriers), reads)
	m["raftcore.lease_hit_frac"] = ratio(float64(core.LeaseReads), reads)
	m["transport.msgs_per_op"] = ratio(float64(tp.ctr.msgs), n)
	m["transport.dropped"] = float64(tp.ctr.dropped)
	m["transport.shed"] = float64(tp.ctr.shed)
	m["go.alloc_bytes_per_op"] = ratio(float64(tp.alloc), n)
	m["go.gc_pause_ms"] = ms(tp.gcPause)

	var keep, drop Samples
	for _, rc := range tp.ev.reconf {
		if rc.dropLeader {
			drop.Add(rc.took)
		} else {
			keep.Add(rc.took)
		}
	}
	m["cluster.reconfigure_keep_p50_ms"] = ms(keep.Quantile(0.5))
	m["cluster.reconfigure_keep_max_ms"] = ms(keep.Max())
	m["cluster.reconfigure_drop_leader_p50_ms"] = ms(drop.Quantile(0.5))
	m["cluster.reconfigure_drop_leader_max_ms"] = ms(drop.Max())

	return r.stageMetrics(ops, m)
}

// stageMetrics splits each acknowledged put's blocking path into batch
// wait, leader WAL save, hop plus the quorum follower's save, and
// commit-apply-wake, writes the spans out, and checks that the median
// put's stages add up to its latency.
func (r *runner) stageMetrics(ops []*op, m map[string]float64) error {
	quorum := 2
	if r.w.reconfig {
		quorum = 3 // majority of the full five-node configuration
	}
	var all []tracedPut
	var bw, wal, hq, aw, hop Samples
	for _, o := range ops {
		if !o.put || !o.ok {
			continue
		}
		st := r.t.stagesOf(o, quorum)
		if !st.ok {
			continue
		}
		all = append(all, tracedPut{o, st})
		bw.Add(st.batchWait)
		wal.Add(st.leaderWAL)
		hq.Add(st.hopQuorum)
		aw.Add(st.applyWake)
		if st.hop > 0 {
			hop.Add(st.hop)
		}
	}
	m["raft.batch_wait_p50_us"] = us(bw.Quantile(0.5))
	m["raft.batch_wait_p90_us"] = us(bw.Quantile(0.9))
	m["stage.batch_wait_p50_us"] = us(bw.Quantile(0.5))
	m["stage.leader_wal_p50_us"] = us(wal.Quantile(0.5))
	m["stage.hop_quorum_p50_us"] = us(hq.Quantile(0.5))
	m["stage.apply_wake_p50_us"] = us(aw.Quantile(0.5))
	m["transport.hop_p50_us"] = us(hop.Quantile(0.5))
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].o.latency() < all[j].o.latency() })
	med := all[(len(all)-1)/2]
	sum := med.st.batchWait + med.st.leaderWAL + med.st.hopQuorum + med.st.applyWake
	m["stage.median_put_sum_ratio"] = ratio(float64(sum), float64(med.o.latency()))
	var lat Samples
	for _, a := range all {
		lat.Add(a.o.latency())
	}
	m["stage.median_sum_ratio"] = ratio(float64(bw.Quantile(0.5)+wal.Quantile(0.5)+hq.Quantile(0.5)+aw.Quantile(0.5)),
		float64(lat.Quantile(0.5)))
	fmt.Fprintf(r.out, "stages: %d of %d requests traced (acknowledged puts only); median put %.0f us = %.0f + %.0f + %.0f + %.0f us\n",
		len(all), len(ops), us(med.o.latency()), us(med.st.batchWait), us(med.st.leaderWAL), us(med.st.hopQuorum), us(med.st.applyWake))
	if err := r.writeSpans(all); err != nil {
		return err
	}
	if ratioOff := m["stage.median_put_sum_ratio"] - 1; r.w.name == "kv-write-tcp" && (ratioOff > 0.1 || ratioOff < -0.1) {
		return fmt.Errorf("median put's stages add up to %.3f of its latency, want within 10%%", m["stage.median_put_sum_ratio"])
	}
	return nil
}

type tracedPut struct {
	o  *op
	st stages
}

// writeSpans dumps every traced put's stages, one JSON object per line,
// under .bench_build/traces.
func (r *runner) writeSpans(all []tracedPut) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, a := range all {
		o, st := a.o, a.st
		_ = enc.Encode(map[string]any{
			"value": o.val[:24], "key": keyName(o.key), "group": o.group,
			"due_us": us(o.due), "latency_us": us(o.latency()),
			"batch_wait_us": us(st.batchWait), "leader_wal_us": us(st.leaderWAL),
			"hop_quorum_us": us(st.hopQuorum), "apply_wake_us": us(st.applyWake),
		})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(r.out, "spans written to %s\n", path)
	return nil
}

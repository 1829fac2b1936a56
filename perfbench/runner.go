package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// runner holds one workload run: the deployment, the generator over its
// sessions, and the history every check reads.
type runner struct {
	w    workload
	out  *bufio.Writer
	t    *tracer
	seed int64
	root string
	wal  string // WAL root of the measured deployment

	sys  system
	lg   *loadgen
	hist []*op

	// Sampled during traced phases.
	lag     []float64
	walSeen map[string]int64 // WAL file → largest size seen
	walBase map[string]int64 // WAL file → size when the phase began
}

// phaseOut is one phase's record plus the process and program totals
// that moved during it.
type phaseOut struct {
	ph      *phase
	wall    time.Duration
	cpu     time.Duration
	ctr     counters
	syncs   int64
	alloc   uint64
	gcPause time.Duration
	ev      *eventLog
}

// eventLog is written by the events goroutine only, and read after it
// has exited.
type eventLog struct {
	crashes []crashRec
	reconf  []reconfRec
	err     error
}

type reconfRec struct {
	dropLeader bool
	took       time.Duration
}

type eventStep func(ev *eventLog) error

func runOne(out *bufio.Writer, w workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	root, err := scratchDir("tmp")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	waited, steal := waitQuietHost()
	cal, err := calibrate(root)
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	cb, _ := json.Marshal(cal)
	fmt.Fprintf(out, "workload %s seed %d seconds %.0f trace %v rate %.0f/s puts %.0f%% sessions %d limit %v\n",
		w.name, seed, dur.Seconds(), traced, w.rate, 100*w.putFrac, poolSize, latencyLimit)
	fmt.Fprintf(out, "calibration %s\n", cb)
	fmt.Fprintf(out, "host check: waited %.0f s for a quiet host; last probe saw %.1f%% of CPU time stolen\n",
		waited.Seconds(), 100*steal)

	steal0, total0 := cpuTicks()
	defer func() {
		steal1, total1 := cpuTicks()
		fmt.Fprintf(out, "machine steal during the run: %.1f%% of CPU time\n",
			100*ratio(float64(steal1-steal0), float64(total1-total0)))
	}()
	r := &runner{w: w, out: out, t: newTracer(), seed: seed, root: root}
	setupS, err := r.setup()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	m := map[string]float64{"setup_s": setupS}
	var measured []*op
	if traced {
		measured, err = r.tracedRun(dur, m, cal)
	} else {
		measured, err = r.untracedRun(dur, m)
	}
	r.lg.close()
	if err != nil {
		_ = r.sys.stop()
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metricVal{}}
	for _, o := range measured {
		res.Attempted++
		if !o.ok {
			res.Failed++
		}
	}
	viol := r.verify()
	for _, v := range viol {
		fmt.Fprintf(out, "VIOLATION %s\n", v)
	}
	res.Correct = len(viol) == 0
	if traced {
		printMetrics(out, perLayer, m, res)
	} else {
		m["ok_frac"] = 1 - ratio(float64(res.Failed), float64(res.Attempted))
		fmt.Fprintf(out, "fail_frac %.6f ratio (%d of %d requests; gated as ok_frac = 1 - fail_frac)\n",
			ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
		printMetrics(out, endToEnd, m, res)
	}
	return res, nil
}

// setup builds the deployment and preloads every key, setupRuns times;
// the last one is kept and setup_s is the median.
func (r *runner) setup() (float64, error) {
	var times []float64
	for i := 0; i < setupRuns; i++ {
		dir := filepath.Join(r.root, fmt.Sprintf("wal%d", i))
		t0 := time.Now()
		sys, err := r.w.start(r.seed, dir, r.t)
		if err != nil {
			return 0, err
		}
		mx := newMix(r.seed, r.w.putFrac)
		lg := newLoadgen(mx, sys.sessions(poolSize), opTimeout)
		pre := mx.preload()
		err = lg.closedLoop(pre, 30*time.Second)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			lg.close()
			_ = sys.stop()
			return 0, err
		}
		if i == setupRuns-1 {
			r.sys, r.lg, r.hist, r.wal = sys, lg, pre, dir
			break
		}
		lg.close()
		if _, err := sys.quiesce(); err != nil {
			_ = sys.stop()
			return 0, err
		}
		if err := sys.stop(); err != nil {
			return 0, err
		}
	}
	fmt.Fprintf(r.out, "setup runs (s): %v\n", times)
	return median(times), nil
}

// verify quiesces the deployment and runs every correctness check on the
// whole history: identical replicas, acknowledged puts surviving, reads
// fresh, and each WAL rebuilding its store.
func (r *runner) verify() []string {
	final, err := r.sys.quiesce()
	if err != nil {
		_ = r.sys.stop()
		return []string{err.Error()}
	}
	viol := checkHistory(r.hist, final)
	if err := r.sys.stop(); err != nil {
		viol = append(viol, err.Error())
	}
	return viol
}

// share is fraction f of dur.
func share(dur time.Duration, f float64) time.Duration {
	return time.Duration(float64(dur) * f)
}

// untracedRun measures the nominal load as one phase, then a failover
// phase of repeated leader crashes, and on workloads that have one the
// rate ladder last, so no overload precedes a measured phase. The
// reconfiguration workload runs its cycle during the nominal phase. Every
// latency and CPU figure covers every request of the nominal phase; the
// gated latency percentiles are medians over its slices (sliceMedian).
func (r *runner) untracedRun(dur time.Duration, m map[string]float64) ([]*op, error) {
	var steps []eventStep
	if r.w.reconfig {
		steps = r.reconfigSteps()
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	if err := r.warm(); err != nil {
		return nil, err
	}
	nom, err := r.phase(r.w.rate, share(dur, 0.75), steps, r.w.eventEvery, false)
	if err != nil {
		return nil, err
	}
	m["peak_rss_mb"] = peakRSS()
	measured := nom.ph.ops
	puts, reads, nf := latencies(measured)
	m["write_p50_us"], m["read_p50_us"] = sliceMedian(nom.ph, nominalSlices, 0.5)
	m["write_p90_us"], m["read_p90_us"] = sliceMedian(nom.ph, nominalSlices, 0.9)
	m["cpu_us_per_op"] = ratio(us(nom.cpu), float64(len(measured)))
	fmt.Fprintf(r.out, "nominal: %d puts, %d reads, %d failed; generator late p50 %.0f us p99 %.0f us\n",
		puts.N(), reads.N(), nf, us(nom.ph.late.Quantile(0.5)), us(nom.ph.late.Quantile(0.99)))
	for _, q := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
		fmt.Fprintf(r.out, "nominal whole-phase p%.0f: put %.0f us, read %.0f us\n", 100*q, us(puts.Quantile(q)), us(reads.Quantile(q)))
	}

	fo, err := r.phase(r.w.rate, share(dur, 0.25), r.crashSteps(), crashEvery, false)
	if err != nil {
		return nil, err
	}
	measured = append(measured, fo.ph.ops...)
	fv := append(failovers(nom.ev.crashes, nom.ph.ops), failovers(fo.ev.crashes, fo.ph.ops)...)
	fp, fr, ff := latencies(fo.ph.ops)
	fmt.Fprintf(r.out, "failover phase: put p99 %.0f us max %.0f us, read p99 %.0f us max %.0f us, %d failed\n",
		us(fp.Quantile(0.99)), us(fp.Max()), us(fr.Quantile(0.99)), us(fr.Max()), ff)
	fmt.Fprintf(r.out, "failover (ms) over %d crashes: %.1f\n", len(nom.ev.crashes)+len(fo.ev.crashes), fv)
	m["failover_p50_ms"] = median(fv)

	if r.w.ladder {
		best, ladderSteps, capped := ladder(2*r.w.rate, maxLadderSteps, latencyLimit, r.step)
		for _, s := range ladderSteps {
			fmt.Fprintf(r.out, "ladder: rate %.0f/s p90 %.0f us failed %d backlog grew %v pass %v\n",
				s.rate, us(s.p90), s.failed, s.grew, s.pass(latencyLimit))
		}
		bound := ""
		if capped {
			bound = ", step budget used up: a lower bound"
		}
		// Reported, not gated: the knee moves with what else the machine runs.
		fmt.Fprintf(r.out, "max_rate_ops %.1f ops/s (ladder, p90 limit %v%s; not gated)\n", best, latencyLimit, bound)
	}
	return measured, nil
}

// warm runs the nominal load for warmUp, unmeasured; its requests join the
// history every check reads.
func (r *runner) warm() error {
	_, err := r.phase(r.w.rate, warmUp, nil, 0, false)
	return err
}

// step runs one ladder rung and judges it by the worse of its write and
// read p90.
func (r *runner) step(rate float64) step {
	ph := r.lg.run(rate, stepDur)
	if err := r.lg.drain(30 * time.Second); err != nil {
		return step{rate: rate, failed: r.lg.backlog()}
	}
	r.hist = append(r.hist, ph.ops...)
	puts, reads, nf := latencies(ph.ops)
	p90 := puts.Quantile(0.9)
	if r := reads.Quantile(0.9); r > p90 {
		p90 = r
	}
	return step{rate: rate, p90: p90, failed: nf, grew: backlogGrew(ph.backlog, rate)}
}

// failovers returns, per crash, the time from the crash to the end of the
// first put that was due after it, went to a group the victim led, and
// succeeded.
func failovers(crashes []crashRec, ops []*op) []float64 {
	var out []float64
	for _, c := range crashes {
		var first *op
		for _, o := range ops {
			if !o.put || !o.ok || o.due <= c.at || (first != nil && o.due >= first.due) {
				continue
			}
			for _, g := range c.groups {
				if o.group == g {
					first = o
					break
				}
			}
		}
		if first != nil {
			out = append(out, ms(first.end-c.at))
		}
	}
	return out
}

// phase runs the generator at rate for dur, with steps firing in the
// background, and waits until every request it issued has completed.
func (r *runner) phase(rate float64, dur time.Duration, steps []eventStep, every time.Duration, traced bool) (*phaseOut, error) {
	var stopSampler, samplerDone chan struct{}
	if traced {
		r.t.reset()
		r.lag = nil
		r.walSeen, r.walBase = map[string]int64{}, nil
		r.t.spans.Store(true)
		stopSampler, samplerDone = make(chan struct{}), make(chan struct{})
		go r.sampler(stopSampler, samplerDone)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0, s0, cpu0, t0 := r.sys.counters(), r.t.syncs.Load(), cpuTime(), now()
	ev := &eventLog{}
	var stopEv, evDone chan struct{}
	if len(steps) > 0 {
		stopEv, evDone = make(chan struct{}), make(chan struct{})
		go runEvents(steps, every, stopEv, evDone, ev)
	}
	ph := r.lg.run(rate, dur)
	if stopEv != nil {
		close(stopEv)
		<-evDone
	}
	err := r.lg.drain(30 * time.Second)
	po := &phaseOut{ph: ph, wall: now() - t0, cpu: cpuTime() - cpu0, ctr: r.sys.counters().minus(c0),
		syncs: r.t.syncs.Load() - s0, ev: ev}
	runtime.ReadMemStats(&ms1)
	po.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	po.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	if traced {
		r.t.spans.Store(false)
		close(stopSampler)
		<-samplerDone
	}
	r.hist = append(r.hist, ph.ops...)
	if err != nil {
		return nil, err
	}
	if ev.err != nil {
		return nil, fmt.Errorf("event: %w", ev.err)
	}
	return po, nil
}

// runEvents fires steps in order, one every interval, cycling. On stop it
// finishes the current cycle without waiting, so the deployment ends in
// its initial shape (full membership, no node down).
func runEvents(steps []eventStep, every time.Duration, stop, done chan struct{}, ev *eventLog) {
	defer close(done)
	timer := time.NewTimer(every)
	defer timer.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			for ; i%len(steps) != 0; i++ {
				if err := steps[i%len(steps)](ev); err != nil {
					ev.err = err
					return
				}
			}
			return
		case <-timer.C:
		}
		if err := steps[i%len(steps)](ev); err != nil {
			ev.err = err
			return
		}
		timer.Reset(every)
	}
}

// crashSteps crash the leader of group 0 and restart it from its storage.
func (r *runner) crashSteps() []eventStep {
	var pending crashRec
	return []eventStep{
		func(ev *eventLog) error {
			c, err := r.sys.crashLeader()
			if err != nil {
				return err
			}
			pending = c
			ev.crashes = append(ev.crashes, c)
			return nil
		},
		func(ev *eventLog) error { return r.sys.restart(pending) },
	}
}

// reconfigSteps are the Fig. 16 cycle plus a fault: 5→4 removing a
// follower, 4→3 removing the leader (which forces a transfer), 3→4→5
// adding both back, then a leader crash and its restart from the WAL.
func (r *runner) reconfigSteps() []eventStep {
	s := r.sys.(*replSystem)
	var removed []types.NodeID
	change := func(ev *eventLog, pick func(l *raft.Node) (types.NodeSet, error)) error {
		l, _, err := s.members()
		if err != nil {
			return err
		}
		target, err := pick(l)
		if err != nil {
			return err
		}
		drop, took, err := s.reconfigure(target)
		if err != nil {
			return err
		}
		ev.reconf = append(ev.reconf, reconfRec{dropLeader: drop, took: took})
		return nil
	}
	rmFollower := func(ev *eventLog) error {
		return change(ev, func(l *raft.Node) (types.NodeSet, error) {
			var v types.NodeID
			for _, id := range l.Members().Slice() {
				if id != l.ID() && id > v {
					v = id
				}
			}
			removed = append(removed, v)
			return l.Members().Remove(v), nil
		})
	}
	rmLeader := func(ev *eventLog) error {
		return change(ev, func(l *raft.Node) (types.NodeSet, error) {
			removed = append(removed, l.ID())
			return l.Members().Remove(l.ID()), nil
		})
	}
	addBack := func(ev *eventLog) error {
		return change(ev, func(l *raft.Node) (types.NodeSet, error) {
			if len(removed) == 0 {
				return types.NodeSet{}, fmt.Errorf("no removed node to add back")
			}
			v := removed[0]
			removed = removed[1:]
			return l.Members().Add(v), nil
		})
	}
	return append([]eventStep{rmFollower, rmLeader, addBack, addBack}, r.crashSteps()...)
}

// sampler refreshes the leader map, samples apply lag and tracks WAL
// file sizes while a traced phase runs.
func (r *runner) sampler(stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		r.sys.sample(r.t, &r.lag)
		if r.w.durable {
			r.scanWAL()
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// scanWAL records the largest size seen of every file under the WAL root.
// Summed growth over a phase is the bytes the WAL wrote, compaction
// unlinks notwithstanding (a file unlinked between two scans is missed).
func (r *runner) scanWAL() {
	first := r.walBase == nil
	if first {
		r.walBase = map[string]int64{}
	}
	_ = filepath.WalkDir(r.wal, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		if first {
			r.walBase[path] = info.Size()
		}
		if info.Size() > r.walSeen[path] {
			r.walSeen[path] = info.Size()
		}
		return nil
	})
}

func (r *runner) walGrowth() int64 {
	var total int64
	for p, sz := range r.walSeen {
		total += sz - r.walBase[p]
	}
	return total
}

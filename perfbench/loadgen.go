package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// keyspace is the number of distinct keys; valueSize the bytes per value.
const (
	keyspace  = 10000
	valueSize = 64
	// grid is the schedule's slot width. time.Sleep cannot wake much
	// finer than ~1 ms, so due times are quantized to 1 ms slots and every
	// request due at a wake-up is issued at once.
	grid = time.Millisecond
	// queueCap bounds the requests waiting for a free session. It must
	// hold the whole preload (keyspace puts issued at once); a request
	// that finds it full fails as shed.
	queueCap = 4 * keyspace
)

var origin = time.Now()

// now is the process-relative clock every timestamp in a history uses.
func now() time.Duration { return time.Since(origin) }

// op is one request and, once done, its outcome. Times are offsets from
// origin. A request is timed from due, the instant the schedule made it
// due, whatever happened before a session picked it up.
type op struct {
	idx   int
	put   bool
	key   int
	val   string // put: the value written; read: the value returned
	found bool   // read: the key existed
	group int    // raft group the key maps to (set by the session)

	due      time.Duration
	deadline time.Duration // the request fails if not done by then
	issued   time.Duration // a session started the call (0: never sent)
	end      time.Duration
	ok       bool

	// Stamps a session may set for the per-layer breakdown (0 = unset):
	// when the successful attempt called ProposeAsync and when its
	// Proposal.Wait returned.
	proposed, waited time.Duration
}

func (o *op) latency() time.Duration { return o.end - o.due }

func keyName(k int) string { return fmt.Sprintf("k%05d", k) }

// session is one client identity. The pool never runs two requests on one
// session at a time, so per-session sequence numbers commit in order.
type session interface {
	put(o *op, deadline time.Duration) error
	read(o *op, deadline time.Duration) error
}

// mix draws the request stream from the seed: which op, which key, and a
// value that is unique per request.
type mix struct {
	rng     *rand.Rand
	putFrac float64
	tag     string
	n       int
}

func newMix(seed int64, putFrac float64) *mix {
	return &mix{rng: rand.New(rand.NewSource(seed)), putFrac: putFrac, tag: fmt.Sprintf("s%d", seed)}
}

// pad extends a unique prefix to a valueSize-byte value.
func pad(v string) string {
	for len(v) < valueSize {
		v += "abcdefghijklmnopqrstuvwxyz0123456789"
	}
	return v[:valueSize]
}

// value is the payload of request i.
func (m *mix) value(i int) string { return pad(fmt.Sprintf("%s-r%d-", m.tag, i)) }

// preload returns one put per key, so every read finds a value.
func (m *mix) preload() []*op {
	ops := make([]*op, keyspace)
	for k := range ops {
		ops[k] = &op{idx: -1 - k, put: true, key: k, val: pad(fmt.Sprintf("%s-p%d-", m.tag, k))}
	}
	return ops
}

func (m *mix) next() *op {
	o := &op{idx: m.n, key: m.rng.Intn(keyspace)}
	if m.rng.Float64() < m.putFrac {
		o.put = true
		o.val = m.value(m.n)
	}
	m.n++
	return o
}

// loadgen is the open-loop generator and the fixed pool of sessions that
// serve its queue, one worker goroutine per session.
type loadgen struct {
	mix     *mix
	timeout time.Duration // per request, from its due time
	queue   chan *op
	issued  atomic.Int64
	done    atomic.Int64
	wg      sync.WaitGroup
}

func newLoadgen(m *mix, sessions []session, timeout time.Duration) *loadgen {
	lg := &loadgen{mix: m, timeout: timeout, queue: make(chan *op, queueCap)}
	for _, s := range sessions {
		lg.wg.Add(1)
		go lg.worker(s)
	}
	return lg
}

func (lg *loadgen) worker(s session) {
	defer lg.wg.Done()
	for o := range lg.queue {
		o.issued = now()
		var err error
		if o.put {
			err = s.put(o, o.deadline)
		} else {
			err = s.read(o, o.deadline)
		}
		o.end = now()
		o.ok = err == nil
		lg.done.Add(1)
	}
}

// close stops the workers once the queue is empty.
func (lg *loadgen) close() {
	close(lg.queue)
	lg.wg.Wait()
}

// submit hands o to the pool, or fails it as shed when the queue is full.
func (lg *loadgen) submit(o *op) {
	lg.issued.Add(1)
	select {
	case lg.queue <- o:
	default:
		o.end = now()
		lg.done.Add(1)
	}
}

// backlog is the number of requests due but not completed.
func (lg *loadgen) backlog() int { return int(lg.issued.Load() - lg.done.Load()) }

// drain waits until every submitted request has completed.
func (lg *loadgen) drain(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for lg.backlog() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: %d requests still pending after %v", lg.backlog(), limit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// phase is the record of one open-loop interval.
type phase struct {
	ops        []*op
	late       Samples // per wake-up: how far behind the oldest due slot it ran
	backlog    []int   // backlog at each wake-up
	start, end time.Duration
}

// run issues requests at rate per second for dur on the slot grid: the
// schedule is fixed in advance and does not wait for the system.
func (lg *loadgen) run(rate float64, dur time.Duration) *phase {
	ph := &phase{start: now()}
	end := ph.start + dur
	period := float64(time.Second) / rate
	due := func(n int) time.Duration {
		return ph.start + time.Duration(float64(n)*period)/grid*grid
	}
	for n := 0; ; {
		d := due(n)
		if d >= end {
			break
		}
		t := now()
		if d > t {
			time.Sleep(d - t)
			continue
		}
		ph.late.Add(t - d)
		for ; d <= t && d < end; d = due(n) {
			o := lg.mix.next()
			o.due, o.deadline = d, d+lg.timeout
			ph.ops = append(ph.ops, o)
			lg.submit(o)
			n++
		}
		ph.backlog = append(ph.backlog, lg.backlog())
	}
	ph.end = now()
	return ph
}

// closedLoop submits ops all at once (the preload) and waits for them.
func (lg *loadgen) closedLoop(ops []*op, limit time.Duration) error {
	t := now()
	for _, o := range ops {
		o.due, o.deadline = t, t+limit
		lg.submit(o)
	}
	if err := lg.drain(limit); err != nil {
		return err
	}
	for _, o := range ops {
		if !o.ok {
			return fmt.Errorf("preload put of %s failed", keyName(o.key))
		}
	}
	return nil
}

// failed is a latency that misses every limit.
const failed = time.Duration(1<<63 - 1)

// latencies splits a phase's requests into put and read latency samples;
// a failed request counts as an infinite latency.
func latencies(ops []*op) (puts, reads Samples, nfail int) {
	for _, o := range ops {
		d := o.latency()
		if !o.ok {
			d = failed
			nfail++
		}
		if o.put {
			puts.Add(d)
		} else {
			reads.Add(d)
		}
	}
	return
}

// backlogGrew reports whether the backlog trend rose within a step: the
// mean over the last third of wake-ups exceeds the first third's by more
// than max(4, 10 ms of arrivals).
func backlogGrew(backlog []int, rate float64) bool {
	k := len(backlog) / 3
	if k == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	slack := rate * 0.010
	if slack < 4 {
		slack = 4
	}
	return mean(backlog[len(backlog)-k:]) > mean(backlog[:k])+slack
}

// step is one rung of the rate ladder.
type step struct {
	rate   float64
	p90    time.Duration
	failed int
	grew   bool
}

func (s step) pass(limit time.Duration) bool { return s.failed == 0 && s.p90 <= limit && !s.grew }

// ladder finds the highest rate whose step passes. It climbs in coarse
// steps of ×1.5 from start until one fails, then resumes from the last
// passing rate in steps 10% apart, so the answer has 10% resolution.
// Every failing step is retried once before it counts; while no rate has
// passed, the ladder descends by ×1/1.5 instead. capped reports that
// maxSteps ran out first, so best is only a lower bound.
func ladder(start float64, maxSteps int, limit time.Duration, run func(rate float64) step) (best float64, steps []step, capped bool) {
	rate := start
	coarse, retried := true, false
	for len(steps) < maxSteps {
		s := run(rate)
		steps = append(steps, s)
		switch {
		case s.pass(limit) && best == 0 && rate < start:
			return rate, steps, false
		case s.pass(limit):
			best, retried = rate, false
			if coarse {
				rate *= 1.5
			} else {
				rate *= 1.1
			}
		case !retried:
			retried = true
		case best == 0:
			retried = false
			rate /= 1.5
		case coarse:
			coarse, retried = false, false
			rate = best * 1.1
		default:
			return best, steps, false
		}
	}
	return best, steps, true
}

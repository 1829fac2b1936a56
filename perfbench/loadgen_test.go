package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

// stallSession blocks its first request until release is closed and
// serves every later one at once.
type stallSession struct {
	once    sync.Once
	release chan struct{}
}

func (s *stallSession) put(o *op, _ time.Duration) error {
	s.once.Do(func() { <-s.release })
	return nil
}

func (s *stallSession) read(o *op, d time.Duration) error {
	o.found = true
	return s.put(o, d)
}

// TestStalledRequestsTimedFromDue stalls the only session for 60 ms while
// the generator keeps issuing on schedule: the requests that waited behind
// the stall must carry the wait in their latency, not just their own
// service time.
func TestStalledRequestsTimedFromDue(t *testing.T) {
	s := &stallSession{release: make(chan struct{})}
	lg := newLoadgen(newMix(1, 0.5), []session{s}, time.Second)
	defer lg.close()
	go func() {
		time.Sleep(60 * time.Millisecond)
		close(s.release)
	}()
	ph := lg.run(1000, 100*time.Millisecond)
	if err := lg.drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := len(ph.ops); n != 100 {
		t.Fatalf("issued %d requests in 100 ms at 1000/s, want 100 (the schedule must not wait)", n)
	}
	for _, o := range ph.ops {
		if !o.ok {
			t.Fatalf("request %d failed", o.idx)
		}
		if o.latency() < o.end-o.issued {
			t.Fatalf("request %d: latency %v shorter than its service time %v", o.idx, o.latency(), o.end-o.issued)
		}
	}
	// Request 10 was due 10 ms in and could only start once the stall
	// ended, about 60 ms in.
	if got := ph.ops[10].latency(); got < 40*time.Millisecond {
		t.Errorf("request due during the stall has latency %v, want >= 40ms", got)
	}
	if maxBacklog := maxInt(ph.backlog); maxBacklog < 30 {
		t.Errorf("backlog peaked at %d during a 60 ms stall at 1000/s, want >= 30", maxBacklog)
	}
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestBacklogGrew(t *testing.T) {
	flat := []int{5, 6, 4, 5, 7, 5, 6, 5, 4}
	if backlogGrew(flat, 1000) {
		t.Error("flat backlog reported as growing")
	}
	var rising []int
	for i := 0; i < 90; i++ {
		rising = append(rising, 3*i)
	}
	if !backlogGrew(rising, 1000) {
		t.Error("steadily rising backlog not reported as growing")
	}
	// A burst that drains by the end of the step is not growth.
	burst := []int{2, 2, 2, 80, 60, 30, 2, 2, 2}
	if backlogGrew(burst, 1000) {
		t.Error("drained burst reported as growing")
	}
}

// TestLadderStopsAtGrowingBacklog gives the ladder a system whose backlog
// grows above 3000/s while latency stays low: it must stop below 3000/s,
// within one 10% step of it.
func TestLadderStopsAtGrowingBacklog(t *testing.T) {
	var tried []float64
	run := func(rate float64) step {
		tried = append(tried, rate)
		return step{rate: rate, p90: time.Millisecond, grew: rate > 3000}
	}
	best, steps, capped := ladder(1000, 50, 5*time.Millisecond, run)
	if best >= 3000 || best*1.1 <= 3000 {
		t.Fatalf("ladder found %.1f/s, want the last 10%% step below 3000/s (tried %v)", best, tried)
	}
	if capped {
		t.Fatalf("ladder did not stop: %d steps", len(steps))
	}
	// Every failing rate was retried once before it counted.
	fails := 0
	for _, s := range steps {
		if s.grew {
			fails++
		}
	}
	if fails%2 != 0 {
		t.Errorf("%d failing steps, want each failure retried (an even count)", fails)
	}
}

func TestLadderStopsAtLatencyLimit(t *testing.T) {
	run := func(rate float64) step {
		// Latency rises steeply past 2000/s.
		p90 := time.Duration(float64(time.Millisecond) * math.Pow(rate/1000, 4))
		return step{rate: rate, p90: p90}
	}
	best, _, _ := ladder(1000, 50, 5*time.Millisecond, run)
	knee := 1000 * math.Pow(5, 0.25) // p90 reaches 5 ms here
	if best > knee || best*1.1 <= knee {
		t.Errorf("ladder found %.1f/s, want within 10%% below the knee at %.1f/s", best, knee)
	}
}

func TestLadderDescendsWhenStartFails(t *testing.T) {
	run := func(rate float64) step { return step{rate: rate, p90: time.Millisecond, failed: btoi(rate > 500)} }
	best, _, _ := ladder(1000, 50, 5*time.Millisecond, run)
	if best <= 0 || best > 500 {
		t.Errorf("ladder found %.1f/s, want a passing rate at or below 500/s", best)
	}
}

// TestLadderReportsBudget checks that a ladder cut off by its step budget
// says so, since its answer is then only a lower bound.
func TestLadderReportsBudget(t *testing.T) {
	run := func(rate float64) step { return step{rate: rate, p90: time.Millisecond} }
	best, steps, capped := ladder(1000, 3, 5*time.Millisecond, run)
	if !capped || len(steps) != 3 || best != 2250 {
		t.Errorf("ladder = %.1f/s after %d steps, capped %v; want 2250/s after 3, capped", best, len(steps), capped)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

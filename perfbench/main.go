// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against an in-process deployment with an open-loop load
// generator, checks the outputs, and prints every metric by name and unit;
// the last line of standard output is one JSON object with the result.
//
//	bash perfbench/run.sh --workload kv-write-tcp --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (spans recorded at wrappers around the program's public interfaces).
// --workload all runs every workload in turn. The exit code is non-zero
// on any correctness violation or error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adore/internal/kvstore"
)

const (
	poolSize = 256 // client sessions, one per in-flight request
	// opTimeout is a request's deadline from its due time. A follower read
	// caught by a leader crash takes up to a few seconds to re-probe
	// its way to the new leader; the deadline leaves room for that.
	opTimeout     = 5 * time.Second
	snapThreshold = 5000
	crashEvery    = 80 * time.Millisecond // spacing of the failover phase's crash and restart
	latencyLimit  = 5 * time.Millisecond  // the ladder's p90 limit
	setupRuns     = 9
	// warmUp is the unmeasured load between set-up and the first measured
	// phase: the first second after set-up holds its after-effects (stalls
	// of 20-30 ms), so no phase that is gated starts there.
	warmUp = 2 * time.Second
	// nominalSlices is how many equal slices the nominal phase's gated
	// latency percentiles are taken over (about 2 s each at 25 s).
	nominalSlices = 9
	stepDur       = time.Second // one ladder rung
	// maxLadderSteps is the ladder's own budget of rungs, spent after
	// everything measured; when it runs out before the ladder settles,
	// max_rate_ops is reported as a lower bound.
	maxLadderSteps = 12
	sampleEvery    = 5 * time.Millisecond
)

// workload is one traffic mix against one deployment shape.
type workload struct {
	name     string
	rate     float64 // nominal requests per second
	putFrac  float64
	durable  bool // file-backed WAL
	reconfig bool // membership cycles and a leader crash per cycle during the load
	ladder   bool // ends with the rate ladder that finds max_rate_ops
	// eventEvery spaces the reconfiguration cycle's events.
	eventEvery time.Duration
	start      func(seed int64, dir string, t *tracer) (system, error)
}

var workloads = []workload{
	{
		name: "kv-write-tcp", rate: 500, putFrac: 0.90, durable: true, ladder: true,
		start: func(seed int64, dir string, t *tracer) (system, error) {
			s, err := startTCP(3, 4, seed, dir, t, snapThreshold)
			if err != nil {
				return nil, err
			}
			return s, nil
		},
	},
	{
		name: "kv-read", rate: 5000, putFrac: 0.10,
		start: func(seed int64, dir string, t *tracer) (system, error) {
			s, err := startRepl(3, seed, "", kvstore.ReadModeFollower, t, snapThreshold)
			if err != nil {
				return nil, err
			}
			return s, nil
		},
	},
	{
		name: "reconfig-failover", rate: 1000, putFrac: 0.75, durable: true, reconfig: true,
		eventEvery: 2 * time.Second,
		start: func(seed int64, dir string, t *tracer) (system, error) {
			s, err := startRepl(5, seed, dir, kvstore.ReadModeLease, t, snapThreshold)
			if err != nil {
				return nil, err
			}
			return s, nil
		},
	},
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed for keys, op mix, values and election jitter")
	secs := flag.Int("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	os.Exit(run(*name, *seed, *secs, *trace == 1))
}

func run(name string, seed int64, secs int, traced bool) int {
	var sel []workload
	for _, w := range workloads {
		if name == w.name || name == "all" {
			sel = append(sel, w)
		}
	}
	if len(sel) == 0 || secs < 1 || seed < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (or bad --seconds/--seed)\n", name)
		return 2
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	total := result{Correct: true, Metrics: map[string]metricVal{}}
	for _, w := range sel {
		res, err := runOne(out, w, seed, time.Duration(secs)*time.Second, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(sel) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", b)
	if !total.Correct {
		return 1
	}
	return 0
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed heap to the system and restarts the peak
// resident set at the current one, so the next peakRSS covers only what
// follows (set-up clusters and their preloads are gone by then).
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS is the process's peak resident set (VmHWM) in MiB.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// scratchDir makes the run's private directory under .bench_build in the
// working directory, so everything the run writes stays in the checkout.
func scratchDir(sub string) (string, error) {
	base := filepath.Join(".bench_build", sub)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

func printMetrics(out *bufio.Writer, defs []metricDef, m map[string]float64, res *result) {
	for _, d := range defs {
		v := m[d.name]
		res.Metrics[d.name] = metricVal{Value: v, Unit: d.unit}
		if d.moves != "" {
			fmt.Fprintf(out, "metric %-40s %14.4f %-7s (%s)\n", d.name, v, d.unit, d.moves)
		} else {
			fmt.Fprintf(out, "metric %-40s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}

package main

import (
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// calibration describes the machine a result came from, so a number
// measured elsewhere is recognisable as such.
type calibration struct {
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	Sleep50us float64 `json:"sleep_50us_p50_us"`
	FsyncUs   float64 `json:"fsync_p50_us"`
	TCPRttUs  float64 `json:"tcp_rtt_p50_us"`
}

func calibrate(dir string) (calibration, error) {
	c := calibration{NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	var sl Samples
	for i := 0; i < 100; i++ {
		t := time.Now()
		time.Sleep(50 * time.Microsecond)
		sl.Add(time.Since(t))
	}
	c.Sleep50us = us(sl.Quantile(0.5))

	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return c, err
	}
	defer f.Close()
	var fs Samples
	buf := make([]byte, 4096)
	for i := 0; i < 30; i++ {
		if _, err := f.Write(buf); err != nil {
			return c, err
		}
		t := time.Now()
		if err := f.Sync(); err != nil {
			return c, err
		}
		fs.Add(time.Since(t))
	}
	c.FsyncUs = us(fs.Quantile(0.5))

	rtt, err := tcpRTT(200)
	if err != nil {
		return c, err
	}
	c.TCPRttUs = us(rtt)
	return c, nil
}

// The host lends this machine's CPUs to other tenants. In spells of
// several minutes it steals 7-30% of their time, and every latency of the
// durable workloads rises 2-8x while it does. So before it sets up, a run
// waits, up to maxQuietWait, until a probe that keeps every CPU busy for
// probeDur sees less than quietSteal of that time stolen.
const (
	quietSteal   = 0.04
	maxQuietWait = 90 * time.Second
	probeDur     = time.Second
	probeEvery   = 5 * time.Second
)

// waitQuietHost probes until the host is quiet or maxQuietWait has
// passed, and returns the time it waited and the last probe's steal share.
func waitQuietHost() (waited time.Duration, steal float64) {
	start := time.Now()
	for {
		steal = stealProbe(probeDur)
		waited = time.Since(start)
		if steal < quietSteal || waited >= maxQuietWait {
			return waited, steal
		}
		time.Sleep(probeEvery - probeDur)
	}
}

// stealProbe keeps every CPU busy for d and returns the share of the
// machine's CPU time stolen meanwhile (steal accrues only on a vCPU that
// has work, so an idle machine would read 0 whatever the host does).
func stealProbe(d time.Duration) float64 {
	s0, t0 := cpuTicks()
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
			}
		}()
	}
	wg.Wait()
	s1, t1 := cpuTicks()
	return ratio(float64(s1-s0), float64(t1-t0))
}

// cpuTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat. Steal is time the hypervisor gave the vCPUs to other
// tenants; a run with much of it is slower for reasons outside the
// program.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// tcpRTT is the median round trip of one byte over a loopback connection.
func tcpRTT(n int) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		b := make([]byte, 1)
		for {
			if _, err := conn.Read(b); err != nil {
				return
			}
			if _, err := conn.Write(b); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	var s Samples
	b := make([]byte, 1)
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := conn.Write(b); err != nil {
			break
		}
		if _, err := conn.Read(b); err != nil {
			break
		}
		s.Add(time.Since(t))
	}
	conn.Close()
	<-done
	return s.Quantile(0.5), nil
}

package main

import (
	"strings"
	"testing"
	"time"
)

// history builds a preloaded history: one acknowledged put per key during
// [1ms, 2ms], and the final state those puts leave.
func history() ([]*op, map[string]string) {
	m := newMix(7, 1)
	ops := m.preload()
	final := map[string]string{}
	for _, o := range ops {
		o.issued, o.end, o.ok = time.Millisecond, 2*time.Millisecond, true
		final[keyName(o.key)] = o.val
	}
	return ops, final
}

func put(key int, val string, begin, end time.Duration, ok bool) *op {
	return &op{put: true, key: key, val: val, issued: begin, end: end, ok: ok}
}

func read(key int, val string, begin, end time.Duration) *op {
	return &op{key: key, val: val, found: true, issued: begin, end: end, ok: true}
}

func at(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func wantViolation(t *testing.T, viol []string, substr string) {
	t.Helper()
	for _, v := range viol {
		if strings.Contains(v, substr) {
			return
		}
	}
	t.Fatalf("want a violation containing %q, got %q", substr, viol)
}

func TestCheckerAcceptsLinearizableHistory(t *testing.T) {
	ops, final := history()
	a := put(5, "a", at(10), at(20), true)
	b := put(5, "b", at(15), at(30), true) // concurrent with a
	u := put(6, "u", at(10), never, false) // outcome unknown
	ops = append(ops, a, b, u,
		read(5, "a", at(25), at(26)), // b not yet complete, a may be current
		read(5, "b", at(16), at(17)), // b began before the read ended
		read(6, "u", at(40), at(41)), // an unacknowledged put may have landed
	)
	final[keyName(5)] = "a" // a and b overlap: either order is linearizable
	final[keyName(6)] = "u"
	if viol := checkHistory(ops, final); len(viol) != 0 {
		t.Fatalf("valid history rejected: %q", viol)
	}
}

func TestCheckerRejectsLostWrite(t *testing.T) {
	ops, final := history()
	ops = append(ops, put(5, "a", at(10), at(20), true), put(5, "b", at(30), at(40), true))
	final[keyName(5)] = "a" // b was acknowledged after a ended, then lost
	wantViolation(t, checkHistory(ops, final), "lost write")
}

func TestCheckerRejectsMissingKey(t *testing.T) {
	ops, final := history()
	delete(final, keyName(9))
	wantViolation(t, checkHistory(ops, final), "missing")
}

func TestCheckerRejectsStaleRead(t *testing.T) {
	ops, final := history()
	ops = append(ops,
		put(5, "a", at(10), at(20), true),
		put(5, "b", at(30), at(40), true),
		read(5, "a", at(50), at(51)), // b completed before the read began
	)
	final[keyName(5)] = "b"
	wantViolation(t, checkHistory(ops, final), "stale read")
}

func TestCheckerRejectsReadFromTheFuture(t *testing.T) {
	ops, final := history()
	ops = append(ops,
		put(5, "a", at(60), at(70), true),
		read(5, "a", at(50), at(51)), // the put began after the read ended
	)
	final[keyName(5)] = "a"
	wantViolation(t, checkHistory(ops, final), "began after the read ended")
}

func TestCheckerRejectsUnwrittenValue(t *testing.T) {
	ops, final := history()
	ops = append(ops, read(5, "never-written", at(50), at(51)))
	wantViolation(t, checkHistory(ops, final), "no put to it wrote")
}

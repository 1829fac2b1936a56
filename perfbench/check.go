package main

import (
	"fmt"
	"sort"
	"time"
)

// never is the end time of a put whose outcome is unknown (failed or timed
// out): it may have applied at any point after it began.
const never = time.Duration(1<<63 - 1)

// putRec is a put as the checker sees it: an interval [begin, end] in real
// time, end = never when the put was not acknowledged.
type putRec struct {
	begin, end time.Duration
}

// checker validates a history per key. It is the interval check for a
// register written with unique values: exact linearizability search is
// exponential and sized for tens of operations, this is linear in the
// history and still catches lost and stale values.
type checker struct {
	byVal map[string]putRec
	byKey map[int][]putRec // sorted by begin
	keyOf map[string]int
	errs  []string
}

// newChecker indexes every put of the history. Puts that were never sent
// (shed before a session picked them up) cannot be in any store and are
// left out, so their values count as never written.
func newChecker(ops []*op) *checker {
	c := &checker{byVal: map[string]putRec{}, byKey: map[int][]putRec{}, keyOf: map[string]int{}}
	for _, o := range ops {
		if !o.put || o.issued == 0 {
			continue
		}
		p := putRec{begin: o.issued, end: never}
		if o.ok {
			p.end = o.end
		}
		c.byVal[o.val] = p
		c.keyOf[o.val] = o.key
		c.byKey[o.key] = append(c.byKey[o.key], p)
	}
	for _, ps := range c.byKey {
		sort.Slice(ps, func(i, j int) bool { return ps[i].begin < ps[j].begin })
	}
	return c
}

func (c *checker) fail(format string, args ...any) {
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// supersededBefore reports whether some acknowledged put to key began after
// p ended and ended before t: then p's value can no longer be current at t.
func (c *checker) supersededBefore(key int, p putRec, t time.Duration) bool {
	if p.end == never {
		return false
	}
	for _, q := range c.byKey[key] {
		if q.begin > p.end && q.end != never && q.end < t {
			return true
		}
	}
	return false
}

// read checks one successful read: its value must come from a put to the
// same key that began before the read ended and that no put completed
// after it superseded before the read began. Every key is preloaded, so
// a missing key is a violation.
func (c *checker) read(o *op) {
	if !o.found {
		c.fail("read %d of %s at %v found no value", o.idx, keyName(o.key), o.end)
		return
	}
	p, ok := c.byVal[o.val]
	if !ok || c.keyOf[o.val] != o.key {
		c.fail("read %d of %s returned a value no put to it wrote", o.idx, keyName(o.key))
		return
	}
	if p.begin >= o.end {
		c.fail("read %d of %s returned a put that began after the read ended", o.idx, keyName(o.key))
		return
	}
	if c.supersededBefore(o.key, p, o.issued) {
		c.fail("stale read %d of %s: its value was superseded before the read began", o.idx, keyName(o.key))
	}
}

// final checks a key's value after quiescence: it must be the value of a
// put that no acknowledged put to the key followed in real time, which is
// what "every acknowledged put survives" means for a register.
func (c *checker) final(key int, val string, present bool) {
	if !present {
		c.fail("key %s missing from the final state", keyName(key))
		return
	}
	p, ok := c.byVal[val]
	if !ok || c.keyOf[val] != key {
		c.fail("final value of %s was written by no put to it", keyName(key))
		return
	}
	if c.supersededBefore(key, p, never-1) {
		c.fail("lost write on %s: an acknowledged put followed the final value's put", keyName(key))
	}
}

// checkHistory runs the read and final-state checks over a whole run and
// returns the violations found (at most 20 are kept).
func checkHistory(ops []*op, finalState map[string]string) []string {
	c := newChecker(ops)
	for _, o := range ops {
		if !o.put && o.ok {
			c.read(o)
		}
	}
	for k := 0; k < keyspace; k++ {
		v, ok := finalState[keyName(k)]
		c.final(k, v, ok)
	}
	if len(finalState) != keyspace {
		c.fail("final state holds %d keys, want %d", len(finalState), keyspace)
	}
	return c.errs
}

package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"adore/internal/kvstore"
	"adore/internal/raft"
	"adore/internal/raft/cluster"
	"adore/internal/types"
)

// replSystem is a kvstore.Replicated service: an in-process raft cluster
// over MemNetwork with zero injected delay, one Store per node.
type replSystem struct {
	r    *kvstore.Replicated
	t    *tracer
	mode kvstore.ReadMode
	dir  string // WAL root; "" = MemStorage
	all  types.NodeSet

	mu      sync.Mutex
	inner   map[types.NodeID]raft.Storage // guarded by mu
	openErr error                         // guarded by mu
	retired raft.Counters                 // guarded by mu
}

func startRepl(n int, seed int64, dir string, mode kvstore.ReadMode, t *tracer, snapThreshold int) (*replSystem, error) {
	s := &replSystem{t: t, mode: mode, dir: dir, all: types.Range(1, types.NodeID(n)),
		inner: map[types.NodeID]raft.Storage{}}
	s.r = kvstore.NewReplicated(cluster.Options{
		N:                 n,
		Seed:              seed,
		SnapshotThreshold: snapThreshold,
		NoApplyRecord:     true,
		StorageFor:        s.storageFor,
	})
	if err := s.openError(); err != nil {
		s.r.Stop()
		return nil, err
	}
	if _, err := s.r.Cluster.WaitForLeader(10 * time.Second); err != nil {
		s.r.Stop()
		return nil, err
	}
	return s, nil
}

// storageFor opens a node's storage: its MemStorage survives a crash in
// memory; a FileStorage is closed at the crash and reopened here, so the
// restart recovers from the WAL alone.
func (s *replSystem) storageFor(id types.NodeID) raft.Storage {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.inner[id]
	if s.dir == "" {
		if st == nil {
			st = raft.NewMemStorage()
			s.inner[id] = st
		}
	} else {
		fs, err := raft.OpenFileStorage(filepath.Join(s.dir, id.String()))
		if err != nil {
			s.openErr = err
			return nil
		}
		st = fs
		s.inner[id] = fs
	}
	return s.t.wrap(0, id, st)
}

func (s *replSystem) openError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.openErr
}

type replSession struct {
	s *replSystem
	c *kvstore.Client
}

func (s *replSystem) sessions(n int) []session {
	out := make([]session, n)
	for i := range out {
		out[i] = replSession{s: s, c: s.r.NewClient()}
	}
	return out
}

var errDeadline = errors.New("request deadline passed")

func (rs replSession) put(o *op, deadline time.Duration) error {
	left := deadline - now()
	if left <= 0 {
		return errDeadline
	}
	_, err := rs.c.Do(kvstore.OpPut, keyName(o.key), o.val, "", left)
	return err
}

func (rs replSession) read(o *op, deadline time.Duration) error {
	left := deadline - now()
	if left <= 0 {
		return errDeadline
	}
	v, found, err := rs.s.r.FastGetMode(keyName(o.key), rs.s.mode, left)
	o.val, o.found = v, found
	return err
}

func (s *replSystem) crashLeader() (crashRec, error) {
	l := s.r.Cluster.Leader()
	if l == nil {
		return crashRec{}, fmt.Errorf("no leader to crash")
	}
	c := crashRec{at: now(), victim: l.ID(), groups: []int{0}}
	s.mu.Lock()
	s.retired = addCounters(s.retired, l.Snapshot().Counters)
	s.mu.Unlock()
	s.r.Cluster.CrashNode(c.victim)
	if s.dir != "" {
		s.mu.Lock()
		err := s.inner[c.victim].Close()
		s.mu.Unlock()
		if err != nil {
			return c, err
		}
	}
	if !waitFor(5*time.Second, func() bool { return s.r.Cluster.Leader() != nil }) {
		return c, fmt.Errorf("no leader within 5s of crashing %s", c.victim)
	}
	c.leaderless = now() - c.at
	return c, nil
}

func (s *replSystem) restart(c crashRec) error {
	s.r.Cluster.RestartNode(c.victim, s.all.Copy())
	return s.openError()
}

func (s *replSystem) sample(t *tracer, lag *[]float64) {
	l := s.r.Cluster.Leader()
	if l == nil {
		return
	}
	t.setLeader(0, l.ID())
	if lag == nil {
		return
	}
	commit := l.CommitIndex()
	for _, n := range s.r.Cluster.Nodes() {
		if n != l {
			*lag = append(*lag, float64(commit-s.r.Store(n.ID()).AppliedIndex()))
		}
	}
}

// members returns the leader's current configuration.
func (s *replSystem) members() (*raft.Node, []types.NodeID, error) {
	var l *raft.Node
	if !waitFor(10*time.Second, func() bool { l = s.r.Cluster.Leader(); return l != nil }) {
		return nil, nil, fmt.Errorf("no leader")
	}
	return l, l.Members().Copy(), nil
}

func (s *replSystem) quiesce() (map[string]string, error) {
	l, ids, err := s.members()
	if err != nil {
		return nil, err
	}
	caughtUp := func() bool {
		snap := l.Snapshot()
		if snap.Role != raft.Leader || snap.CommitIndex != snap.LastIndex {
			return false
		}
		for _, id := range ids {
			if s.r.Cluster.Node(id) == nil || s.r.Store(id).AppliedIndex() < snap.CommitIndex {
				return false
			}
		}
		return true
	}
	if !waitFor(20*time.Second, caughtUp) {
		return nil, fmt.Errorf("replicas %v did not catch up with the leader", ids)
	}
	states := make([]map[string]string, len(ids))
	for i, id := range ids {
		states[i] = s.r.Store(id).Snapshot()
	}
	return states[0], sameStores(0, ids, states)
}

func (s *replSystem) stop() error {
	_, ids, err := s.members()
	s.r.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" {
		return err
	}
	for _, st := range s.inner {
		_ = st.Close() // a crashed node's storage is already closed
	}
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := compareReplay(filepath.Join(s.dir, id.String()), s.r.Store(id).Snapshot()); err != nil {
			return err
		}
	}
	return nil
}

func (s *replSystem) counters() counters {
	s.mu.Lock()
	c := counters{core: s.retired}
	s.mu.Unlock()
	for _, n := range s.r.Cluster.Nodes() {
		c.core = addCounters(c.core, n.Snapshot().Counters)
	}
	c.msgs, c.dropped = s.r.Cluster.Net.Counters()
	c.retries = s.r.Retries()
	return c
}

// reconfigure runs one membership change and reports whether it removed
// the leader and how long the call took.
func (s *replSystem) reconfigure(target types.NodeSet) (bool, time.Duration, error) {
	l := s.r.Cluster.Leader()
	dropLeader := l != nil && !target.Contains(l.ID())
	start := now()
	_, err := s.r.Cluster.Reconfigure(target, 5*time.Second)
	return dropLeader, now() - start, err
}

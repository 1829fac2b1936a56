package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"adore/internal/kvstore"
	"adore/internal/multiraft"
	"adore/internal/raft"
	"adore/internal/raft/transport"
	"adore/internal/types"
)

// tcpSystem is the `raft-kv -shards G -wal` composition in one process:
// one multiraft.Host per node over TCPTransport on loopback, a FileStorage
// WAL per (node, group), and a kvstore.Store per (node, group) fed through
// OnApply. Puts go straight to the key's group leader with ProposeAsync,
// bypassing the kvstore client and the read path.
type tcpSystem struct {
	t      *tracer
	dir    string
	seed   int64
	groups int
	snap   int
	ids    []types.NodeID
	trans  []*transport.TCPTransport
	appl   [][]*applier // [host][group]

	mu      sync.Mutex
	hosts   []*multiraft.Host // nil while crashed; guarded by mu
	inner   [][]raft.Storage  // guarded by mu
	openErr error             // guarded by mu
	retired raft.Counters     // guarded by mu

	nextClient atomic.Uint64
}

// applier feeds a Store from a host's apply stream and wakes the puts and
// reads waiting on it, so acknowledgements need no polling.
type applier struct {
	mu      sync.Mutex
	st      *kvstore.Store
	waiters []applyWaiter // guarded by mu
}

type applyWaiter struct {
	idx         int
	client, seq uint64 // 0: a read waiting for the apply cursor
	ch          chan bool
}

func (a *applier) apply(batch []raft.ApplyMsg) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, m := range batch {
		a.st.Apply(m)
	}
	applied := a.st.AppliedIndex()
	keep := a.waiters[:0]
	for _, w := range a.waiters {
		if w.idx > applied {
			keep = append(keep, w)
			continue
		}
		w.ch <- a.landed(w)
	}
	a.waiters = keep
}

// landed reports whether the waiter's put has been applied (a read's
// waiter only needs the cursor to pass its index).
func (a *applier) landed(w applyWaiter) bool {
	if w.client == 0 {
		return true
	}
	seq, _ := a.st.LastApplied(w.client)
	return seq >= w.seq
}

// wait resolves once the store has applied through idx: true when the
// put (client, seq) is among the applied entries.
func (a *applier) wait(idx int, client, seq uint64) <-chan bool {
	ch := make(chan bool, 1)
	w := applyWaiter{idx: idx, client: client, seq: seq, ch: ch}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.st.AppliedIndex() >= idx {
		ch <- a.landed(w)
		return ch
	}
	a.waiters = append(a.waiters, w)
	return ch
}

func startTCP(hosts, groups int, seed int64, dir string, t *tracer, snapThreshold int) (*tcpSystem, error) {
	s := &tcpSystem{t: t, dir: dir, seed: seed, groups: groups, snap: snapThreshold}
	for h := 0; h < hosts; h++ {
		s.ids = append(s.ids, types.NodeID(h+1))
	}
	for h := range s.ids {
		tr, err := transport.NewTCPTransport(s.ids[h], "127.0.0.1:0", nil, nil)
		if err != nil {
			s.closeTransports()
			return nil, err
		}
		s.trans = append(s.trans, tr)
		row := make([]*applier, groups)
		for g := range row {
			row[g] = &applier{st: kvstore.NewStore()}
		}
		s.appl = append(s.appl, row)
	}
	for h, tr := range s.trans {
		for p, other := range s.trans {
			if p != h {
				tr.SetPeer(s.ids[p], other.Addr())
			}
		}
	}
	s.hosts = make([]*multiraft.Host, hosts)
	s.inner = make([][]raft.Storage, hosts)
	for h := range s.ids {
		if err := s.startHost(h); err != nil {
			s.stopHosts()
			s.closeTransports()
			return nil, err
		}
	}
	for g := 0; g < groups; g++ {
		if err := s.placeLeader(g, g%hosts); err != nil {
			s.stopHosts()
			s.closeTransports()
			return nil, err
		}
	}
	return s, nil
}

// placeLeader moves group g's leadership to host want, so every run starts
// from one balanced placement (group g on host g mod hosts) rather than
// from whichever hosts won the first elections; the placement sets how
// the leaders' work shares the hosts and how many groups a crash hits.
func (s *tcpSystem) placeLeader(g, want int) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		h, n := s.leaderOf(g)
		if h == want {
			return nil
		}
		if n != nil {
			_ = n.TransferLeader(s.ids[want])
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("group %d: leadership did not move to %s", g, s.ids[want])
}

func (s *tcpSystem) startHost(h int) error {
	id := s.ids[h]
	s.mu.Lock()
	s.inner[h] = make([]raft.Storage, s.groups)
	s.mu.Unlock()
	host, err := multiraft.Start(multiraft.Options{
		ID:        id,
		Members:   s.ids,
		Groups:    s.groups,
		Transport: tracedTransport{inner: s.trans[h], t: s.t},
		StorageFor: func(g raft.GroupID) raft.Storage {
			fs, err := raft.OpenFileStorage(s.walDir(h, g))
			s.mu.Lock()
			defer s.mu.Unlock()
			if err != nil {
				s.openErr = err
				return nil
			}
			s.inner[h][g] = fs
			return s.t.wrap(g, id, fs)
		},
		StateMachineFor:   func(g raft.GroupID) raft.StateMachine { return s.appl[h][g].st },
		OnApply:           func(g raft.GroupID, b []raft.ApplyMsg) { s.appl[h][g].apply(b) },
		SnapshotThreshold: s.snap,
		Seed:              s.seed*31 + int64(id),
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		err = s.openErr
	}
	if err != nil {
		if host != nil {
			host.Stop()
		}
		return err
	}
	s.hosts[h] = host
	return nil
}

// walDir is host h's WAL directory for group g, laid out as raft-kv lays
// out a sharded node's -wal directory.
func (s *tcpSystem) walDir(h int, g raft.GroupID) string {
	return multiraft.GroupStorageDir(filepath.Join(s.dir, s.ids[h].String()), g)
}

func (s *tcpSystem) host(h int) *multiraft.Host {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hosts[h]
}

// leaderOf returns the host index and node leading group g at the highest
// term, or nil.
func (s *tcpSystem) leaderOf(g int) (int, *raft.Node) {
	best, bh := (*raft.Node)(nil), -1
	var bestTerm types.Time
	for h := range s.ids {
		hst := s.host(h)
		if hst == nil {
			continue
		}
		n := hst.Node(raft.GroupID(g))
		if term, role, _ := n.Status(); role == raft.Leader && (best == nil || term > bestTerm) {
			best, bh, bestTerm = n, h, term
		}
	}
	return bh, best
}

type tcpSession struct {
	s   *tcpSystem
	id  uint64
	seq uint64
	// lead caches the last known leader host per group (-1 = unknown).
	lead []int
}

func (s *tcpSystem) sessions(n int) []session {
	out := make([]session, n)
	for i := range out {
		lead := make([]int, s.groups)
		for g := range lead {
			lead[g] = -1
		}
		out[i] = &tcpSession{s: s, id: s.nextClient.Add(1), lead: lead}
	}
	return out
}

// leader returns the cached leader of g, refreshing it when unknown.
func (ts *tcpSession) leader(g int) (int, *raft.Node) {
	if h := ts.lead[g]; h >= 0 {
		if hst := ts.s.host(h); hst != nil {
			return h, hst.Node(raft.GroupID(g))
		}
	}
	h, n := ts.s.leaderOf(g)
	ts.lead[g] = h
	return h, n
}

// backoff forgets the cached leader and, unless the old leader pointed at
// its successor, waits a millisecond before re-probing.
func (ts *tcpSession) backoff(g int, err error) {
	ts.lead[g] = -1
	if !errors.Is(err, raft.ErrLeaderStepdown) {
		time.Sleep(time.Millisecond)
	}
}

// put proposes one command and waits until the leader's store applied it;
// retries across leader changes reuse (client, seq), so the store's dedup
// table keeps them idempotent.
func (ts *tcpSession) put(o *op, deadline time.Duration) error {
	key := keyName(o.key)
	g := int(kvstore.ShardOf(key, ts.s.groups))
	o.group = g
	ts.seq++
	cmd := kvstore.Command{Op: kvstore.OpPut, Key: key, Value: o.val, Client: ts.id, Seq: ts.seq}.Encode()
	for now() < deadline {
		h, n := ts.leader(g)
		if n == nil {
			ts.backoff(g, nil)
			continue
		}
		o.proposed = now()
		idx, _, err := n.ProposeAsync(cmd).Wait()
		if err != nil {
			ts.backoff(g, err)
			continue
		}
		o.waited = now()
		if ts.await(n, ts.s.appl[h][g].wait(idx, ts.id, ts.seq), deadline) {
			return nil
		}
		ts.backoff(g, nil)
	}
	return errDeadline
}

// read is a linearizable read on the leader: a ReadIndex barrier, then the
// leader's store once it has applied through the barrier's index.
func (ts *tcpSession) read(o *op, deadline time.Duration) error {
	key := keyName(o.key)
	g := int(kvstore.ShardOf(key, ts.s.groups))
	o.group = g
	for now() < deadline {
		h, n := ts.leader(g)
		if n == nil {
			ts.backoff(g, nil)
			continue
		}
		idx, err := n.ReadIndex(deadline - now())
		if err != nil {
			ts.backoff(g, err)
			continue
		}
		a := ts.s.appl[h][g]
		if ts.await(n, a.wait(idx, 0, 0), deadline) {
			o.val, o.found = a.st.LocalGet(key)
			return nil
		}
		ts.backoff(g, nil)
	}
	return errDeadline
}

// await waits for an apply waiter, giving up after 300 ms (a deposed
// leader never applies a foreign index), at the deadline, or when the
// node stops.
func (ts *tcpSession) await(n *raft.Node, ch <-chan bool, deadline time.Duration) bool {
	wait := deadline - now()
	if wait > 300*time.Millisecond {
		wait = 300 * time.Millisecond
	}
	if wait <= 0 {
		return false
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case ok := <-ch:
		return ok
	case <-timer.C:
	case <-n.Done():
	}
	return false
}

func (s *tcpSystem) crashLeader() (crashRec, error) {
	h, n := s.leaderOf(0)
	if n == nil {
		return crashRec{}, fmt.Errorf("group 0 has no leader to crash")
	}
	hst := s.host(h)
	c := crashRec{at: now(), victim: s.ids[h]}
	retired := raft.Counters{}
	for g := 0; g < s.groups; g++ {
		snap := hst.Node(raft.GroupID(g)).Snapshot()
		retired = addCounters(retired, snap.Counters)
		if snap.Role == raft.Leader {
			c.groups = append(c.groups, g)
		}
	}
	s.mu.Lock()
	s.retired = addCounters(s.retired, retired)
	s.hosts[h] = nil
	s.mu.Unlock()
	hst.Stop()
	s.mu.Lock()
	for _, st := range s.inner[h] {
		if st != nil {
			_ = st.Close() // reopened from the same directory on restart
		}
	}
	s.mu.Unlock()
	for _, g := range c.groups {
		if !waitFor(5*time.Second, func() bool { _, n := s.leaderOf(g); return n != nil }) {
			return c, fmt.Errorf("group %d has no leader 5s after crashing %s", g, c.victim)
		}
	}
	c.leaderless = now() - c.at
	return c, nil
}

func (s *tcpSystem) restart(c crashRec) error { return s.startHost(int(c.victim) - 1) }

func (s *tcpSystem) sample(t *tracer, lag *[]float64) {
	for g := 0; g < s.groups; g++ {
		h, l := s.leaderOf(g)
		if l == nil {
			continue
		}
		t.setLeader(raft.GroupID(g), s.ids[h])
		if lag == nil {
			continue
		}
		commit := l.CommitIndex()
		for f := range s.ids {
			if f != h && s.host(f) != nil {
				*lag = append(*lag, float64(commit-s.appl[f][g].st.AppliedIndex()))
			}
		}
	}
}

func (s *tcpSystem) quiesce() (map[string]string, error) {
	union := map[string]string{}
	for g := 0; g < s.groups; g++ {
		var l *raft.Node
		caughtUp := func() bool {
			_, l = s.leaderOf(g)
			if l == nil {
				return false
			}
			snap := l.Snapshot()
			if snap.CommitIndex != snap.LastIndex {
				return false
			}
			for h := range s.ids {
				if s.host(h) == nil || s.appl[h][g].st.AppliedIndex() < snap.CommitIndex {
					return false
				}
			}
			return true
		}
		if !waitFor(20*time.Second, caughtUp) {
			return nil, fmt.Errorf("group %d: replicas did not catch up with the leader", g)
		}
		states := make([]map[string]string, len(s.ids))
		for h := range s.ids {
			states[h] = s.appl[h][g].st.Snapshot()
		}
		if err := sameStores(g, s.ids, states); err != nil {
			return nil, err
		}
		for k, v := range states[0] {
			union[k] = v
		}
	}
	return union, nil
}

func (s *tcpSystem) stopHosts() {
	for h := range s.ids {
		if hst := s.host(h); hst != nil {
			hst.Stop()
		}
		s.mu.Lock()
		for _, st := range s.inner[h] {
			if st != nil {
				_ = st.Close()
			}
		}
		s.mu.Unlock()
	}
}

func (s *tcpSystem) closeTransports() {
	for _, tr := range s.trans {
		_ = tr.Close()
	}
}

func (s *tcpSystem) stop() error {
	s.stopHosts()
	s.closeTransports()
	for h := range s.ids {
		for g := 0; g < s.groups; g++ {
			if err := compareReplay(s.walDir(h, raft.GroupID(g)), s.appl[h][g].st.Snapshot()); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *tcpSystem) counters() counters {
	s.mu.Lock()
	c := counters{core: s.retired}
	s.mu.Unlock()
	for h := range s.ids {
		hst := s.host(h)
		if hst == nil {
			continue
		}
		for g := 0; g < s.groups; g++ {
			c.core = addCounters(c.core, hst.Node(raft.GroupID(g)).Snapshot().Counters)
		}
	}
	for _, tr := range s.trans {
		d, sh := tr.Counters()
		c.dropped += d
		c.shed += sh
	}
	c.msgs = uint64(s.t.sends.Load())
	return c
}

package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adore/internal/kvstore"
	"adore/internal/multiraft"
	"adore/internal/raft"
	"adore/internal/types"
)

// tracer records spans at the benchmark's wrappers around the program's
// public interfaces: raft.Storage (handed in through StorageFor) and the
// multiraft.Transport handed to multiraft.Start. Counting is always on;
// timings and per-request spans, which decode each entry to find the
// request that wrote it, are recorded only while spans is set. A put is
// identified by its value, which is unique per request.
type tracer struct {
	spans atomic.Bool

	// leaders[g] is the node currently leading group g (at most 8 groups),
	// refreshed by a sampler; it splits storage timings into leader and
	// follower saves without calling into a node from inside its own
	// persist path.
	leaders [8]atomic.Uint64

	syncs     atomic.Int64 // durable storage calls (each one fsync on a file WAL)
	sends     atomic.Int64 // messages handed to the transport
	mu        sync.Mutex
	walLeader Samples                   // guarded by mu
	walFollow Samples                   // guarded by mu
	walBusy   map[nodeKey]time.Duration // time inside storage calls per node; guarded by mu
	batch     []int                     // entries per leader SaveEntries; guarded by mu
	snapSave  Samples                   // guarded by mu
	sendTime  Samples                   // transport Send call durations; guarded by mu
	saves     map[string][]saveSpan     // put value → its saves; guarded by mu
	sendsOf   map[string][]sendSpan     // put value → the appends that carried it; guarded by mu
}

type nodeKey struct {
	g  raft.GroupID
	id types.NodeID
}

type saveSpan struct {
	node       types.NodeID
	lead       bool // the node led its group when the save ran
	start, end time.Duration
}

type sendSpan struct {
	to types.NodeID
	at time.Duration
}

func newTracer() *tracer {
	return &tracer{
		walBusy: map[nodeKey]time.Duration{},
		saves:   map[string][]saveSpan{},
		sendsOf: map[string][]sendSpan{},
	}
}

// reset drops everything recorded so far (between phases).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.walLeader, t.walFollow, t.snapSave, t.sendTime = Samples{}, Samples{}, Samples{}, Samples{}
	t.walBusy = map[nodeKey]time.Duration{}
	t.batch = nil
	t.saves = map[string][]saveSpan{}
	t.sendsOf = map[string][]sendSpan{}
}

func (t *tracer) setLeader(g raft.GroupID, id types.NodeID) { t.leaders[g].Store(uint64(id)) }

func (t *tracer) isLeader(g raft.GroupID, id types.NodeID) bool {
	return t.leaders[g].Load() == uint64(id)
}

// putValues decodes the put values carried by entries.
func putValues(entries []raft.LogEntry) []string {
	var vals []string
	for _, e := range entries {
		if e.Kind != raft.EntryCommand {
			continue
		}
		if c, err := kvstore.DecodeCommand(e.Command); err == nil && c.Op == kvstore.OpPut {
			vals = append(vals, c.Value)
		}
	}
	return vals
}

// tracedStorage times every call into a node's raft.Storage.
type tracedStorage struct {
	raft.Storage
	t *tracer
	k nodeKey
}

func (t *tracer) wrap(g raft.GroupID, id types.NodeID, s raft.Storage) raft.Storage {
	return &tracedStorage{Storage: s, t: t, k: nodeKey{g, id}}
}

func (s *tracedStorage) SaveState(hs raft.HardState) error {
	s.t.syncs.Add(1)
	if !s.t.spans.Load() {
		return s.Storage.SaveState(hs)
	}
	start := now()
	err := s.Storage.SaveState(hs)
	s.t.mu.Lock()
	s.t.walBusy[s.k] += now() - start
	s.t.mu.Unlock()
	return err
}

func (s *tracedStorage) SaveEntries(first int, entries []raft.LogEntry) error {
	s.t.syncs.Add(1)
	if !s.t.spans.Load() {
		return s.Storage.SaveEntries(first, entries)
	}
	start := now()
	err := s.Storage.SaveEntries(first, entries)
	end := now()
	vals := putValues(entries)
	leader := s.t.isLeader(s.k.g, s.k.id)
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.walBusy[s.k] += end - start
	if leader {
		s.t.walLeader.Add(end - start)
		if len(entries) > 0 {
			s.t.batch = append(s.t.batch, len(entries))
		}
	} else {
		s.t.walFollow.Add(end - start)
	}
	for _, v := range vals {
		s.t.saves[v] = append(s.t.saves[v], saveSpan{node: s.k.id, lead: leader, start: start, end: end})
	}
	return err
}

func (s *tracedStorage) SaveSnapshot(snap raft.LogSnapshot) error {
	s.t.syncs.Add(1)
	if !s.t.spans.Load() {
		return s.Storage.SaveSnapshot(snap)
	}
	start := now()
	err := s.Storage.SaveSnapshot(snap)
	s.t.mu.Lock()
	s.t.snapSave.Add(now() - start)
	s.t.walBusy[s.k] += now() - start
	s.t.mu.Unlock()
	return err
}

// tracedTransport wraps the multiplexing transport a host is started with;
// every group endpoint it mints counts and times the sends through it.
type tracedTransport struct {
	inner multiraft.Transport
	t     *tracer
}

func (tt tracedTransport) Endpoint(g raft.GroupID, inbox chan<- raft.Message) raft.Transport {
	return &tracedEndpoint{Transport: tt.inner.Endpoint(g, inbox), t: tt.t}
}

type tracedEndpoint struct {
	raft.Transport
	t *tracer
}

func (e *tracedEndpoint) Send(m raft.Message) {
	e.t.sends.Add(1)
	if !e.t.spans.Load() {
		e.Transport.Send(m)
		return
	}
	var vals []string
	if m.Type == raft.MsgAppendEntries {
		vals = putValues(m.Entries)
	}
	start := now()
	e.Transport.Send(m)
	d := now() - start
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	e.t.sendTime.Add(d)
	for _, v := range vals {
		e.t.sendsOf[v] = append(e.t.sendsOf[v], sendSpan{to: m.To, at: start})
	}
}

// stages is one put's blocking path split into four consecutive stages.
// They tile [due, end], so each stage's self time is its duration.
type stages struct {
	batchWait, leaderWAL, hopQuorum, applyWake time.Duration
	hop                                        time.Duration // leader send → follower save start
	ok                                         bool
}

// stagesOf joins one acknowledged put with its recorded saves and sends.
// quorum is the group's majority size; the put's commit waits for the
// (quorum-1)-th follower save to end after the leader's own save.
func (t *tracer) stagesOf(o *op, quorum int) stages {
	t.mu.Lock()
	saves := t.saves[o.val]
	sends := t.sendsOf[o.val]
	t.mu.Unlock()
	var lead *saveSpan
	var follow []saveSpan
	for i := range saves {
		s := saves[i]
		if s.lead {
			if lead == nil {
				lead = &saves[i]
			}
			continue
		}
		follow = append(follow, s)
	}
	if lead == nil || len(follow) < quorum-1 {
		return stages{}
	}
	// The first save of each follower counts; a later re-save of the same
	// entry (after a truncation) does not unblock the commit again.
	first := map[types.NodeID]saveSpan{}
	for _, s := range follow {
		if s.node == lead.node {
			continue
		}
		if f, ok := first[s.node]; !ok || s.end < f.end {
			first[s.node] = s
		}
	}
	var ends []saveSpan
	for _, s := range first {
		ends = append(ends, s)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].end < ends[j].end })
	if len(ends) < quorum-1 {
		return stages{}
	}
	qf := ends[quorum-2]
	st := stages{
		batchWait: lead.start - o.due,
		leaderWAL: lead.end - lead.start,
		hopQuorum: qf.end - lead.end,
		applyWake: o.end - qf.end,
		ok:        true,
	}
	for _, s := range sends {
		if s.to == qf.node {
			st.hop = qf.start - s.at
			break
		}
	}
	if st.batchWait < 0 || st.hopQuorum < 0 || st.applyWake < 0 {
		return stages{}
	}
	return st
}

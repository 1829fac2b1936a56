package main

import (
	"fmt"
	"time"

	"adore/internal/kvstore"
	"adore/internal/raft"
	"adore/internal/types"
)

// system is one workload's running deployment as the load generator and
// the checks see it.
type system interface {
	sessions(n int) []session
	// crashLeader crashes the node leading group 0 and waits until every
	// group it led has a leader again.
	crashLeader() (crashRec, error)
	restart(c crashRec) error
	// sample refreshes the tracer's leader map and records apply lag.
	sample(t *tracer, lag *[]float64)
	// quiesce waits until every member of every group has applied the
	// whole log, checks that the replicas of each group hold identical
	// stores, and returns the union of the groups' states.
	quiesce() (map[string]string, error)
	// stop shuts the deployment down and, for file-backed storage,
	// replays every member's WAL into a fresh store and compares it
	// with the live one.
	stop() error
	counters() counters
}

// crashRec is one injected leader crash.
type crashRec struct {
	at         time.Duration
	victim     types.NodeID
	groups     []int // groups the victim led
	leaderless time.Duration
}

// counters are the totals the program already exports, summed over nodes
// (crashed incarnations included).
type counters struct {
	core    raft.Counters
	msgs    uint64
	dropped uint64
	shed    uint64
	retries uint64
}

func (c counters) minus(o counters) counters {
	d := c
	d.core = subCounters(c.core, o.core)
	d.msgs -= o.msgs
	d.dropped -= o.dropped
	d.shed -= o.shed
	d.retries -= o.retries
	return d
}

func addCounters(a, b raft.Counters) raft.Counters {
	a.Elections += b.Elections
	a.PreVoteRounds += b.PreVoteRounds
	a.TransfersStarted += b.TransfersStarted
	a.TransfersAborted += b.TransfersAborted
	a.ReadBarriers += b.ReadBarriers
	a.ReadsCoalesced += b.ReadsCoalesced
	a.LeaseReads += b.LeaseReads
	return a
}

func subCounters(a, b raft.Counters) raft.Counters {
	a.Elections -= b.Elections
	a.PreVoteRounds -= b.PreVoteRounds
	a.TransfersStarted -= b.TransfersStarted
	a.TransfersAborted -= b.TransfersAborted
	a.ReadBarriers -= b.ReadBarriers
	a.ReadsCoalesced -= b.ReadsCoalesced
	a.LeaseReads -= b.LeaseReads
	return a
}

// sameStores compares every replica's state with the first one's.
func sameStores(g int, ids []types.NodeID, states []map[string]string) error {
	for i := 1; i < len(states); i++ {
		if len(states[i]) != len(states[0]) {
			return fmt.Errorf("group %d: %s holds %d keys, %s holds %d", g, ids[0], len(states[0]), ids[i], len(states[i]))
		}
		for k, v := range states[0] {
			if states[i][k] != v {
				return fmt.Errorf("group %d: %s and %s disagree on %s", g, ids[0], ids[i], k)
			}
		}
	}
	return nil
}

// replayWAL rebuilds a store from a WAL directory alone: the snapshot
// image, then every retained entry in order.
func replayWAL(dir string) (map[string]string, error) {
	fs, err := raft.OpenFileStorage(dir)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	_, snap, entries, err := fs.Load()
	if err != nil {
		return nil, err
	}
	st := kvstore.NewStore()
	if snap.Index > 0 {
		if err := st.LoadSnapshot(snap.Data); err != nil {
			return nil, err
		}
	}
	for i, e := range entries {
		st.Apply(raft.ApplyMsg{Index: snap.Index + 1 + i, Term: e.Term, Kind: e.Kind, Command: e.Command, Members: e.Members})
	}
	return st.Snapshot(), nil
}

// compareReplay checks a WAL replay against the live store it backs.
func compareReplay(dir string, live map[string]string) error {
	got, err := replayWAL(dir)
	if err != nil {
		return fmt.Errorf("replay %s: %w", dir, err)
	}
	if err := sameStores(0, []types.NodeID{0, 0}, []map[string]string{live, got}); err != nil {
		return fmt.Errorf("WAL %s does not rebuild its store: %v", dir, err)
	}
	return nil
}

// waitFor polls cond every millisecond until it holds or limit passes.
func waitFor(limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

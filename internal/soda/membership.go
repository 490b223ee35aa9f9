package soda

import (
	"context"
	"errors"
	"sync"
)

// Health is one server's standing in the cluster's shared membership
// view. The quarantine lifecycle is
//
//	Live ──MarkSuspect──▶ Suspect ──MarkRepairing──▶ Repairing
//	  ▲                      ▲                           │
//	  │                      └───────MarkSuspect─────────┤ (repair failed,
//	  └──────────────────MarkLive────────────────────────┘  or new evidence)
//
// Live servers participate in read/write quorums. Suspect and
// Repairing servers are quarantined: writers and readers whose Config
// holds the view never contact them and charge them to the fault budget
// f instead — a write in both phases, a read in the quorum it samples
// when it starts. The view is the only quarantine there is. Only a
// completed repair (Repairer) moves a server back to Live.
type Health int

const (
	// Live: in every quorum.
	Live Health = iota
	// Suspect: quarantined and awaiting repair. Entered when a
	// SODA_err read names the server corrupt, a transport reports it
	// dead, or an operator calls MarkSuspect.
	Suspect
	// Repairing: quarantined, with a repair attempt in flight.
	Repairing
)

func (h Health) String() string {
	switch h {
	case Live:
		return "live"
	case Suspect:
		return "suspect"
	case Repairing:
		return "repairing"
	}
	return "unknown"
}

// errCorruptElement is the suspicion cause recorded when a SODA_err
// read locates a server's element as corrupt.
var errCorruptElement = errors.New("soda: read located a corrupt element")

// Membership is the concurrency-safe server-health view one cluster's
// writers, readers, and Repairer share. It is advisory state about the
// *clients'* behavior — servers never see it — so it can be wrong in
// either direction without violating safety: a falsely suspected
// server is merely excluded (costing fault budget) until the Repairer
// probes it and readmits it, and an undetected-bad server is the case
// the SODA_err read path already tolerates within its e budget.
type Membership struct {
	mu          sync.Mutex
	state       []Health
	cause       []error
	quarantines uint64
	// changed is closed and replaced on every transition, so waiters
	// (the repair loop) wake without polling.
	changed chan struct{}
}

// NewMembership returns an all-Live view of an n-server cluster.
func NewMembership(n int) *Membership {
	return &Membership{
		state:   make([]Health, n),
		cause:   make([]error, n),
		changed: make(chan struct{}),
	}
}

// N returns the cluster size the view was built for.
func (m *Membership) N() int { return len(m.state) }

// broadcast wakes everyone blocked on Changed. Callers hold mu.
func (m *Membership) broadcast() {
	close(m.changed)
	m.changed = make(chan struct{})
}

// Changed returns a channel that is closed at the next membership
// transition after the call. Wait on it, then re-read the view.
func (m *Membership) Changed() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.changed
}

// Health returns server i's current standing.
func (m *Membership) Health(i int) Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state[i]
}

// IsLive reports whether server i participates in quorums.
func (m *Membership) IsLive(i int) bool { return m.Health(i) == Live }

// Cause returns the evidence recorded when server i left Live, or nil
// for a live server.
func (m *Membership) Cause(i int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cause[i]
}

// Suspects returns the ascending indices of every quarantined server
// (Suspect or Repairing).
func (m *Membership) Suspects() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	for i, h := range m.state {
		if h != Live {
			out = append(out, i)
		}
	}
	return out
}

// MarkSuspect quarantines server i, recording why. Marking an
// already-quarantined server refreshes the cause and demotes Repairing
// back to Suspect — new evidence invalidates an in-flight repair's
// claim to be finishing. It reports whether the server was Live.
func (m *Membership) MarkSuspect(i int, cause error) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	wasLive := m.state[i] == Live
	if wasLive {
		m.quarantines++
	}
	m.state[i] = Suspect
	m.cause[i] = cause
	m.broadcast()
	return wasLive
}

// Quarantines counts Live→Suspect transitions since the view was
// built — how many times the cluster has pulled a server out of
// quorums (re-suspecting an already-quarantined server doesn't
// count).
func (m *Membership) Quarantines() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.quarantines
}

// MarkRepairing claims server i for a repair attempt. It succeeds only
// from Suspect, so two repair loops cannot both think they own the
// server, and fresh suspicion (which resets to Suspect) is never
// silently swallowed by a stale repair.
func (m *Membership) MarkRepairing(i int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state[i] != Suspect {
		return false
	}
	m.state[i] = Repairing
	m.broadcast()
	return true
}

// MarkLive readmits server i to quorums — the Repairer calls this
// after installing the repaired element (or proving the server already
// holds something at least as new). It succeeds only from Repairing:
// if suspicion arrived while the repair was in flight, the server
// stays quarantined and the repair loop goes around again.
func (m *Membership) MarkLive(i int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state[i] != Repairing {
		return false
	}
	m.state[i] = Live
	m.cause[i] = nil
	m.broadcast()
	return true
}

// Readmit moves server i Suspect → Repairing → Live in one step: the
// operator path for a node that recovered its own state from disk
// (snapshot + WAL replay) and needs no donor repair. A durable server
// syncs every record before it acknowledges, so after a power cut
// Recover brings back everything it acknowledged and Readmit is safe.
// A node that lost its disk (a memory loopback's Recover) or whose disk
// rots is another matter: leave it Suspect and let the Repairer heal and
// readmit it. Returns false if i was not Suspect (already live, or a
// repair loop claimed it first).
func (m *Membership) Readmit(i int) bool {
	if !m.MarkRepairing(i) {
		return false
	}
	return m.MarkLive(i)
}

// AwaitLive blocks until server i is Live or ctx ends — how callers
// wait out a repair they know is in flight.
func (m *Membership) AwaitLive(ctx context.Context, i int) error {
	for {
		ch := m.Changed()
		if m.Health(i) == Live {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// ReportRead feeds a completed SODA_err read's corruption report into
// the view: every server the decoder located as corrupt becomes
// Suspect. Readers whose Config holds the view call this themselves.
func (m *Membership) ReportRead(res ReadResult) {
	for _, i := range res.Corrupt {
		m.MarkSuspect(i, errCorruptElement)
	}
}

package soda

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// RADON-style repair (Konwar et al., arXiv:1605.05717): SODA tolerates
// crashes and corruption but never heals, so every fault permanently
// burns quorum margin. The Repairer closes the loop: it watches the
// shared Membership view for suspects, regenerates each suspect's
// coded element from k live survivors (the [n,k] code makes any
// server's shard a deterministic function of any k others), installs
// it with RepairPut — which the server accepts only at a tag >= its
// current one, so repair can never roll a server backwards — and
// readmits the server to quorums.
//
// Why repair preserves atomicity: quarantined servers are invisible to
// membership-aware quorums, so during repair the cluster simply runs
// with a smaller margin, which is SODA's existing fault model. The
// repaired element always carries the highest tag that k live servers
// jointly vouch for, and the tag-monotone install means a readmitted
// server holds everything it held before the fault, possibly newer.
// The reader's f < k argument — a returned tag's k holders must
// intersect every later n-f quorum — needs holders never to stop
// holding, which is exactly the RepairPut invariant; a rejoined server
// that is merely stale is indistinguishable from one that missed a few
// put-datas, a state the protocol already handles.

var (
	// ErrRepairQuorum: fewer than k live servers agree on any single
	// version, so no element can be regenerated yet (for example,
	// mid-flight writes have the survivors scattered across tags).
	// The repair loop backs off and retries.
	ErrRepairQuorum = errors.New("soda: repair: no version with k matching elements")
)

// RepairOutcome says how a repair attempt concluded successfully.
type RepairOutcome int

const (
	// RepairInstalled: the server accepted the regenerated element.
	RepairInstalled RepairOutcome = iota
	// RepairAlreadyCurrent: the server rejected the install because it
	// already holds a tag newer than the regenerated one — proof of
	// health, so it is readmitted without a write.
	RepairAlreadyCurrent
	// RepairEmptyRegister: every donor reports the unwritten state;
	// there is nothing to regenerate, and the reachable server is
	// readmitted as-is.
	RepairEmptyRegister
)

func (o RepairOutcome) String() string {
	switch o {
	case RepairInstalled:
		return "installed"
	case RepairAlreadyCurrent:
		return "already-current"
	case RepairEmptyRegister:
		return "empty-register"
	}
	return "unknown"
}

// RepairEvent is the observability record of one per-key repair
// attempt, delivered to the WithRepairEvents hook. Key is empty when
// the whole namespace was empty and the attempt degenerated into a
// reachability probe.
type RepairEvent struct {
	Server  int
	Key     string
	Outcome RepairOutcome
	Tag     Tag   // tag installed or confirmed
	Corrupt []int // donors the rebuild located as corrupt, if any
	Err     error // non-nil: the attempt failed and will be retried
}

// Repairer is one cluster's anti-entropy healer. Run it once per
// cluster next to the clients that share its Membership view.
type Repairer struct {
	codec    *Codec
	conns    []Conn
	m        *Membership
	interval time.Duration
	backoff  Backoff
	onEvent  func(RepairEvent)
}

// RepairerOption configures a Repairer.
type RepairerOption func(*Repairer) error

// WithRepairInterval sets the poll floor of the repair loop: how often
// it rechecks suspects absent a membership change. Changes via the
// Membership view wake it immediately regardless.
func WithRepairInterval(d time.Duration) RepairerOption {
	return func(rp *Repairer) error {
		if d <= 0 {
			return fmt.Errorf("%w: repair interval %v", ErrConfig, d)
		}
		rp.interval = d
		return nil
	}
}

// WithRepairBackoff sets the per-server retry schedule applied after a
// failed repair attempt.
func WithRepairBackoff(b Backoff) RepairerOption {
	return func(rp *Repairer) error {
		rp.backoff = b
		return nil
	}
}

// WithRepairEvents installs a hook invoked synchronously after every
// repair attempt — tests and the demo use it to watch the lifecycle.
func WithRepairEvents(fn func(RepairEvent)) RepairerOption {
	return func(rp *Repairer) error {
		rp.onEvent = fn
		return nil
	}
}

// NewRepairer builds the repairer for a cluster. The conns are the
// repairer's own (it may dial concurrently with writers and readers),
// and the Membership view must be the one those writers and readers
// share, or nobody will see the healing.
func NewRepairer(codec *Codec, conns []Conn, m *Membership, opts ...RepairerOption) (*Repairer, error) {
	if err := validateConns(conns, codec.N()); err != nil {
		return nil, err
	}
	if m == nil || m.N() != codec.N() {
		return nil, fmt.Errorf("%w: repairer needs a membership view for n=%d", ErrConfig, codec.N())
	}
	rp := &Repairer{
		codec:    codec,
		conns:    conns,
		m:        m,
		interval: time.Second,
		backoff:  Backoff{Base: 20 * time.Millisecond, Max: 2 * time.Second},
	}
	for _, opt := range opts {
		if err := opt(rp); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

func (rp *Repairer) event(ev RepairEvent) {
	if rp.onEvent != nil {
		rp.onEvent(ev)
	}
}

// Run is the anti-entropy loop: wake on membership changes (or the
// interval floor), attempt one repair per due suspect, back off
// per-server on failure. It blocks until ctx ends.
func (rp *Repairer) Run(ctx context.Context) error {
	type pending struct {
		b    Backoff
		next time.Time
	}
	pend := make(map[int]*pending)
	for {
		// Snapshot the change channel before reading the view, so a
		// transition between "read suspects" and "wait" still wakes us.
		changed := rp.m.Changed()
		now := time.Now()
		var wake time.Time
		for _, s := range rp.m.Suspects() {
			if rp.m.Health(s) != Suspect {
				continue // someone else's attempt is in flight
			}
			p := pend[s]
			if p == nil {
				p = &pending{b: rp.backoff}
				pend[s] = p
			}
			if now.Before(p.next) {
				if wake.IsZero() || p.next.Before(wake) {
					wake = p.next
				}
				continue
			}
			if _, err := rp.RepairOnce(ctx, s); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				if errors.Is(err, ErrStaleEpoch) {
					// The cluster reconfigured out from under this
					// repairer: its conns are stamped with a retired
					// epoch, so every further attempt would bounce too.
					// Abort rather than spin — the new configuration's
					// repairer owns the healing now.
					return fmt.Errorf("soda: repair: configuration epoch moved: %w", err)
				}
				p.next = time.Now().Add(p.b.Next())
				if wake.IsZero() || p.next.Before(wake) {
					wake = p.next
				}
			} else {
				delete(pend, s)
			}
		}
		d := rp.interval
		if !wake.IsZero() {
			if until := time.Until(wake); until < d {
				d = max(until, time.Millisecond)
			}
		}
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-changed:
			timer.Stop()
		case <-timer.C:
		}
	}
}

// donation is one live server's answer to the collection phase.
type donation struct {
	server int
	ver    version
	elem   []byte
}

// RepairOnce runs a single repair attempt for a Suspect server:
// enumerate the keys the live servers hold, and for each one collect
// its elements, regenerate the suspect's shard of the highest version
// k donors vouch for, and install it with RepairPut; then readmit the
// server. The returned outcome is the strongest across the keys (any
// install wins over already-current wins over empty). On failure the
// server is left Suspect (with the failure as its cause) for the loop
// to retry — a partial repair is safe to re-run, since every install
// is tag-monotone and idempotent.
func (rp *Repairer) RepairOnce(ctx context.Context, target int) (RepairOutcome, error) {
	if !rp.m.MarkRepairing(target) {
		return 0, fmt.Errorf("%w: server %d is %v, not suspect", ErrConfig, target, rp.m.Health(target))
	}
	outcome, err := rp.repair(ctx, target)
	if err != nil {
		// Back to Suspect so the loop retries; the cause is the
		// failure, replacing the original evidence.
		rp.m.MarkSuspect(target, fmt.Errorf("repair failed: %w", err))
		rp.event(RepairEvent{Server: target, Err: err})
		return 0, err
	}
	// Readmission can lose to suspicion that arrived mid-repair; the
	// loop will then go around again, which is the conservative side.
	rp.m.MarkLive(target)
	return outcome, nil
}

func (rp *Repairer) repair(ctx context.Context, target int) (RepairOutcome, error) {
	keys, err := rp.keyUnion(ctx, target)
	if err != nil {
		return 0, err
	}
	if len(keys) == 0 {
		// Nothing is written anywhere the live servers know of: there
		// is no element to regenerate for any key. A reachability probe
		// (the cheapest unary) proves the target answers, which is all
		// readmission needs.
		if _, err := rp.conns[connIndex(rp.conns, target)].Keys(ctx); err != nil {
			return 0, fmt.Errorf("reachability probe of server %d: %w", target, err)
		}
		rp.event(RepairEvent{Server: target, Outcome: RepairEmptyRegister})
		return RepairEmptyRegister, nil
	}
	// Heal every key; the aggregate outcome is the strongest observed
	// (RepairOutcome orders installed < already-current < empty).
	outcome := RepairEmptyRegister
	for _, key := range keys {
		o, err := rp.repairKey(ctx, target, key)
		if err != nil {
			return 0, err
		}
		if o < outcome {
			outcome = o
		}
	}
	return outcome, nil
}

// keyUnion enumerates the keys held across the live donors — the
// namespace the target must be healed over. Donors that fail the
// enumeration are marked suspect and skipped; at least one must
// answer.
func (rp *Repairer) keyUnion(ctx context.Context, target int) ([]string, error) {
	var (
		mu       sync.Mutex
		union    = make(map[string]struct{})
		answers  int
		staleErr error
	)
	var wg sync.WaitGroup
	for _, c := range rp.conns {
		if c.Index() == target || !rp.m.IsLive(c.Index()) {
			continue
		}
		wg.Add(1)
		go func(c Conn) {
			defer wg.Done()
			keys, err := c.Keys(ctx)
			if err != nil {
				if errors.Is(err, ErrStaleEpoch) {
					mu.Lock()
					if staleErr == nil {
						staleErr = err
					}
					mu.Unlock()
				}
				reportSuspect(rp.m, ctx, c.Index(), err)
				return
			}
			mu.Lock()
			answers++
			for _, k := range keys {
				union[k] = struct{}{}
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if answers == 0 {
		if staleErr != nil {
			// Every donor bounced the enumeration for carrying a retired
			// epoch: the quorum shortfall IS a reconfiguration, and the
			// caller must see it as one.
			return nil, fmt.Errorf("%w: no live donor answered the key enumeration: %w", ErrRepairQuorum, staleErr)
		}
		return nil, fmt.Errorf("%w: no live donor answered the key enumeration", ErrRepairQuorum)
	}
	keys := make([]string, 0, len(union))
	for k := range union {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys, nil
}

func (rp *Repairer) repairKey(ctx context.Context, target int, key string) (RepairOutcome, error) {
	donations, err := rp.collect(ctx, target, key)
	if err != nil {
		return 0, err
	}
	ver, elems := chooseVersion(donations, rp.codec.K())
	if elems == nil {
		return 0, fmt.Errorf("%w: key %q, %d donors", ErrRepairQuorum, key, len(donations))
	}

	// Probe the target before paying for a rebuild: a node that
	// recovered its own state from disk often holds a tag strictly
	// newer than anything k donors agree on, and shipping it a stale
	// element just to have RepairPut bounce it wastes the decode and
	// the transfer. Equal tags still go through RepairPut — reinstall
	// overwrites a rotted element without raising the tag.
	tc := rp.conns[connIndex(rp.conns, target)]
	if tTag, _, _, tErr := tc.GetElem(ctx, key); tErr == nil && ver.tag.Less(tTag) {
		rp.event(RepairEvent{Server: target, Key: key, Outcome: RepairAlreadyCurrent, Tag: ver.tag})
		return RepairAlreadyCurrent, nil
	}

	var install []byte
	var corrupt []int
	outcome := RepairInstalled
	if ver.tag.IsZero() {
		// The key is unwritten as far as the live servers agree:
		// nothing to regenerate. The RepairPut below degenerates into a
		// reachability probe for this key.
		outcome = RepairEmptyRegister
	} else {
		install, corrupt, err = rp.rebuild(target, elems)
		if err != nil {
			return 0, err
		}
		// Donors the rebuild caught lying join the repair queue.
		for _, c := range corrupt {
			if c != target {
				rp.m.MarkSuspect(c, errCorruptElement)
			}
		}
	}

	accepted, err := tc.RepairPut(ctx, key, ver.tag, install, ver.vlen)
	if err != nil {
		return 0, fmt.Errorf("repair-put of key %q to server %d: %w", key, target, err)
	}
	if !accepted {
		// The server already holds a newer tag than anything k live
		// servers agree on — it is ahead, not behind. Reachable and
		// tag-monotone: that is health.
		outcome = RepairAlreadyCurrent
	}
	rp.event(RepairEvent{Server: target, Key: key, Outcome: outcome, Tag: ver.tag, Corrupt: corrupt})
	return outcome, nil
}

// collect fans msgGetElem for key out to every live server except the
// target and gathers the well-formed answers. Transport failures mark
// the donor suspect (it will get its own repair) but do not fail the
// collection unless fewer than k donors remain.
func (rp *Repairer) collect(ctx context.Context, target int, key string) ([]donation, error) {
	var (
		mu        sync.Mutex
		donations []donation
		staleErr  error
	)
	var wg sync.WaitGroup
	for _, c := range rp.conns {
		if c.Index() == target || !rp.m.IsLive(c.Index()) {
			continue
		}
		wg.Add(1)
		go func(c Conn) {
			defer wg.Done()
			t, elem, vlen, err := c.GetElem(ctx, key)
			if err != nil {
				if errors.Is(err, ErrStaleEpoch) {
					mu.Lock()
					if staleErr == nil {
						staleErr = err
					}
					mu.Unlock()
				}
				reportSuspect(rp.m, ctx, c.Index(), err)
				return
			}
			// Well-formedness mirrors the read path: an element whose
			// size contradicts its claimed vlen contributes nothing.
			if !t.IsZero() && (vlen <= 0 || len(elem) != rp.codec.shardSize(vlen)) {
				return
			}
			mu.Lock()
			donations = append(donations, donation{server: c.Index(), ver: version{tag: t, vlen: vlen}, elem: elem})
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(donations) < rp.codec.K() {
		if staleErr != nil {
			return nil, fmt.Errorf("%w: only %d of %d live servers answered, need k=%d: %w",
				ErrRepairQuorum, len(donations), len(rp.conns), rp.codec.K(), staleErr)
		}
		return nil, fmt.Errorf("%w: only %d of %d live servers answered, need k=%d",
			ErrRepairQuorum, len(donations), len(rp.conns), rp.codec.K())
	}
	return donations, nil
}

// chooseVersion picks the highest (tag, vlen) version at least k
// donors agree on — elements are keyed by the pair exactly like the
// read path, so a donor lying about vlen only pollutes its own bucket.
// It returns a nil map when no version reaches k.
func chooseVersion(donations []donation, k int) (version, map[int][]byte) {
	buckets := make(map[version]map[int][]byte)
	for _, d := range donations {
		b := buckets[d.ver]
		if b == nil {
			b = make(map[int][]byte)
			buckets[d.ver] = b
		}
		if _, dup := b[d.server]; !dup {
			b[d.server] = d.elem
		}
	}
	var best version
	var bestElems map[int][]byte
	for v, b := range buckets {
		if len(b) < k {
			continue
		}
		if bestElems == nil || best.tag.Less(v.tag) ||
			(best.tag == v.tag && v.vlen > best.vlen) {
			best, bestElems = v, b
		}
	}
	return best, bestElems
}

// rebuild regenerates the target's coded element from the donated
// shards. With donors to spare, the syndrome decoder cross-checks them
// while it rebuilds — a corrupt donor inside the decoding radius is
// located (and reported) instead of silently poisoning the repaired
// element; with exactly k donors it is plain erasure decoding.
func (rp *Repairer) rebuild(target int, elems map[int][]byte) ([]byte, []int, error) {
	shards := make([][]byte, rp.codec.N())
	for i, el := range elems {
		shards[i] = slices.Clone(el)
	}
	corrupt, err := rp.codec.enc.DecodeErrors(shards)
	if err != nil {
		return nil, nil, fmt.Errorf("repair decode: %w", err)
	}
	return shards[target], corrupt, nil
}

// connIndex finds the conn for a shard index (conns are validated to
// cover every index exactly once).
func connIndex(conns []Conn, idx int) int {
	for i, c := range conns {
		if c.Index() == idx {
			return i
		}
	}
	return -1
}

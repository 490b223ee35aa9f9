package soda

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/rs"
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
//
// The drain. Repair and reconfiguration (reconfig.go) ask a set of
// donors the same question — which version do k of them vouch for, and
// what are its bytes? — and answer it with the same three functions:
// keyUnion enumerates the namespace, gather reads one key's elements,
// and regenerate picks the version and decodes it, cross-checking the
// donors whenever more than k of them hold it. The Repairer installs
// the target's shard of the result; the Reconfigurator decodes the
// value and re-encodes it under the next geometry. A donor serving
// rotten bytes is located and corrected or, past what the code can
// locate, waited out — neither caller ever spreads it.

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

// repairEvent is the record of one per-key repair attempt, delivered to
// the Repairer's onEvent hook. key is empty when the whole namespace was
// empty and the attempt degenerated into a reachability probe.
type repairEvent struct {
	server  int
	key     string
	outcome RepairOutcome
	tag     Tag   // tag installed or confirmed
	corrupt []int // donors the rebuild located as corrupt, if any
	err     error // non-nil: the attempt failed and will be retried
}

// Repairer is one cluster's anti-entropy healer. Run it once per
// cluster next to the clients that share its Membership view.
type Repairer struct {
	codec   *Codec
	conns   []Conn
	m       *Membership
	backoff backoff           // per-suspect retry schedule after a failed attempt
	onEvent func(repairEvent) // the tests' window on every attempt
}

// NewRepairer builds the repairer for a cluster. The conns are the
// repairer's own (it may dial concurrently with writers and readers),
// and the Membership view must be the one those writers and readers
// share, or nobody will see the healing.
func NewRepairer(codec *Codec, conns []Conn, m *Membership) (*Repairer, error) {
	if err := validateConns(conns, codec.N()); err != nil {
		return nil, err
	}
	if m == nil || m.N() != codec.N() {
		return nil, fmt.Errorf("%w: repairer needs a membership view for n=%d", ErrConfig, codec.N())
	}
	return &Repairer{
		codec:   codec,
		conns:   conns,
		m:       m,
		backoff: backoff{base: 5 * time.Millisecond, max: 100 * time.Millisecond},
	}, nil
}

func (rp *Repairer) event(ev repairEvent) {
	if rp.onEvent != nil {
		rp.onEvent(ev)
	}
}

// Run is the anti-entropy loop: wake on a membership change or a
// suspect's backoff deadline, attempt one repair per due suspect, back
// off per-server on failure. It blocks until ctx ends.
func (rp *Repairer) Run(ctx context.Context) error {
	type pending struct {
		b    backoff
		next time.Time
	}
	clk := rp.backoff.clk
	pend := make(map[int]*pending)
	for {
		// Snapshot the change channel before reading the view, so a
		// transition between "read suspects" and "wait" still wakes us.
		changed := rp.m.Changed()
		now := clk.now()
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
				p.next = clk.now().Add(p.b.next())
				if wake.IsZero() || p.next.Before(wake) {
					wake = p.next
				}
			} else {
				delete(pend, s)
			}
		}
		// A backoff ending is the one cause of work that does not close changed.
		var due <-chan time.Time
		if !wake.IsZero() {
			due = clk.after(max(wake.Sub(clk.now()), time.Millisecond))
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-changed:
		case <-due:
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
		rp.event(repairEvent{server: target, err: err})
		return 0, err
	}
	// Readmission can lose to suspicion that arrived mid-repair; the
	// loop will then go around again, which is the conservative side.
	rp.m.MarkLive(target)
	return outcome, nil
}

func (rp *Repairer) repair(ctx context.Context, target int) (RepairOutcome, error) {
	keys, err := keyUnion(ctx, rp.donors(target), 1, rp.m)
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
		rp.event(repairEvent{server: target, outcome: RepairEmptyRegister})
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

// donors is every live server but the target, sampled afresh for each
// donor read, so one caught failing sits out the rest of the repair.
func (rp *Repairer) donors(target int) []Conn {
	var out []Conn
	for _, c := range rp.conns {
		if c.Index() != target && rp.m.IsLive(c.Index()) {
			out = append(out, c)
		}
	}
	return out
}

func (rp *Repairer) repairKey(ctx context.Context, target int, key string) (RepairOutcome, error) {
	donations, err := gather(ctx, rp.donors(target), rp.codec, key, rp.m)
	if err != nil {
		return 0, err
	}
	ver, shards, corrupt, err := regenerate(rp.codec, donations)
	if err != nil {
		return 0, fmt.Errorf("key %q: %w", key, err)
	}
	// Donors the decode caught lying join the repair queue.
	for _, c := range corrupt {
		rp.m.MarkSuspect(c, errCorruptElement)
	}

	// Probe the target before shipping it anything: a node that
	// recovered its own state from disk often holds a tag strictly
	// newer than anything k donors agree on, and a stale element would
	// only bounce off RepairPut. Equal tags still go through RepairPut —
	// reinstall overwrites a rotted element without raising the tag.
	tc := rp.conns[connIndex(rp.conns, target)]
	if tTag, _, _, tErr := tc.GetElem(ctx, key); tErr == nil && ver.tag.Less(tTag) {
		rp.event(repairEvent{server: target, key: key, outcome: RepairAlreadyCurrent, tag: ver.tag, corrupt: corrupt})
		return RepairAlreadyCurrent, nil
	}

	var install []byte
	outcome := RepairInstalled
	if ver.tag.IsZero() {
		// The key is unwritten as far as the live servers agree:
		// nothing to regenerate. The RepairPut below degenerates into a
		// reachability probe for this key.
		outcome = RepairEmptyRegister
	} else {
		install = shards[target]
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
	rp.event(repairEvent{server: target, key: key, outcome: outcome, tag: ver.tag, corrupt: corrupt})
	return outcome, nil
}

// ask runs one donor read on every donor concurrently and returns the
// answers of those that gave one. A donor whose read fails is reported
// to m (nil: to nobody) and skipped; stale is the first stale-epoch
// refusal among the failures.
func ask[T any](ctx context.Context, donors []Conn, m *Membership, read func(Conn) (T, error)) (answers []T, stale error) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, c := range donors {
		wg.Add(1)
		go func(c Conn) {
			defer wg.Done()
			a, err := read(c)
			if err != nil {
				reportSuspect(m, ctx, c.Index(), err)
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				answers = append(answers, a)
			case stale == nil && errors.Is(err, ErrStaleEpoch):
				stale = err
			}
		}(c)
	}
	wg.Wait()
	return answers, stale
}

// shortfall is the ErrRepairQuorum of a donor read that too few donors
// answered. It carries the stale-epoch refusal among them, if any: a
// shortfall a reconfiguration caused must read as one, and Run aborts
// on it.
func shortfall(what string, stale error) error {
	if stale != nil {
		return fmt.Errorf("%w: %s: %w", ErrRepairQuorum, what, stale)
	}
	return fmt.Errorf("%w: %s", ErrRepairQuorum, what)
}

// keyUnion enumerates the keys held across the donors — the namespace a
// drain must cover. At least need donors must answer.
func keyUnion(ctx context.Context, donors []Conn, need int, m *Membership) ([]string, error) {
	lists, stale := ask(ctx, donors, m, func(c Conn) ([]string, error) { return c.Keys(ctx) })
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(lists) < need {
		return nil, shortfall(fmt.Sprintf("%d of %d donors answered the key enumeration, need %d", len(lists), len(donors), need), stale)
	}
	var keys []string
	for _, ks := range lists {
		keys = append(keys, ks...)
	}
	slices.Sort(keys)
	return slices.Compact(keys), nil
}

// gather reads key's element from every donor concurrently and keeps
// the well-formed answers; fewer than k of them is ErrRepairQuorum.
func gather(ctx context.Context, donors []Conn, codec *Codec, key string, m *Membership) ([]donation, error) {
	got, stale := ask(ctx, donors, m, func(c Conn) (donation, error) {
		t, elem, vlen, err := c.GetElem(ctx, key)
		return donation{server: c.Index(), ver: version{tag: t, vlen: vlen}, elem: elem}, err
	})
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	// Well-formedness mirrors the read path: an element whose size
	// contradicts its claimed vlen contributes nothing.
	donations := slices.DeleteFunc(got, func(d donation) bool {
		return !d.ver.tag.IsZero() && (d.ver.vlen <= 0 || len(d.elem) != codec.shardSize(d.ver.vlen))
	})
	if len(donations) < codec.K() {
		return nil, shortfall(fmt.Sprintf("only %d of %d donors answered, need k=%d", len(donations), len(donors), codec.K()), stale)
	}
	return donations, nil
}

// regenerate picks the highest version k donations vouch for and
// decodes it into all n shards, returning the donors it located as
// corrupt (their shards come back corrected). With exactly k donations
// of the version this is erasure decoding; with more, the decoder
// cross-checks them. Disagreement it detects but cannot locate is
// ErrRepairQuorum, like a missing donor: the caller waits for more
// donors rather than trust either side. An unwritten version has no
// shards.
func regenerate(codec *Codec, donations []donation) (version, [][]byte, []int, error) {
	ver, elems := chooseVersion(donations, codec.K())
	if elems == nil {
		return version{}, nil, nil, fmt.Errorf("%w: %d donors", ErrRepairQuorum, len(donations))
	}
	if ver.tag.IsZero() {
		return ver, nil, nil, nil
	}
	shards := make([][]byte, codec.N())
	for i, el := range elems {
		shards[i] = slices.Clone(el)
	}
	corrupt, err := codec.enc.DecodeErrors(shards)
	if errors.Is(err, rs.ErrTooManyErrors) {
		return version{}, nil, nil, fmt.Errorf("%w: the %d donors of tag %v disagree past what the code can locate: %w",
			ErrRepairQuorum, len(elems), ver.tag, err)
	}
	if err != nil {
		return version{}, nil, nil, fmt.Errorf("decoding tag %v: %w", ver.tag, err)
	}
	return ver, shards, corrupt, nil
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

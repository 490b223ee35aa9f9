package soda

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"
)

// Reconfigurator drives the two-phase online geometry flip:
//
//	freeze ──▶ seal ──▶ migrate ──▶ activate ──▶ install
//
// Freeze (in memory only) stops the old members minting tags but not
// taking put-data, so no write starts while the seal goes round and a
// write in flight lands on every member the seal has not reached yet.
// Without it, writes the seal cuts short often leave no version on k
// members; one the seal overtakes still can.
//
// Seal closes the old epoch on every member (old and new): sealed
// servers NACK client operations but keep serving donor reads of the
// frozen state, so writers and readers pause (their epoch-stamped
// frames bounce with "want = pending") while nothing moves underneath
// the migration. Migrate drains every key out of the old geometry
// through the drain it shares with the Repairer (repair.go) — gather
// the old members' elements, regenerate the version k of them vouch
// for, decode it under the old [n,k] code, re-encode it under the new
// one — and lays the new elements down on every new member with
// RepairPut at the pending epoch (the one frame class sealed servers
// accept, and tag-monotone, so re-running a crashed migration is
// idempotent). Activate flips every new member to the new epoch, and
// Install publishes the new Config to the shared view, releasing the
// waiting clients.
//
// Safety: a completed write has elements on n−f ≥ k old members, and
// the seal means no tag moves during the drain, so regenerate's
// k-agreement requirement finds every completed write's latest
// version. With more than k donors of it the decode cross-checks them:
// a donor serving rotten bytes is located and decoded around or, past
// what the code can locate, waited out — never re-encoded into the new
// geometry, where every element would carry the rot and no reader
// could find it. Re-encoding preserves the value and the tag, so a
// read under the new epoch returns exactly what the old epoch would
// have.
// In-flight operations that straddle the flip either completed their
// quorum entirely before the seal (they count) or are NACKed and
// retried entirely under the new epoch (they re-assemble from
// scratch); no quorum ever spans both.
//
// Crash-safety: every transition is WAL-logged and force-synced on
// durable members before it applies, and all three phases are
// idempotent, so a coordinator (or member) that power-cuts mid-flip
// re-runs Apply and converges: a member that already sealed reports
// the seal, re-installed elements bounce off the tag floor, and a
// member that already activated acknowledges the retry. Any activated
// member proves the migration completed (activation is only ever
// issued after a full drain), so a re-run skips straight to finishing
// the activation.
type Reconfigurator struct {
	view *ConfigView
	// backoff is the retry schedule inside each phase while a member is
	// unreachable (20ms..2s). A flip does not give up on a member: a node
	// power-cut mid-flip blocks the phase until it recovers, which is what
	// keeps activation from outrunning the drain.
	backoff backoff
}

// NewReconfigurator builds the coordinator around the cluster's
// shared ConfigView.
func NewReconfigurator(view *ConfigView) *Reconfigurator {
	return &Reconfigurator{
		view:    view,
		backoff: backoff{base: 20 * time.Millisecond, max: 2 * time.Second},
	}
}

// members is the seal set of a flip: every server in the old or new
// configuration, each exactly once. Old and new conns for one shard
// index address the same server (membership is index-prefix: growing
// appends indices, shrinking drops the tail), so the set is the
// longer conn list's indices, preferring the old conn for indices
// both cover — retired members must seal too, or a lagging writer
// could complete an old-epoch quorum against them.
func members(old, next *Config) []Conn {
	out := slices.Clone(old.Conns)
	for _, c := range next.Conns {
		if c.Index() >= len(old.Conns) {
			out = append(out, c)
		}
	}
	return out
}

// eachUntil applies fn to every conn, retrying the failures with
// backoff until all succeed or ctx ends.
func (rc *Reconfigurator) eachUntil(ctx context.Context, phase string, conns []Conn, fn func(Conn) error) error {
	pending := slices.Clone(conns)
	b := rc.backoff
	for {
		var failed []Conn
		var firstErr error
		for _, c := range pending {
			if err := fn(c); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				failed = append(failed, c)
			}
		}
		if len(failed) == 0 {
			return nil
		}
		if err := b.sleep(ctx); err != nil {
			return fmt.Errorf("reconfig %s: %w (last member error: %w)", phase, err, firstErr)
		}
		pending = failed
	}
}

// Apply performs one online reconfiguration from the view's current
// configuration to next, blocking until the new epoch is active and
// installed. Safe to re-run after a coordinator crash; returns only
// on success or context end.
func (rc *Reconfigurator) Apply(ctx context.Context, next *Config) error {
	if err := next.validate(); err != nil {
		return err
	}
	old := rc.view.Current()
	if next.Epoch() <= old.Epoch() {
		return fmt.Errorf("%w: reconfiguring to epoch %d from %d", ErrConfig, next.Epoch(), old.Epoch())
	}

	// Phase 0: status probe. Any new member already at (or past) the
	// target epoch proves a previous run finished the drain and began
	// activating; skip straight to re-issuing the activation.
	activated := 0
	for _, c := range next.Conns {
		if st, err := c.Reconfig(ctx, ReconfigStatus, 0, 0, 0); err == nil && st.Epoch >= next.Epoch() {
			activated++
		}
	}

	if activated == 0 {
		// Phase 1: freeze the old members, then seal every member of
		// both configurations.
		err := rc.eachUntil(ctx, "freeze", old.Conns, func(c Conn) error {
			_, err := c.Reconfig(ctx, reconfigFreeze, next.Epoch(), next.N(), next.K())
			return err
		})
		if err != nil {
			return err
		}
		err = rc.eachUntil(ctx, "seal", members(old, next), func(c Conn) error {
			_, err := c.Reconfig(ctx, ReconfigSeal, next.Epoch(), next.N(), next.K())
			return err
		})
		if err != nil {
			return err
		}

		// Phase 2: drain the frozen namespace into the new geometry.
		if err := rc.migrate(ctx, old, next); err != nil {
			return err
		}
	}

	// Phase 3: activate every new member. Retired members stay sealed
	// forever — their epoch never answers another client quorum.
	err := rc.eachUntil(ctx, "activate", next.Conns, func(c Conn) error {
		_, err := c.Reconfig(ctx, ReconfigActivate, next.Epoch(), next.N(), next.K())
		return err
	})
	if err != nil {
		return err
	}

	// Phase 4: publish. Waiting clients (a view's Writers and Readers in
	// Await) wake here and retry under the new geometry.
	if err := rc.view.Install(next); err != nil {
		// A concurrent coordinator may have installed past us; epoch
		// monotonicity already holds, so only a genuinely conflicting
		// install is an error.
		if rc.view.Current().Epoch() >= next.Epoch() {
			return nil
		}
		return err
	}
	return nil
}

// migrate drains every key from the old configuration into the new
// one: enumerate the frozen namespace from the old members, then
// migrate each key.
func (rc *Reconfigurator) migrate(ctx context.Context, old, next *Config) error {
	oldF, err := old.writerFaults()
	if err != nil {
		return err
	}

	// Enumerate from at least n−f old members: a completed write's key
	// lives on n−f of them, and (n−f)+(n−f) > n means any two such
	// quorums intersect, so the union over n−f enumerations cannot miss
	// a completed write.
	var keys []string
	err = rc.awaitDonors(ctx, "enumerating keys", func() (err error) {
		keys, err = keyUnion(ctx, old.Conns, old.N()-oldF, nil)
		return err
	})
	if err != nil {
		return err
	}

	for _, key := range keys {
		if err := rc.migrateKey(ctx, old, next, key); err != nil {
			return err
		}
	}
	return nil
}

// awaitDonors runs one donor read of the drain until it succeeds,
// backing off while it reports ErrRepairQuorum: too few old members
// answered, none of their versions reaches k, or they disagree past
// what the decoder can locate — a member down, still recovering or
// rotting. A flip does not give up on a member; it waits it out.
func (rc *Reconfigurator) awaitDonors(ctx context.Context, what string, read func() error) error {
	b := rc.backoff
	var err error
	for {
		last := err
		if err = read(); !errors.Is(err, ErrRepairQuorum) {
			if last != nil && ctx.Err() != nil {
				// The context ended inside a read: name what the drain
				// was waiting for, as when it ends inside the sleep.
				return fmt.Errorf("reconfig migrate %s: %w (last donor error: %w)", what, err, last)
			}
			return err
		}
		if serr := b.sleep(ctx); serr != nil {
			return fmt.Errorf("reconfig migrate %s: %w (last donor error: %w)", what, serr, err)
		}
	}
}

// migrateKey drains one key: regenerate the version the old members
// vouch for, decode its value under the old code, re-encode it under
// the new one, and lay it down on every new member at the pending
// epoch.
func (rc *Reconfigurator) migrateKey(ctx context.Context, old, next *Config, key string) error {
	var ver version
	var shards [][]byte
	err := rc.awaitDonors(ctx, fmt.Sprintf("%q", key), func() error {
		donations, err := gather(ctx, old.Conns, old.Codec, key, nil)
		if err != nil {
			return err
		}
		ver, shards, _, err = regenerate(old.Codec, donations)
		return err
	})
	if err != nil {
		return err
	}
	if !ver.tag.IsZero() {
		value, err := old.Codec.DecodeValue(shards, ver.vlen)
		if err != nil {
			return fmt.Errorf("reconfig migrate %q: decoding under old geometry: %w", key, err)
		}
		if shards, err = next.Codec.EncodeValue(value); err != nil {
			return fmt.Errorf("reconfig migrate %q: re-encoding under new geometry: %w", key, err)
		}
	}
	return rc.eachUntil(ctx, "install "+key, next.Conns, func(c Conn) error {
		var elem []byte
		if shards != nil {
			elem = shards[c.Index()]
		}
		// Tag-monotone and idempotent: a re-run's install bounces off
		// the tag floor, and accepted=false (the member already holds
		// something at least as new) is success, not conflict.
		_, err := c.RepairPut(ctx, key, ver.tag, elem, ver.vlen)
		return err
	})
}

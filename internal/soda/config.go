package soda

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Online reconfiguration, client side. A Config is one immutable
// cluster geometry: the [n,k] code, the fault budgets, and the conn
// set. Its epoch is the one its conns stamp (TCPMuxConnsAt /
// Loopback.ConnsAt), all of them the same one, so every frame an
// operation sends under this Config carries that epoch and a quorum
// assembled through it can only ever contain responses from servers
// serving that epoch. Mixing two geometries in one quorum is therefore
// impossible by construction; the servers enforce it with epoch NACKs
// and the clients react by refetching the current Config.
//
// A ConfigView is the mutable cell a cluster's clients share: the
// reconfiguration coordinator installs each activated Config into it,
// and every Writer and Reader runs each operation under the Config its
// view holds — on a StaleEpochError it waits for the view to reach the
// epoch the server demanded and retries the whole operation under the
// new geometry. A NACK from a server behind the Config (it wants the
// epoch the attempt already had) is returned, not retried: only the
// server catching up can help, and the caller decides when to try
// again. NewWriter and NewReader build their clients on a view that
// never flips.

// SeedEpoch is the configuration epoch every cluster is born at: the
// construction-time geometry, before any reconfiguration. Passing it
// explicitly (rather than a literal 0) marks a call site that REALLY
// means the seed configuration — the epochframe lint rule flags bare
// zero epochs, which are otherwise a symptom of an unthreaded epoch.
const SeedEpoch uint64 = 0

// epochNone marks the frame classes that live outside epoch
// admission entirely: error frames and the reconfiguration RPCs
// themselves (which must reach sealed and retired servers no matter
// what epoch either side believes in). The wire header still carries
// a zero, but the name records that no configuration epoch is being
// claimed.
const epochNone uint64 = 0

// Config is one immutable configuration of the cluster, and the one way
// a Writer or Reader is configured.
type Config struct {
	Codec *Codec
	Conns []Conn // all stamped with one epoch; one per shard index in [0, N)
	// F is the number of crashed or silent servers an operation rides
	// through: a write's two phases each wait on n-f servers, a read
	// fixes its target tag from the first n-f initial responses.
	// Negative means the role's default: (n-k)/2 for a writer, the
	// paper's bound n >= k + 2f; min((n-k)/2, k-1) for a reader.
	// Atomicity needs a reader's f < k: a read may adopt a tag held by
	// only the k servers whose elements it decoded (a writer's
	// half-applied put), and a later read's n-f initial quorum is
	// guaranteed to meet one of them only when k > f.
	F int
	// E turns on the SODA_err read path when positive: a read waits for
	// k+2e coded elements of a matching tag, verifies them, and runs the
	// rs error decoder to locate up to e silently corrupt servers,
	// reported in ReadResult.Corrupt. Needs 2e <= n-k.
	E int
	// Membership is the per-configuration health view writers, readers,
	// and the Repairer share; nil runs without quarantine. Quarantined
	// servers are charged to f rather than contacted: a write excludes
	// them from both phases, a read samples the view when it starts. The
	// clients feed the view too: a server that affirmatively fails an
	// exchange, or whose element a SODA_err read locates as corrupt, is
	// marked Suspect for the repair loop, which readmits it once healed.
	Membership *Membership
}

// N returns the configuration's cluster size.
func (c *Config) N() int { return c.Codec.N() }

// K returns the configuration's data-shard count.
func (c *Config) K() int { return c.Codec.K() }

// Epoch returns the configuration epoch the Config's conns stamp.
func (c *Config) Epoch() uint64 { return c.Conns[0].Epoch() }

// validate checks a Config's internal consistency.
func (c *Config) validate() error {
	if c == nil || c.Codec == nil {
		return fmt.Errorf("%w: config without a codec", ErrConfig)
	}
	if err := validateConns(c.Conns, c.Codec.N()); err != nil {
		return err
	}
	for _, cn := range c.Conns {
		if cn.Epoch() != c.Epoch() {
			return fmt.Errorf("%w: conns stamp epochs %d and %d", ErrConfig, c.Epoch(), cn.Epoch())
		}
	}
	if c.Membership != nil && c.Membership.N() != c.Codec.N() {
		return fmt.Errorf("%w: membership for n=%d, config has n=%d", ErrConfig, c.Membership.N(), c.Codec.N())
	}
	return nil
}

// writerFaults checks the Config for a writer and returns the writer's f.
func (c *Config) writerFaults() (int, error) {
	n, k, f := c.N(), c.K(), c.F
	if f < 0 {
		f = (n - k) / 2
	} else if f >= n {
		return 0, fmt.Errorf("%w: writer faults f=%d with n=%d", ErrConfig, f, n)
	}
	if n-f < k {
		return 0, fmt.Errorf("%w: quorum n-f=%d < k=%d", ErrConfig, n-f, k)
	}
	return f, nil
}

// readerFaults checks the Config for a reader and returns the reader's f.
func (c *Config) readerFaults() (int, error) {
	n, k, f, e := c.N(), c.K(), c.F, c.E
	switch {
	case f < 0:
		f = min((n-k)/2, k-1)
	case f >= n:
		return 0, fmt.Errorf("%w: reader faults f=%d with n=%d", ErrConfig, f, n)
	case f >= k:
		return 0, fmt.Errorf("%w: reader faults f=%d >= k=%d (a returned tag may live on only k servers; the next read's n-f quorum must still see one of them)",
			ErrConfig, f, k)
	}
	if e < 0 {
		return 0, fmt.Errorf("%w: read errors e=%d", ErrConfig, e)
	}
	if e > 0 && c.Codec.MaxReadErrors() < e {
		return 0, fmt.Errorf("%w: e=%d corrupt servers exceeds the codec's radius %d (need 2e <= n-k)",
			ErrConfig, e, c.Codec.MaxReadErrors())
	}
	if n-f < k+2*e {
		return 0, fmt.Errorf("%w: read quorum n-f=%d < k+2e=%d", ErrConfig, n-f, k+2*e)
	}
	return f, nil
}

// ConfigView is the shared, monotonically-advancing view of the
// cluster's current configuration.
type ConfigView struct {
	cur     atomic.Pointer[Config] // read once by every operation
	mu      sync.Mutex             // serializes Install; guards changed
	changed chan struct{}          // closed and replaced on every install; nil on a view that never flips
}

// NewConfigView starts a view at the given initial configuration.
func NewConfigView(initial *Config) (*ConfigView, error) {
	v, err := fixedView(initial)
	if err != nil {
		return nil, err
	}
	v.changed = make(chan struct{})
	return v, nil
}

// fixedView starts a view at cfg that never flips: the view of a client
// NewWriter or NewReader builds.
func fixedView(cfg *Config) (*ConfigView, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	v := &ConfigView{}
	v.cur.Store(cfg)
	return v, nil
}

// Current returns the view's configuration. The returned Config is
// immutable; hold it for at most one operation and refetch.
func (v *ConfigView) Current() *Config { return v.cur.Load() }

// Changed returns a channel closed at the next install after the
// call. Wait on it, then re-read Current.
func (v *ConfigView) Changed() <-chan struct{} {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.changed
}

// Install publishes a new configuration. The epoch must advance:
// reconfiguration is monotone, and a lagging coordinator must never
// roll the shared view backwards.
func (v *ConfigView) Install(c *Config) error {
	if err := c.validate(); err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if cur := v.cur.Load(); c.Epoch() <= cur.Epoch() {
		return fmt.Errorf("%w: installing epoch %d over %d", ErrConfig, c.Epoch(), cur.Epoch())
	}
	v.cur.Store(c)
	close(v.changed)
	v.changed = make(chan struct{})
	return nil
}

// Await blocks until the view holds a configuration at or past epoch,
// returning it. This is how a client that was told "want epoch E" by
// a server waits out the coordinator's install. A view that never flips
// cannot be waited for: Await returns its one configuration at once.
func (v *ConfigView) Await(ctx context.Context, epoch uint64) (*Config, error) {
	for {
		v.mu.Lock()
		cur, ch := v.cur.Load(), v.changed
		v.mu.Unlock()
		if cur.Epoch() >= epoch || ch == nil {
			return cur, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// retryStale reacts to an attempt under cfg that failed with err: it
// waits out the flip a StaleEpochError names, or — for a bare
// unavailability that may be a flip observed only as connection noise —
// lets the caller retry at once if the view has already advanced. It
// returns nil for a retry, else the error to return: err itself when err
// is not reconfiguration-shaped, the view cannot reach the epoch the
// server wants, or the view reaches it with cfg itself — the server is
// behind the Config, and retrying at once would only draw the NACK again.
func retryStale(ctx context.Context, view *ConfigView, cfg *Config, err error) error {
	var se *StaleEpochError
	if errors.As(err, &se) {
		cur, werr := view.Await(ctx, se.Want)
		if werr != nil {
			return fmt.Errorf("awaiting epoch %d: %w (after %w)", se.Want, werr, err)
		}
		if cur != cfg && cur.Epoch() >= se.Want {
			return nil
		}
		return err
	}
	if errors.Is(err, ErrUnavailable) && view.Current().Epoch() > cfg.Epoch() {
		return nil
	}
	return err
}

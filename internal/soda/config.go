package soda

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Online reconfiguration, client side. A Config is one immutable
// cluster geometry: an epoch number, the [n,k] code, the fault
// budgets, and the conn set — stamped with the epoch at construction
// (WithConnEpoch / Loopback.ConnsAt), so every frame an operation
// sends under this Config carries its epoch and a quorum assembled
// through it can only ever contain responses from servers serving
// that epoch. Mixing two geometries in one quorum is therefore
// impossible by construction; the servers enforce it with epoch NACKs
// and the clients react by refetching the current Config.
//
// A ConfigView is the mutable cell a cluster's clients share: the
// reconfiguration coordinator installs each activated Config into it,
// and EpochWriter/EpochReader wrap the epoch-less Writer/Reader API
// around it — on a StaleEpochError they wait for the view to reach
// the epoch the server demanded and retry the whole operation under
// the new geometry.

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

// Config is one immutable configuration of the cluster.
type Config struct {
	Epoch uint64
	Codec *Codec
	Conns []Conn // stamped with Epoch; one per shard index in [0, N)
	F     int    // crash fault budget; negative means the codec default
	E     int    // silent-corruption budget for SODA_err reads
	// Membership is the per-configuration health view writers, readers,
	// and the Repairer share; nil runs without quarantine.
	Membership *Membership
}

// N returns the configuration's cluster size.
func (c *Config) N() int { return c.Codec.N() }

// K returns the configuration's data-shard count.
func (c *Config) K() int { return c.Codec.K() }

// validate checks a Config's internal consistency.
func (c *Config) validate() error {
	if c == nil || c.Codec == nil {
		return fmt.Errorf("%w: config without a codec", ErrConfig)
	}
	if err := validateConns(c.Conns, c.Codec.N()); err != nil {
		return err
	}
	if c.Membership != nil && c.Membership.N() != c.Codec.N() {
		return fmt.Errorf("%w: membership for n=%d, config has n=%d", ErrConfig, c.Membership.N(), c.Codec.N())
	}
	return nil
}

// writerOpts assembles the Writer options a Config implies.
func (c *Config) writerOpts() []WriterOption {
	var opts []WriterOption
	if c.F >= 0 {
		opts = append(opts, WithWriterFaults(c.F))
	}
	return append(opts, WithWriterMembership(c.Membership))
}

// readerOpts assembles the Reader options a Config implies.
func (c *Config) readerOpts() []ReaderOption {
	var opts []ReaderOption
	if c.F >= 0 {
		opts = append(opts, WithReaderFaults(c.F))
	}
	if c.E > 0 {
		opts = append(opts, WithReadErrors(c.E))
	}
	return append(opts, WithReaderMembership(c.Membership))
}

// ConfigView is the shared, monotonically-advancing view of the
// cluster's current configuration.
type ConfigView struct {
	mu      sync.Mutex
	cur     *Config
	changed chan struct{} // closed and replaced on every install
}

// NewConfigView starts a view at the given initial configuration.
func NewConfigView(initial *Config) (*ConfigView, error) {
	if err := initial.validate(); err != nil {
		return nil, err
	}
	return &ConfigView{cur: initial, changed: make(chan struct{})}, nil
}

// Current returns the view's configuration. The returned Config is
// immutable; hold it for at most one operation and refetch.
func (v *ConfigView) Current() *Config {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.cur
}

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
	if c.Epoch <= v.cur.Epoch {
		return fmt.Errorf("%w: installing epoch %d over %d", ErrConfig, c.Epoch, v.cur.Epoch)
	}
	v.cur = c
	close(v.changed)
	v.changed = make(chan struct{})
	return nil
}

// Await blocks until the view holds a configuration at or past epoch,
// returning it. This is how a client that was told "want epoch E" by
// a server waits out the coordinator's install.
func (v *ConfigView) Await(ctx context.Context, epoch uint64) (*Config, error) {
	for {
		v.mu.Lock()
		cur, ch := v.cur, v.changed
		v.mu.Unlock()
		if cur.Epoch >= epoch {
			return cur, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// EpochWriter is a Writer that follows the ConfigView across epoch
// flips: each Write runs under the view's current configuration, and
// a StaleEpochError (a server NACKing the epoch) waits for the view
// to advance and retries the whole two-phase write under the new
// geometry. Retrying whole operations is safe for the same reason
// writer crashes are: an interrupted write is a half-applied put the
// protocol already tolerates, and the retry mints a fresh, higher tag.
type EpochWriter struct {
	id        string
	view      *ConfigView
	onAbandon func(Tag, error)

	mu    sync.Mutex
	epoch uint64
	w     *Writer
}

// EpochWriterOption configures an EpochWriter.
type EpochWriterOption func(*EpochWriter)

// WithAbandonedTags installs a hook invoked whenever a retried Write
// abandons a minted tag: the failed attempt may have installed
// elements under that tag on fewer than a quorum of servers, and the
// retry will mint a fresh one. Migration can surface such a tag to
// readers (it is a half-applied put, legal to linearize), so history
// checkers need the abandonment recorded.
func WithAbandonedTags(fn func(Tag, error)) EpochWriterOption {
	return func(ew *EpochWriter) { ew.onAbandon = fn }
}

// NewEpochWriter builds a view-following writer with the given unique
// writer id.
func NewEpochWriter(id string, view *ConfigView, opts ...EpochWriterOption) (*EpochWriter, error) {
	ew := &EpochWriter{id: id, view: view}
	for _, opt := range opts {
		opt(ew)
	}
	if _, err := ew.writerFor(view.Current()); err != nil {
		return nil, err
	}
	return ew, nil
}

// writerFor returns the cached inner Writer for cfg, rebuilding it
// when the epoch moved.
func (ew *EpochWriter) writerFor(cfg *Config) (*Writer, error) {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	if ew.w != nil && ew.epoch == cfg.Epoch {
		return ew.w, nil
	}
	w, err := NewWriter(ew.id, cfg.Codec, cfg.Conns, cfg.writerOpts()...)
	if err != nil {
		return nil, err
	}
	ew.w, ew.epoch = w, cfg.Epoch
	return w, nil
}

// retryStale reacts to one failed attempt under cfg: wait out the flip
// a StaleEpochError names, or — for a bare unavailability that may be
// a flip observed only as connection noise — retry immediately if the
// view has already advanced. It returns false when the error is not
// reconfiguration-shaped and the caller should surface it.
func retryStale(ctx context.Context, view *ConfigView, cfg *Config, err error) (bool, error) {
	var se *StaleEpochError
	if errors.As(err, &se) {
		if _, werr := view.Await(ctx, se.Want); werr != nil {
			return false, fmt.Errorf("awaiting epoch %d: %w (after %w)", se.Want, werr, err)
		}
		return true, nil
	}
	if errors.Is(err, ErrUnavailable) && view.Current().Epoch > cfg.Epoch {
		return true, nil
	}
	return false, nil
}

// Write performs one atomic write under the current configuration,
// following the view across any epoch flips it collides with.
func (ew *EpochWriter) Write(ctx context.Context, key string, value []byte) (Tag, error) {
	for {
		cfg := ew.view.Current()
		w, err := ew.writerFor(cfg)
		if err != nil {
			return Tag{}, err
		}
		t, err := w.Write(ctx, key, value)
		if err == nil {
			return t, nil
		}
		retry, rerr := retryStale(ctx, ew.view, cfg, err)
		if rerr != nil {
			return Tag{}, rerr
		}
		if !retry {
			return Tag{}, err
		}
		if !t.IsZero() && ew.onAbandon != nil {
			// The retry will mint a fresh tag; t is now a half-applied
			// put some servers may hold (and migration may surface).
			ew.onAbandon(t, err)
		}
	}
}

// EpochReader is the Reader counterpart of EpochWriter: each Read runs
// under the view's current configuration and epoch NACKs trigger a
// refetch-and-retry. A fresh Read under the new epoch re-registers at
// every server (the registration handoff — servers dropped the old
// registrations at the flip) and fixes a new target tag; atomicity
// carries over because migration preserved every completed write.
type EpochReader struct {
	id   string
	view *ConfigView

	mu    sync.Mutex
	epoch uint64
	r     *Reader
}

// NewEpochReader builds a view-following reader with the given id
// prefix.
func NewEpochReader(id string, view *ConfigView) (*EpochReader, error) {
	er := &EpochReader{id: id, view: view}
	if _, err := er.readerFor(view.Current()); err != nil {
		return nil, err
	}
	return er, nil
}

func (er *EpochReader) readerFor(cfg *Config) (*Reader, error) {
	er.mu.Lock()
	defer er.mu.Unlock()
	if er.r != nil && er.epoch == cfg.Epoch {
		return er.r, nil
	}
	r, err := NewReader(er.id, cfg.Codec, cfg.Conns, cfg.readerOpts()...)
	if err != nil {
		return nil, err
	}
	er.r, er.epoch = r, cfg.Epoch
	return r, nil
}

// Read performs one atomic read under the current configuration,
// following the view across any epoch flips it collides with.
func (er *EpochReader) Read(ctx context.Context, key string) (ReadResult, error) {
	for {
		cfg := er.view.Current()
		r, err := er.readerFor(cfg)
		if err != nil {
			return ReadResult{}, err
		}
		res, err := r.Read(ctx, key)
		if err == nil {
			return res, nil
		}
		retry, rerr := retryStale(ctx, er.view, cfg, err)
		if rerr != nil {
			return ReadResult{}, rerr
		}
		if !retry {
			return ReadResult{}, err
		}
	}
}

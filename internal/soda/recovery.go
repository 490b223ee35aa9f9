package soda

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// Crash recovery: a durable server comes back as
//
//	snapshot load → WAL replay → tag floor re-established
//
// readSnapshot installs the checkpointed namespace, then every WAL
// record past the snapshot's covered lsn is re-applied under the live
// path's accept rule (register.accepts; put: tag > current, repair-put:
// tag >= current), so the recovered state cannot hold a tag below
// anything it durably acknowledged — the invariant RepairPut
// enforces online holds across restarts too. A torn or corrupt record
// ends the replayable prefix: it is truncated off the segment (later
// segments, which cannot legitimately exist past a tear, are removed)
// and never replayed, leaving a prefix-consistent state.
//
// Recovery runs entirely inside NewDurableServer, before the *Server
// escapes: no transport can register a reader or land a RepairPut on a
// half-replayed namespace, which is what makes "recover, then rejoin
// via the ordinary MarkLive path" safe against repair racing recovery.

// durConfig is the assembled durability configuration.
type durConfig struct {
	snapThreshold int64
	failAfter     int64 // the tests' disk fault; see wal.failAfter
}

// DurableOption configures a durable server.
type DurableOption func(*durConfig)

// WithFsync does nothing: FsyncAlways is the only discipline. It stays
// until the benchmark harness stops passing it; then it and FsyncMode go
// (ROADMAP 3 (b)).
func WithFsync(FsyncMode) DurableOption {
	return func(*durConfig) {}
}

// WithSnapshotThreshold sets the active-segment size that triggers a
// background snapshot + log truncation (default 4 MiB).
func WithSnapshotThreshold(bytes int64) DurableOption {
	return func(c *durConfig) { c.snapThreshold = bytes }
}

// durability is a Server's persistence engine: the WAL it appends to,
// the snapshot policy, and the background goroutine running threshold
// snapshots.
type durability struct {
	srv *Server
	wal *wal
	cfg durConfig

	snapMu    sync.Mutex // serializes snapshots
	snapC     chan struct{}
	stop      chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// NewDurableServer opens (or creates) the durable state machine for
// codeword shard idx rooted at dir, recovering whatever a previous
// incarnation persisted there. The returned server is fully recovered
// — requests never observe a half-replayed namespace.
func NewDurableServer(idx int, dir string, opts ...DurableOption) (*Server, error) {
	cfg := durConfig{snapThreshold: 4 << 20}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.snapThreshold <= 0 {
		cfg.snapThreshold = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := NewServer(idx)
	d := &durability{
		srv:   s,
		wal:   &wal{dir: dir, failAfter: cfg.failAfter, metrics: &s.metrics},
		cfg:   cfg,
		snapC: make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
	if err := d.recover(); err != nil {
		return nil, fmt.Errorf("soda: recovering server %d from %s: %w", idx, dir, err)
	}
	s.dur = d
	s.metrics.unkeyed().Recoveries.Add(1)
	d.wg.Add(1)
	go d.background()
	return s, nil
}

// recover loads the snapshot, replays the log over it, and leaves the
// wal open on the tail segment.
func (d *durability) recover() error {
	os.Remove(filepath.Join(d.wal.dir, snapshotTmp)) // a crashed half-written snapshot is garbage
	covered, est, entries, err := readSnapshot(d.wal.dir)
	if err != nil {
		return err
	}
	if est != (epochState{}) {
		e := est
		d.srv.installEpochState(&e)
	}
	for _, e := range entries {
		d.srv.replayRecord(walRecord{op: walOpPut, key: e.key, tag: e.tag, elem: e.elem, vlen: e.vlen})
	}
	segs, err := walSegments(d.wal.dir)
	if err != nil {
		return err
	}
	maxLSN := covered
	tailSeq := uint64(1)
	if len(segs) > 0 {
		tailSeq = segs[len(segs)-1].seq
	}
	for si, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		off, torn := 0, false
		for off < len(data) {
			rec, n, perr := parseWALRecord(data[off:])
			if perr != nil {
				// The replayable prefix ends here. Truncate the tear off
				// this segment and drop any later ones — records past a
				// tear are not a prefix of history and must never apply.
				if err := os.Truncate(seg.path, int64(off)); err != nil {
					return err
				}
				for _, later := range segs[si+1:] {
					if err := os.Remove(later.path); err != nil {
						return err
					}
				}
				d.srv.metrics.unkeyed().WALTornDrops.Add(1)
				tailSeq, torn = seg.seq, true
				break
			}
			if rec.lsn > maxLSN {
				maxLSN = rec.lsn
			}
			if rec.lsn > covered {
				d.srv.replayRecord(rec)
			}
			off += n
		}
		if torn {
			break
		}
	}
	if err := d.wal.openSegment(tailSeq); err != nil {
		return err
	}
	d.wal.lsn = maxLSN
	return nil
}

// background serves snapshot nudges until close.
func (d *durability) background() {
	defer d.wg.Done()
	for {
		select {
		case <-d.stop:
			return
		case <-d.snapC:
			d.snapshot()
		}
	}
}

// logMutation appends one accepted mutation, nudging the snapshotter
// when the active segment has grown past the threshold. Called with
// the key's register lock held, so the log's per-key record order is
// exactly the apply order. A failed WAL (disk error) counts a failure
// and the server keeps serving from memory — the operator signal is
// the metric, not a wedged cluster. A closed one (power cut, Close) is
// not a failure but the end of this server: ErrServerDown, and the
// caller must not apply what the disk will not remember. A caller that
// will not wait gets errNotNow from a busy log, with nothing logged.
func (d *durability) logMutation(op byte, key string, t Tag, elem []byte, vlen int, wait bool) error {
	rec := walRecord{op: op, key: key, tag: t, elem: elem, vlen: vlen}
	var size int64
	var err error
	if wait {
		size, err = d.wal.append(rec)
	} else {
		size, err = d.wal.tryAppend(rec)
	}
	switch {
	case err == nil:
	case err == errNotNow:
		return err
	case errors.Is(err, errWALClosed):
		return ErrServerDown
	default:
		d.srv.metrics.of(key).WALFailures.Add(1)
		return nil
	}
	d.srv.metrics.of(key).WALAppends.Add(1)
	if size >= d.cfg.snapThreshold {
		select {
		case d.snapC <- struct{}{}:
		default:
		}
	}
	return nil
}

// logEpoch appends and syncs one configuration-epoch transition: a node
// must come back from a power cut knowing which geometry it belongs to.
// Called under the server's epochMu, before the state applies. Failed
// and closed WALs differ as in logMutation: false means the log is
// closed and the transition must not apply.
func (d *durability) logEpoch(est *epochState) bool {
	_, err := d.wal.append(walRecord{op: walOpEpoch, est: *est})
	if err != nil {
		if errors.Is(err, errWALClosed) {
			return false
		}
		d.srv.metrics.unkeyed().WALFailures.Add(1)
		return true
	}
	d.srv.metrics.unkeyed().WALAppends.Add(1)
	return true
}

// snapshot checkpoints the namespace and truncates the log: rotate the
// WAL (the finished segments define the covered lsn), write the
// snapshot atomically, then delete the segments it covers. Concurrent
// mutations keep appending to the fresh segment throughout; anything
// the snapshot iteration misses is past the covered lsn and replays on
// top.
func (d *durability) snapshot() error {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	//lint:ignore lockhold snapMu exists to serialize snapshot writers against each other; the rotate fsync under it is the serialized work itself, and no hot path takes snapMu
	covered, err := d.wal.rotate()
	if err != nil {
		return err
	}
	if err := writeSnapshot(d.wal.dir, covered, *d.srv.epochSt.Load(), d.srv.snapEntries()); err != nil {
		return err
	}
	d.srv.metrics.unkeyed().Snapshots.Add(1)
	return d.wal.removeBefore(d.wal.activeSeq())
}

// halt stops the background goroutine (idempotent).
func (d *durability) halt() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.wg.Wait()
}

// close flushes and closes the log.
func (d *durability) close() error {
	d.closeOnce.Do(func() {
		d.halt()
		d.closeErr = d.wal.close()
	})
	return d.closeErr
}

// powerCut kills the durability layer the unclean way: no final sync,
// and unsynced bytes are dropped, as the disk would after a real cut.
func (d *durability) powerCut() {
	d.halt()
	d.wal.powerCut()
}

// Close shuts the durability layer down cleanly (final fsync, files
// closed); memory-only servers no-op. The state machine itself keeps
// answering — Close is about the disk, not the process.
func (s *Server) Close() error {
	if s.dur == nil {
		return nil
	}
	err := s.dur.close()
	if errors.Is(err, errWALClosed) {
		return nil
	}
	return err
}

// replayRecord applies one WAL record, or a snapshot entry as a put, with
// the live path's accept rule (register.accepts), re-establishing the tag
// floor record by record. No relays, no metrics: replay precedes serving.
func (s *Server) replayRecord(rec walRecord) {
	switch rec.op {
	case walOpPut, walOpRepair:
		r := s.lookup(rec.key, true)
		r.mu.Lock()
		if r.accepts(rec.op, rec.tag) {
			r.store(rec.tag, rec.elem, rec.vlen)
		}
		r.mu.Unlock()
	case walOpEpoch:
		est := rec.est
		s.installEpochState(&est)
	}
}

// snapEntries copies the written namespace out for a snapshot. Element
// buffers are cloned under the register lock, so the snapshot never
// aliases live storage.
func (s *Server) snapEntries() []snapEntry {
	var entries []snapEntry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for key, r := range sh.regs {
			r.mu.Lock()
			if r.tag != (Tag{}) {
				entries = append(entries, snapEntry{key: key, tag: r.tag, elem: slices.Clone(r.elem), vlen: r.vlen})
			}
			r.mu.Unlock()
		}
		sh.mu.RUnlock()
	}
	return entries
}

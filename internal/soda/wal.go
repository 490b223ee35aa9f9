package soda

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The write-ahead log. Every mutation a server accepts — a put-data
// that advanced the tag, a repair-put that installed, a wipe — is
// appended as one checksummed record before the in-memory register
// changes, so the durable history is always at least as new as
// anything the server has acknowledged (under FsyncAlways) and replays
// to exactly the state the mutations built.
//
// A record reuses the wire framing discipline (length prefix, then a
// payload built from the same append-encoders and parsed by the same
// bounds-checked cursor), with a CRC32 between them for torn-write
// detection:
//
//	uint32 length | uint32 CRC32-IEEE(payload) | payload
//	payload: uint64 lsn | byte op | key | [tag | uint32 vlen | elem]
//
// The lsn (log sequence number) is per-server monotone; snapshots
// record the lsn they cover so replay can skip records already folded
// in. The log is a directory of numbered segment files (wal-<seq>.log);
// a snapshot rotates to a fresh segment and deletes the ones it covers,
// which is the log-truncation story. Only the active segment can hold a
// torn tail: finished segments are fsynced before rotation regardless
// of the fsync mode.

// FsyncMode is the WAL's durability/latency trade-off for records the
// server has acknowledged.
type FsyncMode int

const (
	// FsyncAlways syncs every record before the mutation is applied:
	// an acked write is on the disk, so a power cut never loses
	// anything the cluster was told about. This is the mode under
	// which a recovered server may rejoin without donor repair.
	FsyncAlways FsyncMode = iota
	// FsyncInterval syncs on a timer: a power cut loses at most the
	// last interval of acked mutations, and the recovered server must
	// be healed by the Repairer before rejoining.
	FsyncInterval
	// FsyncNone never syncs explicitly (the OS flushes when it
	// pleases); cheapest, weakest.
	FsyncNone
)

func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	}
	return "unknown"
}

// WAL record operations. Replay applies each with the same acceptance
// rule as the live path, so a replayed server re-establishes the
// tag-floor invariant instead of trusting record order blindly.
const (
	walOpPut    byte = 1 // put-data: apply iff tag > current
	walOpRepair byte = 2 // repair-put: apply iff tag >= current
	walOpWipe   byte = 3 // wipe: clear the key
	walOpEpoch  byte = 4 // configuration-epoch transition (seal or activate); keyless
)

// walHeaderLen is the fixed record prefix: uint32 length + uint32 CRC.
const walHeaderLen = 8

var (
	// errWALPartial marks an incomplete record at the end of a segment:
	// a torn write, truncated at recovery and never replayed.
	errWALPartial = errors.New("soda: torn wal record")
	// errWALCorrupt marks a record whose checksum or shape is wrong.
	errWALCorrupt = errors.New("soda: corrupt wal record")
	// errWALClosed is returned for appends after Close or a power cut.
	errWALClosed = errors.New("soda: wal closed")
)

// walRecord is one decoded log record. Epoch transitions are keyless:
// est holds the full post-transition state (active epoch + geometry,
// pending epoch + geometry while sealed) so replaying the record alone
// restores the server's configuration view.
type walRecord struct {
	lsn  uint64
	op   byte
	key  string
	tag  Tag
	elem []byte
	vlen int
	est  epochState // walOpEpoch only
}

// appendWALRecord appends rec's framed encoding to b.
func appendWALRecord(b []byte, rec walRecord) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc, patched below
	b = binary.BigEndian.AppendUint64(b, rec.lsn)
	b = append(b, rec.op)
	switch rec.op {
	case walOpEpoch:
		b = binary.BigEndian.AppendUint64(b, rec.est.epoch)
		b = binary.BigEndian.AppendUint64(b, rec.est.pending)
		var sealed byte
		if rec.est.sealed {
			sealed = 1
		}
		b = append(b, sealed)
		b = binary.BigEndian.AppendUint16(b, uint16(rec.est.n))
		b = binary.BigEndian.AppendUint16(b, uint16(rec.est.k))
		b = binary.BigEndian.AppendUint16(b, uint16(rec.est.pn))
		b = binary.BigEndian.AppendUint16(b, uint16(rec.est.pk))
	case walOpWipe:
		b = appendKey(b, rec.key)
	default:
		b = appendKey(b, rec.key)
		b = appendTag(b, rec.tag)
		b = binary.BigEndian.AppendUint32(b, uint32(rec.vlen))
		b = appendBytes(b, rec.elem)
	}
	payload := b[start+walHeaderLen:]
	binary.BigEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return b
}

// parseWALRecord decodes the first record in data, returning the bytes
// consumed. errWALPartial means data ends mid-record (a torn tail);
// errWALCorrupt means the bytes are there but lie (checksum or shape).
// Either way the record must not be replayed.
func parseWALRecord(data []byte) (walRecord, int, error) {
	if len(data) < walHeaderLen {
		return walRecord{}, 0, errWALPartial
	}
	n := binary.BigEndian.Uint32(data)
	if n == 0 || n > maxFrame {
		return walRecord{}, 0, fmt.Errorf("%w: record length %d", errWALCorrupt, n)
	}
	if len(data) < walHeaderLen+int(n) {
		return walRecord{}, 0, errWALPartial
	}
	payload := data[walHeaderLen : walHeaderLen+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[4:]) {
		return walRecord{}, 0, fmt.Errorf("%w: checksum mismatch", errWALCorrupt)
	}
	c := &cursor{b: payload}
	var rec walRecord
	rec.lsn = c.u64()
	rec.op = c.u8()
	switch rec.op {
	case walOpPut, walOpRepair:
		rec.key = c.key()
		rec.tag = c.tag()
		vlen := c.u32()
		rec.elem = c.view() // borrows data; replay copies it into the register
		if vlen > math.MaxInt32 {
			c.failed = true
		}
		rec.vlen = int(vlen)
	case walOpWipe:
		rec.key = c.key()
	case walOpEpoch:
		rec.est.epoch = c.u64()
		rec.est.pending = c.u64()
		rec.est.sealed = c.flag()
		rec.est.n = int(c.u16())
		rec.est.k = int(c.u16())
		rec.est.pn = int(c.u16())
		rec.est.pk = int(c.u16())
	default:
		c.failed = true
	}
	if err := c.err("wal-record"); err != nil {
		return walRecord{}, 0, fmt.Errorf("%w: %v", errWALCorrupt, err)
	}
	return rec, walHeaderLen + int(n), nil
}

const (
	walSegmentPrefix = "wal-"
	walSegmentSuffix = ".log"
)

func walSegmentName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", walSegmentPrefix, seq, walSegmentSuffix)
}

// walSegment names one log segment file on disk.
type walSegment struct {
	seq  uint64
	path string
}

// walSegments lists dir's segments in ascending sequence order,
// ignoring files that merely look similar.
func walSegments(dir string) ([]walSegment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []walSegment
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, walSegmentPrefix) || !strings.HasSuffix(name, walSegmentSuffix) {
			continue
		}
		hexSeq := strings.TrimSuffix(strings.TrimPrefix(name, walSegmentPrefix), walSegmentSuffix)
		seq, err := strconv.ParseUint(hexSeq, 16, 64)
		if err != nil {
			continue
		}
		segs = append(segs, walSegment{seq: seq, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// wal is the append side of the log: one active segment file, an lsn
// counter, and the fsync policy. A write failure latches into err and
// degrades the wal (appends report the error, state keeps serving from
// memory) rather than wedging the server.
//
// Under FsyncAlways, appends group-commit: the record is written under
// mu, mu is released, and the fsync happens under syncMu — one leader
// syncs while followers queue behind it, and a follower whose bytes
// the leader's sync already covered (synced >= its target) skips its
// own fsync entirely. N concurrent appends cost at most two fsyncs
// instead of N.
//
// An appender that must not wait (a loopback writer logging on its own
// goroutine) uses tryAppend: the same write and the same sync, behind
// TryLocks, syncMu first — it may only give up before it has written.
type wal struct {
	mu     sync.Mutex
	dir    string
	mode   FsyncMode
	f      *os.File
	seq    uint64 // active segment sequence
	lsn    uint64 // last assigned log sequence number
	size   int64  // bytes written to the active segment
	synced int64  // active-segment bytes known to be on the disk
	dirty  bool
	buf    []byte
	err    error

	// syncMu serializes FsyncAlways group commits; held while the
	// leader's fsync runs so followers coalesce behind it.
	syncMu sync.Mutex
	syncs  uint64 // leader fsyncs so far; under syncMu
	// syncNanos is how long the last timed leader fsync took — what
	// syncsWait reads, and the WALSyncNanos gauge. now is the clock that
	// times it (time.Now; tests stand in a device of their choosing).
	syncNanos atomic.Int64
	now       func() time.Time

	// failAfter, when positive, injects a disk fault: the append that
	// would push the segment past failAfter bytes fails (and latches)
	// instead of writing — the disk-full / IO-error soak's hook.
	failAfter int64

	metrics *Metrics // optional; counts coalesced group-commit syncs
}

// errDiskFull is the injected append failure for the disk-fault soak.
var errDiskFull = errors.New("soda: wal: no space left on device (injected)")

// openSegment makes segment seq the active file, appending to whatever
// it already holds (recovery reopens the tail segment). Existing bytes
// survived, so they count as synced.
func (w *wal) openSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, walSegmentName(seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	w.f, w.seq = f, seq
	w.size, w.synced, w.dirty = st.Size(), st.Size(), false
	return nil
}

// write assigns the next lsn and writes one framed record to the active
// segment: the body append and tryAppend share. Caller holds mu. It
// returns the segment written and its size after the record — what a
// sync of the record has to cover.
func (w *wal) write(rec walRecord) (seq uint64, size int64, err error) {
	if w.err != nil {
		return w.seq, w.size, w.err
	}
	w.lsn++
	rec.lsn = w.lsn
	w.buf = appendWALRecord(w.buf[:0], rec)
	recLen := int64(len(w.buf))
	if w.failAfter > 0 && w.size+recLen > w.failAfter {
		w.err = errDiskFull
		return w.seq, w.size, w.err
	}
	_, err = w.f.Write(w.buf)
	if cap(w.buf) > maxPooledFrame {
		w.buf = nil // a huge value passed through; don't pin its buffer
	}
	if err != nil {
		w.err = err
		return w.seq, w.size, err
	}
	w.size += recLen
	w.dirty = true
	return w.seq, w.size, nil
}

// append assigns the next lsn and logs one mutation, honoring the
// fsync mode. It returns the active segment's size so the caller can
// decide whether a snapshot is due. forceSync syncs the record
// regardless of mode (epoch transitions are too rare and too important
// to lose to an fsync policy).
func (w *wal) append(rec walRecord, forceSync bool) (int64, error) {
	w.mu.Lock()
	seq, size, err := w.write(rec)
	w.mu.Unlock()
	if err != nil || (w.mode != FsyncAlways && !forceSync) {
		return size, err
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	//lint:ignore lockhold syncMu is the group-commit leader lock (PR 9): whoever holds it fsyncs for everyone queued behind it — blocking on it IS the coalescing
	return size, w.syncTo(seq, size)
}

// tryAppend is append for a caller that will not wait (forceSync never
// applies: it logs mutations only). It takes by TryLock what append
// takes by Lock, and answers errNotNow, with nothing written and no lsn
// spent, when another appender, a group commit, an interval sync or a
// rotation holds either lock. syncMu is tried before the write, where
// append takes it after: a record once written has to be synced before
// its mutation may apply, so the only moment this form can still give up
// is before it writes. Holding syncMu across the write costs concurrent
// appenders nothing they would not pay anyway — they write under mu
// meanwhile, and this leader's fsync covers them.
func (w *wal) tryAppend(rec walRecord) (int64, error) {
	always := w.mode == FsyncAlways
	if always && !w.syncMu.TryLock() {
		return 0, errNotNow
	}
	if !w.mu.TryLock() {
		if always {
			w.syncMu.Unlock()
		}
		return 0, errNotNow
	}
	seq, size, err := w.write(rec)
	w.mu.Unlock()
	if always {
		if err == nil {
			//lint:ignore lockhold the same leader lock, try-acquired: an appender that found it free is the leader, and a busy one made this form give up before it wrote
			err = w.syncTo(seq, size)
		}
		w.syncMu.Unlock()
	}
	return size, err
}

// syncSampleEvery is how many leader fsyncs pass between two timed ones.
// Timing every sync costs three clock reads each: +0.8 us of wal-small's
// write p50 on a tmpfs, where the fsync itself is under a microsecond.
const syncSampleEvery = 64

// syncWaitsForDevice is the sampled fsync duration from which a durable
// put-data stops running on its writer's goroutine (loopConn.putDataNow)
// and goes out on a leg: below it an fsync returns from the page cache
// (under 1 us on a tmpfs) and five in a row cost less than one goroutine
// handoff; above it the fsync waits for a device (150 us on the ext4 this
// was measured on, never under 20) and five of them must overlap, as they
// do from five legs. The gap is two orders of magnitude wide; a threshold
// of 2 us on every sync flapped on scheduler noise.
const syncWaitsForDevice = 20 * time.Microsecond

// syncsWait reports whether a mutation logged here waits for a device:
// the log syncs every record and its last timed fsync was slow. A fresh
// log has no sample and says no; its first leader fsync is timed.
func (w *wal) syncsWait() bool {
	return w.mode == FsyncAlways && w.syncNanos.Load() >= int64(syncWaitsForDevice)
}

// syncTo ensures the first target bytes of segment seq are durable.
// Caller holds syncMu, which is what group-commits concurrent appenders:
// whoever holds it syncs for everyone queued behind it, and a caller
// whose target was covered while it waited returns without touching the
// disk. A rotated segment is already durable (rotation syncs before
// closing), so a seq mismatch is success.
func (w *wal) syncTo(seq uint64, target int64) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.seq != seq || w.synced >= target {
		w.mu.Unlock()
		if w.metrics != nil {
			w.metrics.walGroupSyncs.Add(1)
		}
		return nil
	}
	f, size := w.f, w.size
	w.mu.Unlock()
	// The fsync runs outside mu so appenders keep writing while it
	// spins; everything written before this call is covered, and the
	// conservative watermark (size captured above) only under-reports.
	// One in syncSampleEvery is timed, the first included, on the legs'
	// path as on the inline one: a log whose device went slow sends its
	// puts to the legs, and it is their syncs that notice it recover.
	timed := w.syncs%syncSampleEvery == 0
	w.syncs++
	var start time.Time
	if timed {
		start = w.now()
	}
	err := f.Sync()
	if timed {
		w.syncNanos.Store(int64(w.now().Sub(start)))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		if w.seq != seq {
			// The segment rotated away mid-sync (rotation synced and
			// closed it); our bytes are durable and the error is the
			// closed file, not the disk.
			return nil
		}
		if w.err == nil {
			w.err = err
		}
		return w.err
	}
	if w.seq == seq && size > w.synced {
		w.synced = size
		w.dirty = w.synced < w.size
	}
	return nil
}

func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *wal) syncLocked() error {
	if w.err != nil {
		return w.err
	}
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.err = err
		return err
	}
	w.synced = w.size
	w.dirty = false
	return nil
}

// rotate finishes the active segment (fsynced regardless of mode — a
// finished segment is always durable) and opens the next one. It
// returns the last lsn the finished segments hold, which is what a
// snapshot taken after the rotation covers.
func (w *wal) rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.dirty {
		//lint:ignore lockhold rotation must sync the outgoing segment before the swap, atomically with respect to appenders; it is rare (snapshot-driven) and mu is the only lock that can order it
		if err := w.f.Sync(); err != nil {
			w.err = err
			return 0, err
		}
		w.synced, w.dirty = w.size, false
	}
	covered := w.lsn
	if w.size == 0 {
		return covered, nil // nothing in the active segment; keep it
	}
	if err := w.f.Close(); err != nil {
		w.err = err
		return 0, err
	}
	if err := w.openSegment(w.seq + 1); err != nil {
		w.err = err
		return 0, err
	}
	return covered, nil
}

// removeBefore deletes every segment older than seq — the truncation
// step after a snapshot made them redundant.
func (w *wal) removeBefore(seq uint64) error {
	segs, err := walSegments(w.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s.seq < seq {
			if err := os.Remove(s.path); err != nil {
				return err
			}
		}
	}
	return nil
}

// activeSeq returns the active segment's sequence number.
func (w *wal) activeSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// close flushes and closes the log; later appends fail.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.syncLocked()
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	if w.err == nil || w.err == errWALClosed {
		w.err = errWALClosed
		return err
	}
	return w.err
}

// powerCut simulates losing power mid-flight: bytes that never reached
// the disk are gone. Anything past the synced watermark is truncated
// away, which is exactly what the machine would find after a real cut
// (finished segments and snapshots are always synced; only the active
// tail is at risk).
func (w *wal) powerCut() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		w.f.Truncate(w.synced)
		w.f.Close()
		w.f = nil
	}
	if w.err == nil {
		w.err = errWALClosed
	}
}

// tearWALTail chops n bytes off the end of the last nonempty segment —
// the torn-final-record injection: a record the server believed written
// but the disk only half-kept. Recovery must detect it by checksum,
// truncate it, and never replay it.
func tearWALTail(dir string, n int64) error {
	segs, err := walSegments(dir)
	if err != nil {
		return err
	}
	for i := len(segs) - 1; i >= 0; i-- {
		st, err := os.Stat(segs[i].path)
		if err != nil {
			return err
		}
		if st.Size() == 0 {
			continue
		}
		return os.Truncate(segs[i].path, max(st.Size()-n, 0))
	}
	return fmt.Errorf("soda: no wal bytes to tear in %s", dir)
}

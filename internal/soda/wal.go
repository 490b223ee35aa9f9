package soda

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
// that advanced the tag, a repair-put that installed, an epoch
// transition — is appended as one checksummed record before the
// in-memory state changes, and synced before that mutation applies, so
// the durable history is always at least as new as anything the server has
// acknowledged and replays to exactly the state the mutations built.
//
// A record reuses the wire framing discipline (length prefix, then a
// payload built from the same append-encoders and parsed by the same
// bounds-checked cursor), with a CRC32 between them for torn-write
// detection:
//
//	uint32 length | uint32 CRC32-IEEE(payload) | payload
//	payload: uint64 lsn | byte op | body
//	body: put, repair  key | tag | uint32 vlen | elem   (appendPut)
//	      epoch        epoch state                      (appendEpochState)
//
// The lsn (log sequence number) is per-server monotone; snapshots
// record the lsn they cover so replay can skip records already folded
// in. The log is a directory of numbered segment files (wal-<seq>.log);
// a snapshot rotates to a fresh segment and deletes the ones it covers,
// which is the log-truncation story. Only the active segment can hold a
// torn tail: finished segments are fsynced before rotation. A segment's
// directory entry is synced when the segment is created, before it
// takes a record, so a power cut cannot take the file away with the
// records acked in it.

// FsyncMode names a WAL fsync discipline. There is one, FsyncAlways;
// the type remains only for WithFsync's callers.
type FsyncMode int

// FsyncAlways syncs every record before the mutation is applied: an
// acked write is on the disk, so a power cut never loses anything the
// cluster was told about, and a recovered server may rejoin without
// donor repair.
const FsyncAlways FsyncMode = 0

// WAL record operations. Replay applies each with the same acceptance
// rule as the live path, so a replayed server re-establishes the
// tag-floor invariant instead of trusting record order blindly. No
// record lowers a tag; op 3 is unassigned and parses as corrupt.
const (
	walOpPut    byte = 1 // put-data: apply iff tag > current
	walOpRepair byte = 2 // repair-put: apply iff tag >= current
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
		b = appendEpochState(b, rec.est)
	default:
		b = appendPut(b, rec.key, rec.tag, rec.vlen, rec.elem)
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
		rec.key, rec.tag, rec.vlen, rec.elem = c.put() // elem borrows data; replay copies it into the register
	case walOpEpoch:
		rec.est = c.epochState()
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

// wal is the append side of the log: one active segment file and an lsn
// counter. A write failure latches into err and degrades the wal
// (appends report the error, state keeps serving from memory) rather
// than wedging the server.
//
// Appends group-commit: the record is written under mu, mu is released,
// and the fsync happens under syncMu — one leader syncs while followers
// queue behind it, and a follower whose bytes the leader's sync already
// covered (synced >= its target) skips its own fsync entirely. N
// concurrent appends cost at most two fsyncs instead of N.
//
// An appender that must not wait (a loopback writer logging on its own
// goroutine) uses tryAppend: the same write and the same sync, behind
// TryLocks, syncMu first — it may only give up before it has written.
type wal struct {
	mu     sync.Mutex
	dir    string
	f      *os.File
	seq    uint64 // active segment sequence
	lsn    uint64 // last assigned log sequence number
	size   int64  // bytes written to the active segment
	synced int64  // active-segment bytes known to be on the disk
	dirty  bool
	// unnamed: the active segment was created and its directory not
	// synced since, so a power cut loses the file (wal.powerCut).
	unnamed bool
	buf     []byte
	err     error

	// syncMu serializes group commits; held while the leader's fsync
	// runs so followers coalesce behind it.
	syncMu sync.Mutex
	syncs  uint64 // leader fsyncs so far; under syncMu
	// syncNanos is how long the last timed leader fsync took — what
	// syncsWait reads, and the WALSyncNanos gauge. clk times it (the
	// wall clock; tests stand in a device of their choosing).
	syncNanos atomic.Int64
	clk       clock

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
// survived, so they count as synced. An empty segment may be one this
// call created, whose name the disk does not hold until its directory
// is synced: a power cut before that would take the file, and every
// record acked in it, away. So its directory is synced before the
// segment takes a record.
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
	if w.unnamed = w.size == 0; w.unnamed {
		syncDir(w.dir)
		w.unnamed = false
	}
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

// append assigns the next lsn, logs one record and syncs it. It returns
// the active segment's size so the caller can decide whether a snapshot
// is due.
func (w *wal) append(rec walRecord) (int64, error) {
	w.mu.Lock()
	seq, size, err := w.write(rec)
	w.mu.Unlock()
	if err != nil {
		return size, err
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	//lint:ignore lockhold syncMu is the group-commit leader lock (PR 9): whoever holds it fsyncs for everyone queued behind it — blocking on it IS the coalescing
	return size, w.syncTo(seq, size)
}

// tryAppend is append for a caller that will not wait. It takes by
// TryLock what append takes by Lock, and answers errNotNow, with nothing
// written and no lsn spent, when another appender, a group commit or a
// rotation holds either lock. syncMu is tried before the write, where
// append takes it after: a record once written has to be synced before
// its mutation may apply, so the only moment this form can still give up
// is before it writes. Holding syncMu across the write costs concurrent
// appenders nothing they would not pay anyway — they write under mu
// meanwhile, and this leader's fsync covers them.
func (w *wal) tryAppend(rec walRecord) (int64, error) {
	if !w.syncMu.TryLock() {
		return 0, errNotNow
	}
	defer w.syncMu.Unlock()
	if !w.mu.TryLock() {
		return 0, errNotNow
	}
	seq, size, err := w.write(rec)
	w.mu.Unlock()
	if err == nil {
		//lint:ignore lockhold the same leader lock, try-acquired: an appender that found it free is the leader, and a busy one made this form give up before it wrote
		err = w.syncTo(seq, size)
	}
	return size, err
}

// syncSampleEvery is how many leader fsyncs pass between two timed ones.
// Timing every sync costs three clock reads each: +0.8 us of wal-small's
// write p50 on a tmpfs, where the fsync itself is under a microsecond.
const syncSampleEvery = 64

// syncWaitsForDevice is the sampled fsync duration from which a durable
// put-data stops running on its writer's goroutine (loopConn.putDataStep)
// and goes out on a leg: below it an fsync returns from the page cache
// (under 1 us on a tmpfs) and five in a row cost less than one goroutine
// handoff; above it the fsync waits for a device (150 us on the ext4 this
// was measured on, never under 20) and five of them must overlap, as they
// do from five legs. The gap is two orders of magnitude wide; a threshold
// of 2 us on every sync flapped on scheduler noise.
const syncWaitsForDevice = 20 * time.Microsecond

// syncsWait reports whether a mutation logged here waits for a device:
// its last timed fsync was slow. A fresh log has no sample and says no;
// its first leader fsync is timed.
func (w *wal) syncsWait() bool {
	return w.syncNanos.Load() >= int64(syncWaitsForDevice)
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
			w.metrics.unkeyed().WALGroupSyncs.Add(1)
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
		start = w.clk.now()
	}
	err := f.Sync()
	if timed {
		w.syncNanos.Store(int64(w.clk.now().Sub(start)))
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
		if w.err != nil {
			// A power cut between the fsync and this lock cut our bytes.
			return w.err
		}
		w.synced = size
		w.dirty = w.synced < w.size
	}
	return nil
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

// rotate finishes the active segment (fsynced — a finished segment is
// always durable) and opens the next one, whose directory entry
// openSegment syncs. It returns the last lsn the finished segments
// hold, which is what a snapshot taken after the rotation covers.
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
// away, and an active segment whose directory entry was never synced
// goes with its name, which is exactly what the machine would find after
// a real cut (finished segments and snapshots are always synced; only
// the active segment is at risk).
func (w *wal) powerCut() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		w.f.Truncate(w.synced)
		w.f.Close()
		w.f = nil
		if w.unnamed {
			os.Remove(filepath.Join(w.dir, walSegmentName(w.seq)))
		}
	}
	if w.err == nil {
		w.err = errWALClosed
	}
}

package soda

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Snapshots checkpoint the whole (key, tag, elem, vlen) namespace so
// the WAL can be truncated. The file format mirrors the wire encoding:
//
//	8-byte magic "SODASNP2"
//	uint64 covered-lsn
//	epoch state (appendEpochState): uint64 epoch | uint64 pending
//	             | byte sealed | uint16 n | uint16 k | uint16 pn | uint16 pk
//	uint32 entry count
//	count × { key | tag | uint32 vlen | elem } (appendPut)
//	uint32 CRC32-IEEE over everything after the magic
//
// The epoch state rides in the snapshot because truncation deletes the
// WAL segments holding the epoch records it covers; without it, a node
// could recover its data but forget which configuration it belongs to.
//
// A snapshot is written to a temp file, fsynced, and renamed into
// place, so recovery only ever sees a complete old snapshot or a
// complete new one. The covered lsn is the rotation point: replay
// skips WAL records at or below it (their effects are in the
// snapshot) and applies everything after.

const (
	snapshotName = "snapshot.soda"
	snapshotTmp  = "snapshot.tmp"
)

var snapshotMagic = []byte("SODASNP2")

// snapEntry is one register's durable state.
type snapEntry struct {
	key  string
	tag  Tag
	elem []byte
	vlen int
}

// writeSnapshot atomically replaces dir's snapshot with one covering
// WAL records up to and including lsn covered.
func writeSnapshot(dir string, covered uint64, est epochState, entries []snapEntry) (err error) {
	tmp := filepath.Join(dir, snapshotTmp)
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if f != nil {
			f.Close()
		}
		if err != nil {
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<16)
	h := crc32.NewIEEE()
	w := io.MultiWriter(bw, h) // the magic stays outside the sum
	if _, err = bw.Write(snapshotMagic); err != nil {
		return err
	}
	var hdr []byte
	hdr = binary.BigEndian.AppendUint64(hdr, covered)
	hdr = appendEpochState(hdr, est)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(entries)))
	if _, err = w.Write(hdr); err != nil {
		return err
	}
	var scratch []byte
	for _, e := range entries {
		scratch = appendPut(scratch[:0], e.key, e.tag, e.vlen, e.elem)
		if _, err = w.Write(scratch); err != nil {
			return err
		}
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], h.Sum32())
	if _, err = bw.Write(sum[:]); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	err = f.Close()
	f = nil
	if err != nil {
		return err
	}
	if err = os.Rename(tmp, filepath.Join(dir, snapshotName)); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// readSnapshot loads dir's snapshot. A missing file is not an error —
// it returns the zero "replay the whole log" case. A present but
// corrupt snapshot is fatal: it was written atomically, so damage
// means the disk lies and silently serving a partial namespace would
// break the tag floor.
func readSnapshot(dir string) (uint64, epochState, []snapEntry, error) {
	var est epochState
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, est, nil, nil
	}
	if err != nil {
		return 0, est, nil, err
	}
	if len(data) < len(snapshotMagic)+16 || !bytes.Equal(data[:len(snapshotMagic)], snapshotMagic) {
		return 0, est, nil, errors.New("soda: snapshot: bad magic or truncated")
	}
	body := data[len(snapshotMagic) : len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[len(data)-4:]) {
		return 0, est, nil, errors.New("soda: snapshot: checksum mismatch")
	}
	c := &cursor{b: body}
	covered := c.u64()
	est = c.epochState()
	count := c.u32()
	entries := make([]snapEntry, 0, min(int(count), 1024))
	for i := uint32(0); i < count && !c.failed; i++ {
		var e snapEntry
		e.key, e.tag, e.vlen, e.elem = c.put() // elem borrows data; replay copies it, as put does with owned unset
		entries = append(entries, e)
	}
	if err := c.err("snapshot"); err != nil {
		return 0, est, nil, fmt.Errorf("soda: snapshot: %w", err)
	}
	return covered, est, entries, nil
}

// syncDir best-effort fsyncs a directory so a rename is durable;
// filesystems that refuse directory syncs lose nothing but the
// guarantee they never offered.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

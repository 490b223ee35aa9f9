package soda

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// The two parsers that read a node's own disk — WAL records and the
// snapshot file — fuzzed from what a durable loopback really writes. Both
// formats end in a CRC-32 a mutator cannot hit by chance, so each target
// takes a flag that has the harness put the right sum on the mutated
// bytes: the fuzzer then reaches the field parsing behind the checksum,
// and without the flag the framing in front of it.

// diskSeeds runs a durable five-server loopback through every kind of
// log record — put-datas, a repair-put, a wipe, an epoch seal — and
// returns what server 0 left on disk: its log, record by record, and the
// snapshot it then took. The values are small: a mutator is slow on a
// large seed, and an element's bytes are nothing to either parser.
func diskSeeds(f testing.TB) (records [][]byte, snapshot []byte) {
	f.Helper()
	ctx := context.Background()
	lb, err := NewDurableLoopback(5, f.TempDir(), WithFsync(FsyncNone))
	if err != nil {
		f.Fatal(err)
	}
	defer lb.CloseServers()
	codec, err := NewCodec(5, 3)
	if err != nil {
		f.Fatal(err)
	}
	w, err := NewWriter("w", codec, lb.Conns(), WithWriterFaults(0))
	if err != nil {
		f.Fatal(err)
	}
	var last Tag
	for key, size := range map[string]int{"seed/a": 1, "seed/b": 40, "seed/c": 300} {
		if last, err = w.Write(ctx, key, bytes.Repeat([]byte{byte(size)}, size)); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := lb.Conns()[0].RepairPut(ctx, "seed/d", last, []byte("repaired"), 20); err != nil {
		f.Fatal(err)
	}
	lb.Server(0).Wipe("seed/a")
	if _, err := lb.Server(0).Reconfig(ReconfigSeal, 1, 5, 3); err != nil {
		f.Fatal(err)
	}
	if err := lb.Server(0).Sync(); err != nil {
		f.Fatal(err)
	}
	segs, err := walSegments(lb.nodeDir(0))
	if err != nil {
		f.Fatal(err)
	}
	ops := map[byte]bool{}
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			f.Fatal(err)
		}
		for len(data) > 0 {
			rec, n, err := parseWALRecord(data)
			if err != nil {
				f.Fatalf("the log a clean run wrote does not parse: %v", err)
			}
			records, data, ops[rec.op] = append(records, data[:n]), data[n:], true
		}
	}
	if len(ops) != 4 {
		f.Fatalf("the seed log holds record kinds %v, want all four", ops)
	}
	if err := lb.Server(0).SnapshotNow(); err != nil {
		f.Fatal(err)
	}
	if snapshot, err = os.ReadFile(filepath.Join(lb.nodeDir(0), snapshotName)); err != nil {
		f.Fatal(err)
	}
	return records, snapshot
}

// Both formats carry the epoch state's sealed flag as one byte, and both
// parsers once read anything but 1 as unsealed where the wire's cursor.flag
// refuses 2..255. These are the flag's offsets, in a log record and in a
// snapshot file.
const (
	walSealedAt  = walHeaderLen + 8 + 1 + 8 + 8
	snapSealedAt = 8 + 8 + 8 + 8
)

// withSealed returns data — a log record's payload or a snapshot file
// less its checksum, which the fuzz targets put back — with the sealed
// flag at offset at set to v.
func withSealed(data []byte, at int, v byte) []byte {
	data = bytes.Clone(data)
	data[at] = v
	return data
}

// epochRecord is the seed log's epoch record.
func epochRecord(t testing.TB, records [][]byte) []byte {
	t.Helper()
	for _, rec := range records {
		if parsed, _, err := parseWALRecord(rec); err == nil && parsed.op == walOpEpoch {
			return rec
		}
	}
	t.Fatal("the seed log holds no epoch record")
	return nil
}

// TestSealedFlagOutOfRange: a sealed byte of 2 or 255 under a correct
// checksum is a corrupt record and a corrupt snapshot, not an unsealed
// epoch; 0 and 1 parse as themselves.
func TestSealedFlagOutOfRange(t *testing.T) {
	records, snapshot := diskSeeds(t)
	payload := epochRecord(t, records)[walHeaderLen:]
	body := snapshot[:len(snapshot)-4]
	dir := t.TempDir()
	for _, tc := range []struct {
		flag      byte
		ok, state bool
	}{{0, true, false}, {1, true, true}, {2, false, false}, {255, false, false}} {
		p := withSealed(payload, walSealedAt-walHeaderLen, tc.flag)
		var hdr [walHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(p)))
		binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(p))
		rec, n, err := parseWALRecord(append(hdr[:], p...))
		if tc.ok && (err != nil || rec.est.sealed != tc.state) {
			t.Errorf("log record with sealed = %d: sealed %v, %v", tc.flag, rec.est.sealed, err)
		}
		if !tc.ok && (!errors.Is(err, errWALCorrupt) || n != 0) {
			t.Errorf("log record with sealed = %d parsed as sealed %v (%d bytes, %v), want errWALCorrupt", tc.flag, rec.est.sealed, n, err)
		}

		b := withSealed(body, snapSealedAt, tc.flag)
		b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[len(snapshotMagic):]))
		if err := os.WriteFile(filepath.Join(dir, snapshotName), b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, est, _, err := readSnapshot(dir)
		if tc.ok && (err != nil || est.sealed != tc.state) {
			t.Errorf("snapshot with sealed = %d: sealed %v, %v", tc.flag, est.sealed, err)
		}
		if !tc.ok && !errors.Is(err, ErrFrame) {
			t.Errorf("snapshot with sealed = %d read as sealed %v (%v), want a frame error", tc.flag, est.sealed, err)
		}
	}
}

// FuzzParseWALRecord: no input panics the record parser; a refusal is
// one of its two typed errors and consumes nothing; and a record that
// parses lies within the input and re-encodes to the bytes consumed.
func FuzzParseWALRecord(f *testing.F) {
	records, _ := diskSeeds(f)
	for _, rec := range records {
		f.Add(rec, false)
		f.Add(rec[walHeaderLen:], true)
	}
	f.Add(withSealed(epochRecord(f, records)[walHeaderLen:], walSealedAt-walHeaderLen, 2), true)
	f.Fuzz(func(t *testing.T, data []byte, frame bool) {
		if frame { // data is a payload: give it the header it would have
			var hdr [walHeaderLen]byte
			binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
			binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(data))
			data = append(hdr[:], data...)
		}
		rec, n, err := parseWALRecord(data)
		if err != nil {
			if n != 0 || !(errors.Is(err, errWALPartial) || errors.Is(err, errWALCorrupt)) {
				t.Fatalf("refused with %v having consumed %d bytes", err, n)
			}
			return
		}
		if n <= walHeaderLen || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if rec.key != "" && validateKey(rec.key) != nil || rec.vlen < 0 {
			t.Fatalf("parsed a %d-byte key, vlen %d", len(rec.key), rec.vlen)
		}
		if got := appendWALRecord(nil, rec); !bytes.Equal(got, data[:n]) {
			t.Fatalf("re-encoded\n %x, parsed from\n %x", got, data[:n])
		}
	})
}

// FuzzReadSnapshot: no file panics the snapshot reader, and a file it
// accepts holds a state that writeSnapshot writes back as the same file.
func FuzzReadSnapshot(f *testing.F) {
	_, snapshot := diskSeeds(f)
	f.Add(snapshot, false)
	f.Add(snapshot[:len(snapshot)-4], true)
	f.Add(withSealed(snapshot[:len(snapshot)-4], snapSealedAt, 2), true)
	f.Fuzz(func(t *testing.T, data []byte, sum bool) {
		if sum && len(data) >= len(snapshotMagic) { // data lacks its checksum: append the right one
			data = binary.BigEndian.AppendUint32(bytes.Clone(data), crc32.ChecksumIEEE(data[len(snapshotMagic):]))
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		covered, est, entries, err := readSnapshot(dir)
		if err != nil {
			return
		}
		for _, e := range entries {
			if validateKey(e.key) != nil || e.vlen < 0 {
				t.Fatalf("read a %d-byte key, vlen %d", len(e.key), e.vlen)
			}
		}
		if err := writeSnapshot(dir, covered, est, entries); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, snapshotName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("wrote back\n %x, read from\n %x", got, data)
		}
	})
}

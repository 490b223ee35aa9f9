package soda

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// newDurableCluster is newCluster with persistent nodes: each server
// logs to its own directory under a fresh TempDir, FsyncAlways.
func newDurableCluster(t *testing.T, n, k int) (*Codec, *Loopback) {
	t.Helper()
	codec, err := NewCodec(n, k)
	if err != nil {
		t.Fatalf("NewCodec(%d,%d): %v", n, k, err)
	}
	lb, err := NewDurableLoopback(n, t.TempDir())
	if err != nil {
		t.Fatalf("NewDurableLoopback: %v", err)
	}
	t.Cleanup(func() { lb.CloseServers() })
	return codec, lb
}

func TestWALRecordRoundTrip(t *testing.T) {
	recs := []walRecord{
		{lsn: 1, op: walOpPut, key: "a", tag: Tag{TS: 1, Writer: "w1"}, elem: []byte{1, 2, 3}, vlen: 9},
		{lsn: 2, op: walOpRepair, key: "some/longer key", tag: Tag{TS: 7, Writer: "repairer"}, elem: []byte{0xFF}, vlen: 1},
		{lsn: 4, op: walOpPut, key: "empty-elem", tag: Tag{TS: 2, Writer: "w"}, elem: nil, vlen: 0},
	}
	var buf []byte
	for _, rec := range recs {
		buf = appendWALRecord(buf, rec)
	}
	off := 0
	for i, want := range recs {
		got, n, err := parseWALRecord(buf[off:])
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.lsn != want.lsn || got.op != want.op || got.key != want.key ||
			got.tag != want.tag || !bytes.Equal(got.elem, want.elem) || got.vlen != want.vlen {
			t.Fatalf("record %d round trip = %+v, want %+v", i, got, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("parsed %d of %d bytes", off, len(buf))
	}

	// Every strict prefix of a record is a torn tail, never a record.
	one := appendWALRecord(nil, recs[0])
	for cut := 0; cut < len(one); cut++ {
		if _, _, err := parseWALRecord(one[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes parsed as a record", cut, len(one))
		}
	}
	// A flipped payload byte is caught by the checksum.
	bad := append([]byte(nil), one...)
	bad[len(bad)-1] ^= 0x01
	if _, _, err := parseWALRecord(bad); err == nil {
		t.Fatal("corrupt record parsed cleanly")
	}
}

// TestDurableServerRoundTrip: mutate, close cleanly, reopen — the
// recovered namespace is byte-identical, including the repair floor.
func TestDurableServerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurableServer(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := Tag{TS: 1, Writer: "w"}, Tag{TS: 2, Writer: "w"}
	s.PutData("k1", t1, []byte{10}, 5)
	s.PutData("k1", t2, []byte{20}, 6)
	s.PutData("k2", t1, []byte{30}, 7)
	s.RepairPut("k3", t2, []byte{40}, 8)
	if got := s.MetricsSnapshot().WALAppends; got != 4 {
		t.Fatalf("WALAppends = %d, want 4", got)
	}
	// An equal-tag reinstall of other bytes is logged as a repair record,
	// which replay must apply through the same accept rule.
	if ok, _ := s.RepairPut("k1", t2, []byte{21}, 6); !ok {
		t.Fatal("equal-tag reinstall rejected")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := NewDurableServer(0, dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if got := s2.MetricsSnapshot().Recoveries; got != 1 {
		t.Fatalf("Recoveries = %d, want 1", got)
	}
	if tag, elem, vlen := s2.Snapshot("k1"); tag != t2 || !bytes.Equal(elem, []byte{21}) || vlen != 6 {
		t.Fatalf("k1 recovered as %v %v %d", tag, elem, vlen)
	}
	if tag, elem, vlen := s2.Snapshot("k2"); tag != t1 || !bytes.Equal(elem, []byte{30}) || vlen != 7 {
		t.Fatalf("k2 recovered as %v %v %d", tag, elem, vlen)
	}
	if tag, elem, vlen := s2.Snapshot("k3"); tag != t2 || !bytes.Equal(elem, []byte{40}) || vlen != 8 {
		t.Fatalf("k3 recovered as %v %v %d", tag, elem, vlen)
	}
	// The re-established tag floor rejects a stale repair immediately.
	if ok, _ := s2.RepairPut("k1", t1, []byte{99}, 5); ok {
		t.Fatal("recovered server accepted a repair below its tag floor")
	}
	// ...and still allows the equal-tag reinstall repair relies on.
	if ok, _ := s2.RepairPut("k1", t2, []byte{20}, 6); !ok {
		t.Fatal("recovered server rejected an equal-tag reinstall")
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	s, err := NewDurableServer(3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.dur == nil {
		t.Fatal("durable server has no durability layer")
	}
	if keys := s.Keys(); len(keys) != 0 {
		t.Fatalf("fresh durable server holds keys %v", keys)
	}
}

// TestPowerCutAtEveryOffset is the recovery property test: take a WAL
// of scripted mutations and cut the power at EVERY byte offset — each
// record boundary and every position inside a record. Recovery must
// land on exactly the state of the longest record prefix the disk
// holds, and a mid-record cut must be detected (checksum/length),
// truncated, and counted, never replayed.
func TestPowerCutAtEveryOffset(t *testing.T) {
	t1, t3, t4, t5 := Tag{TS: 1, Writer: "w"}, Tag{TS: 3, Writer: "w"}, Tag{TS: 4, Writer: "w"}, Tag{TS: 5, Writer: "w"}
	type mut struct {
		op   byte
		key  string
		tag  Tag
		elem []byte
		vlen int
	}
	muts := []mut{
		{walOpPut, "k1", t1, []byte{1, 1}, 2},
		{walOpPut, "k2", t1, []byte{2, 2}, 2},
		{walOpPut, "k1", t3, []byte{3, 3}, 2},
		{walOpRepair, "k2", t3, []byte{4, 4}, 2},
		{walOpPut, "k2", t4, []byte{5, 5}, 2},
		{walOpPut, "k3", t5, []byte{6, 6}, 2},
	}

	// The reference states: states[i] is the namespace after the first
	// i mutations.
	type regState struct {
		tag  Tag
		elem []byte
		vlen int
	}
	states := make([]map[string]regState, len(muts)+1)
	states[0] = map[string]regState{}
	for i, m := range muts {
		next := make(map[string]regState, len(states[i]))
		for k, v := range states[i] {
			next[k] = v
		}
		next[m.key] = regState{tag: m.tag, elem: m.elem, vlen: m.vlen}
		states[i+1] = next
	}

	// Produce the log once, with every record synced.
	dir := t.TempDir()
	s, err := NewDurableServer(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range muts {
		switch m.op {
		case walOpPut:
			s.PutData(m.key, m.tag, append([]byte(nil), m.elem...), m.vlen)
		case walOpRepair:
			s.RepairPut(m.key, m.tag, append([]byte(nil), m.elem...), m.vlen)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walSegmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	// bounds[i] is the offset right after record i.
	bounds := []int{0}
	for off := 0; off < len(data); {
		_, n, err := parseWALRecord(data[off:])
		if err != nil {
			t.Fatalf("full log does not parse at %d: %v", off, err)
		}
		off += n
		bounds = append(bounds, off)
	}
	if len(bounds) != len(muts)+1 {
		t.Fatalf("%d records on disk, want %d", len(bounds)-1, len(muts))
	}

	for cut := 0; cut <= len(data); cut++ {
		complete := 0
		for complete+1 < len(bounds) && bounds[complete+1] <= cut {
			complete++
		}
		atBoundary := bounds[complete] == cut

		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, walSegmentName(1)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := NewDurableServer(0, cdir)
		if err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}
		want := states[complete]
		for key, st := range want {
			tag, elem, vlen := s2.Snapshot(key)
			if tag != st.tag || !bytes.Equal(elem, st.elem) || vlen != st.vlen {
				t.Fatalf("cut %d (%d complete records): %s = %v %v %d, want %v %v %d",
					cut, complete, key, tag, elem, vlen, st.tag, st.elem, st.vlen)
			}
		}
		for _, key := range []string{"k1", "k2", "k3"} {
			if _, held := want[key]; held {
				continue
			}
			if tag, _, _ := s2.Snapshot(key); !tag.IsZero() {
				t.Fatalf("cut %d: %s replayed past the prefix to %v", cut, key, tag)
			}
		}
		torn := s2.MetricsSnapshot().WALTornDrops
		if atBoundary && torn != 0 {
			t.Fatalf("cut %d on a record boundary counted %d torn drops", cut, torn)
		}
		if !atBoundary && torn != 1 {
			t.Fatalf("cut %d mid-record counted %d torn drops, want 1", cut, torn)
		}
		if !atBoundary {
			// The tear is gone from the disk, not just skipped.
			st, err := os.Stat(filepath.Join(cdir, walSegmentName(1)))
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != int64(bounds[complete]) {
				t.Fatalf("cut %d: segment still %d bytes, want truncated to %d", cut, st.Size(), bounds[complete])
			}
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestTornFinalRecordNeverReplayed: a record the server wrote but the
// disk kept only partially must be checksum-detected, truncated, and
// gone for good — later incarnations never resurrect it.
func TestTornFinalRecordNeverReplayed(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurableServer(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2, t3 := Tag{TS: 1, Writer: "w"}, Tag{TS: 2, Writer: "w"}, Tag{TS: 3, Writer: "w"}
	s.PutData(testKey, t1, []byte{1}, 1)
	s.PutData(testKey, t2, []byte{2}, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tearWALTail(dir, 3); err != nil {
		t.Fatal(err)
	}

	s2, err := NewDurableServer(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.MetricsSnapshot().WALTornDrops; got != 1 {
		t.Fatalf("WALTornDrops = %d, want 1", got)
	}
	if tag, _, _ := s2.Snapshot(testKey); tag != t1 {
		t.Fatalf("recovered tag = %v, want the pre-tear %v", tag, t1)
	}
	// The log accepts appends after the truncated tear, and the next
	// incarnation sees them — not the torn record.
	s2.PutData(testKey, t3, []byte{3}, 1)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := NewDurableServer(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if tag, elem, _ := s3.Snapshot(testKey); tag != t3 || !bytes.Equal(elem, []byte{3}) {
		t.Fatalf("third incarnation = %v %v, want %v [3]", tag, elem, t3)
	}
}

// TestSnapshotTruncatesLog: a snapshot checkpoints the namespace,
// rotates the WAL, and deletes the covered segments; recovery layers
// the surviving log over the snapshot.
func TestSnapshotTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurableServer(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2, t3 := Tag{TS: 1, Writer: "w"}, Tag{TS: 2, Writer: "w"}, Tag{TS: 3, Writer: "w"}
	s.PutData("k1", t1, []byte{1}, 1)
	s.PutData("k2", t2, []byte{2}, 1)
	if err := s.dur.snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	segs, err := walSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].seq != 2 {
		t.Fatalf("segments after snapshot = %+v, want only the fresh active one", segs)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("no snapshot on disk: %v", err)
	}
	if got := s.MetricsSnapshot().Snapshots; got != 1 {
		t.Fatalf("Snapshots = %d, want 1", got)
	}
	// Mutations after the snapshot land in the fresh segment and replay
	// on top of it.
	s.PutData("k1", t3, []byte{3}, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewDurableServer(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if tag, elem, _ := s2.Snapshot("k1"); tag != t3 || !bytes.Equal(elem, []byte{3}) {
		t.Fatalf("k1 = %v %v, want the post-snapshot %v", tag, elem, t3)
	}
	if tag, elem, _ := s2.Snapshot("k2"); tag != t2 || !bytes.Equal(elem, []byte{2}) {
		t.Fatalf("k2 = %v %v, want the snapshotted %v", tag, elem, t2)
	}
}

// TestPowerCutKeepsAFreshSegment: a segment's file is created at first
// boot and at every rotation, and its name is on the disk only once its
// directory is synced. A put acked into a fresh segment survives a power
// cut, whether the segment is the first the directory ever held or the
// one a rotation just opened (rotate alone, without the snapshot whose
// rename syncs the directory too).
func TestPowerCutKeepsAFreshSegment(t *testing.T) {
	dir := t.TempDir()
	cutAndRecover := func(s *Server, put Tag) *Server {
		t.Helper()
		s.PutData(testKey, put, []byte{byte(put.TS)}, 1)
		s.dur.powerCut()
		s2, err := NewDurableServer(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		if tag, _, _ := s2.Snapshot(testKey); tag != put {
			t.Fatalf("acked %v into segment %d, recovered %v", put, s.dur.wal.seq, tag)
		}
		return s2
	}
	s, err := NewDurableServer(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	s = cutAndRecover(s, Tag{TS: 1, Writer: "w"})
	if _, err := s.dur.wal.rotate(); err != nil {
		t.Fatal(err)
	}
	s = cutAndRecover(s, Tag{TS: 2, Writer: "w"})
	s.Close()
}

// TestPowerCutRecoverNoDonorRepair is the tentpole's acceptance path:
// a server power-cut mid-traffic comes back from its own WAL — state
// identical to the instant of the cut, with no Repairer running and
// no donor contacted — and rejoins quorums through Membership.Readmit.
func TestPowerCutRecoverNoDonorRepair(t *testing.T) {
	ctx := testCtx(t)
	codec, lb := newDurableCluster(t, 5, 3)
	m := NewMembership(5)
	w := mustWriterOn(t, "w1", &Config{Codec: codec, Conns: lb.Conns(), F: -1, Membership: m})

	v1 := []byte("written before the cut")
	if _, err := w.Write(ctx, testKey, v1); err != nil {
		t.Fatalf("Write: %v", err)
	}

	lb.PowerCut(2)
	m.MarkSuspect(2, ErrServerDown)
	// The crashed state machine is frozen; capture what the node must
	// come back as.
	wantTag, wantElem, wantVLen := lb.Server(2).Snapshot(testKey)
	if wantTag.IsZero() {
		t.Fatal("server 2 never held the write")
	}

	// The cluster keeps going through the hole; server 2 misses this.
	v2 := []byte("written during the outage")
	tag2, err := w.Write(ctx, testKey, v2)
	if err != nil {
		t.Fatalf("Write during outage: %v", err)
	}

	s2, err := lb.Recover(2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	// Identical to the crashed state: recovery came from the disk
	// alone. (No Repairer exists in this test, so a matching tag can
	// only have been replayed, not donated.)
	gotTag, gotElem, gotVLen := s2.Snapshot(testKey)
	if gotTag != wantTag || !bytes.Equal(gotElem, wantElem) || gotVLen != wantVLen {
		t.Fatalf("recovered state = %v %d bytes vlen %d, want the crashed %v %d bytes vlen %d",
			gotTag, len(gotElem), gotVLen, wantTag, len(wantElem), wantVLen)
	}
	if got := s2.MetricsSnapshot().Recoveries; got != 1 {
		t.Fatalf("Recoveries = %d, want 1", got)
	}

	// FsyncAlways held everything acked, so direct readmission is safe.
	if !m.Readmit(2) {
		t.Fatalf("Readmit(2) failed from health %v", m.Health(2))
	}
	if !m.IsLive(2) {
		t.Fatalf("server 2 health = %v after Readmit", m.Health(2))
	}

	// The readmitted server participates: reads see the outage-era
	// write, and the next write lands on all five servers.
	r := mustReaderOn(t, "r1", &Config{Codec: codec, Conns: lb.Conns(), F: -1, Membership: m})
	res, err := r.Read(ctx, testKey)
	if err != nil {
		t.Fatalf("Read after readmit: %v", err)
	}
	if res.Tag != tag2 || !bytes.Equal(res.Value, v2) {
		t.Fatalf("Read = %v %q, want %v %q", res.Tag, res.Value, tag2, v2)
	}
	v3 := []byte("written after the rejoin")
	tag3, err := w.Write(ctx, testKey, v3)
	if err != nil {
		t.Fatalf("Write after rejoin: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if tag, _, _ := lb.Server(2).Snapshot(testKey); tag == tag3 {
			break
		}
		if time.Now().After(deadline) {
			tag, _, _ := lb.Server(2).Snapshot(testKey)
			t.Fatalf("server 2 never received the post-rejoin write: at %v, want %v", tag, tag3)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKillRecoverRejoinSoak is the durable twin of the repair soak:
// repeated power-cut → recover-from-disk → Readmit cycles racing
// concurrent multi-writer multi-reader traffic, with NO Repairer —
// every rejoin is the node's own WAL — and the whole history checked
// for atomicity.
func TestKillRecoverRejoinSoak(t *testing.T) {
	ctx := testCtx(t)
	codec, lb := newDurableCluster(t, 9, 3)
	m := NewMembership(9)

	h := &history{}
	stop := make(chan struct{})
	const writers, readers, minOps = 2, 2, 10
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		w := mustWriterOn(t, fmt.Sprintf("w%d", wi), &Config{Codec: codec, Conns: lb.Conns(), F: -1, Membership: m})
		wg.Add(1)
		go func(wi int, w *Writer) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					if j >= minOps {
						return
					}
				default:
				}
				value := fmt.Sprintf("w%d-%d", wi, j)
				inv := h.begin()
				tag, err := w.Write(ctx, testKey, []byte(value))
				if err != nil {
					t.Errorf("writer %d op %d: %v", wi, j, err)
					return
				}
				h.end(true, inv, tag, value)
			}
		}(wi, w)
	}
	for ri := 0; ri < readers; ri++ {
		r := mustReaderOn(t, fmt.Sprintf("r%d", ri), &Config{Codec: codec, Conns: lb.Conns(), F: 2, E: 2, Membership: m})
		wg.Add(1)
		go func(ri int, r *Reader) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					if j >= minOps {
						return
					}
				default:
				}
				inv := h.begin()
				res, err := r.Read(ctx, testKey)
				if err != nil {
					t.Errorf("reader %d op %d: %v", ri, j, err)
					return
				}
				h.end(false, inv, res.Tag, string(res.Value))
			}
		}(ri, r)
	}

	// Power-cut → recover → readmit cycles, a different server each
	// time. Under FsyncAlways the recovered state must equal the
	// crashed state exactly: nothing lost, nothing donated.
	for cyc, srv := range []int{4, 7, 2} {
		lb.PowerCut(srv)
		m.MarkSuspect(srv, ErrServerDown)
		time.Sleep(25 * time.Millisecond) // traffic rides through the hole
		tagDown, _, _ := lb.Server(srv).Snapshot(testKey)
		rec, err := lb.Recover(srv)
		if err != nil {
			t.Fatalf("cycle %d: Recover(%d): %v", cyc, srv, err)
		}
		tagUp, _, _ := rec.Snapshot(testKey)
		if tagUp != tagDown {
			t.Fatalf("cycle %d: server %d recovered to %v, crashed at %v", cyc, srv, tagUp, tagDown)
		}
		if !m.Readmit(srv) {
			t.Fatalf("cycle %d: Readmit(%d) failed from health %v", cyc, srv, m.Health(srv))
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	h.check(t)

	// Full strength again: every server answers, and a zero-fault-
	// budget error-locating read across all nine finds nothing corrupt.
	for i := 0; i < 9; i++ {
		if _, err := lb.Conns()[i].GetTag(ctx, testKey); err != nil {
			t.Fatalf("server %d does not serve after the soak: %v", i, err)
		}
	}
	r := mustReaderOn(t, "rz", &Config{Codec: codec, Conns: lb.Conns(), F: 0, E: 2})
	res, err := r.Read(ctx, testKey)
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	if len(res.Corrupt) != 0 {
		t.Fatalf("final read names corrupt servers: %v", res.Corrupt)
	}
	if res.Tag.IsZero() {
		t.Fatal("final read returned the initial state after all that traffic")
	}
}

// TestPutPastTheGateIsNotAckedAfterWALCut pins what a power cut does to
// a put that was already past the loopback's crash gate: the WAL is cut
// under the server directly — the state such a put finds, with no
// timing involved — and the put must then fail with ErrServerDown and
// leave memory alone, small and handed-off elements alike, because
// Recover rebuilds from a disk that never saw it — through PutData,
// through the non-waiting form a loopback writer's own pass uses, and
// through the Server's exported PutData and RepairPut. A closed
// WAL is not a failed one: WALFailures stays 0.
func TestPutPastTheGateIsNotAckedAfterWALCut(t *testing.T) {
	ctx := testCtx(t)
	lb, err := NewDurableLoopback(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer lb.CloseServers()
	c := lb.Conns()[0]
	t1 := Tag{TS: 1, Writer: "w"}
	if err := c.PutData(ctx, testKey, t1, []byte{1}, 1); err != nil {
		t.Fatal(err)
	}
	srv := lb.Server(0)
	pinSyncs(srv, 0) // whatever the temp dir is on, putDataStep is to try this log
	srv.dur.powerCut()

	for ts, size := range map[uint64]int{2: 1, 3: elemHandoffMin} {
		if err := c.PutData(ctx, testKey, Tag{TS: ts, Writer: "w"}, make([]byte, size), size); !errors.Is(err, ErrServerDown) {
			t.Errorf("PutData of %d bytes after the WAL was cut = %v, want ErrServerDown", size, err)
		}
		// The form a writer runs on its own goroutine finds the log free,
		// and closed: the same refusal, not a put to come back to.
		if err := c.(*loopConn).putDataStep(testKey, Tag{TS: ts + 2, Writer: "w"}, make([]byte, size), size, nil); !errors.Is(err, ErrServerDown) {
			t.Errorf("putDataStep of %d bytes after the WAL was cut = %v, want ErrServerDown", size, err)
		}
	}
	if ok, err := c.RepairPut(ctx, testKey, Tag{TS: 6, Writer: "w"}, []byte{6}, 1); ok || !errors.Is(err, ErrServerDown) {
		t.Errorf("RepairPut after the WAL was cut = %v, %v, want false, ErrServerDown", ok, err)
	}
	// The server's own exported forms report the same refusal.
	if err := srv.PutData(testKey, Tag{TS: 7, Writer: "w"}, []byte{7}, 1); !errors.Is(err, ErrServerDown) {
		t.Errorf("Server.PutData after the WAL was cut = %v, want ErrServerDown", err)
	}
	if ok, err := srv.RepairPut(testKey, Tag{TS: 8, Writer: "w"}, []byte{8}, 1); ok || !errors.Is(err, ErrServerDown) {
		t.Errorf("Server.RepairPut after the WAL was cut = %v, %v, want false, ErrServerDown", ok, err)
	}
	if tag := srv.GetTag(testKey); tag != t1 {
		t.Errorf("memory holds %v after the refused puts, want %v", tag, t1)
	}
	if n := srv.MetricsSnapshot().WALFailures; n != 0 {
		t.Errorf("WALFailures = %d after a cut, want 0: closed is not failed", n)
	}

	lb.PowerCut(0)
	rec, err := lb.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if tag := rec.GetTag(testKey); tag != t1 {
		t.Fatalf("recovered %v, want %v: exactly the acknowledged puts", tag, t1)
	}
}

// TestPowerCutInsideAnFsync cuts the power after a record's fsync returned
// but before its log moved the synced watermark past it. The cut keeps only
// what is below the watermark, so the record is gone, and the mutation must
// be refused with ErrServerDown and leave memory alone: a seal or a put
// acknowledged here would be missing from the recovered node. A
// reconfiguration soak lost a new member's activation this way.
func TestPowerCutInsideAnFsync(t *testing.T) {
	for _, tc := range []struct {
		name  string
		do    func(lb *Loopback) error
		moved func(s *Server) bool // memory holds the mutation
	}{
		{"seal", func(lb *Loopback) error {
			_, err := lb.Server(0).Reconfig(ReconfigSeal, 1, 5, 3)
			return err
		}, func(s *Server) bool { return s.EpochStatus().Sealed }},
		{"put-data", func(lb *Loopback) error {
			return lb.Conns()[0].PutData(testCtx(t), testKey, Tag{TS: 1, Writer: "w"}, []byte{1}, 1)
		}, func(s *Server) bool { return !s.GetTag(testKey).IsZero() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lb, err := NewDurableLoopback(1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer lb.CloseServers()
			srv := lb.Server(0)
			w := srv.dur.wal
			w.syncMu.Lock()
			w.syncs = 0 // the next leader fsync is timed: w.clk.now runs on each side of it
			calls := 0  // under syncMu, as w.clk.now is called
			w.clk.nowFn = func() time.Time {
				if calls++; calls == 2 {
					srv.dur.powerCut()
				}
				return time.Time{}
			}
			w.syncMu.Unlock()

			if err := tc.do(lb); !errors.Is(err, ErrServerDown) {
				t.Errorf("%s with the power cut inside its fsync = %v, want ErrServerDown", tc.name, err)
			}
			if calls != 2 {
				t.Fatalf("the log's clock ran %d times, want 2: no timed fsync was cut", calls)
			}
			if tc.moved(srv) {
				t.Errorf("memory holds the %s its log lost", tc.name)
			}
			lb.PowerCut(0)
			rec, err := lb.Recover(0)
			if err != nil {
				t.Fatal(err)
			}
			if tc.moved(rec) {
				t.Errorf("the recovered node holds the %s: the test cut nothing", tc.name)
			}
		})
	}
}

// TestDurableTCPServerLifecycle runs a durable core under the TCP
// transport: serve, mutate over the wire, close everything, recover,
// serve again.
func TestDurableTCPServerLifecycle(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	core, err := NewDurableServer(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := ListenAndServe(core, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := testMuxConn(0, ns.Addr())
	t1 := Tag{TS: 1, Writer: "w"}
	if err := c.PutData(ctx, testKey, t1, []byte{7}, 1); err != nil {
		t.Fatalf("PutData over TCP: %v", err)
	}
	c.Close()
	ns.Close()
	if err := ns.core.Close(); err != nil {
		t.Fatalf("Core().Close(): %v", err)
	}

	core2, err := NewDurableServer(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer core2.Close()
	ns2, err := ListenAndServe(core2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns2.Close()
	c2 := testMuxConn(0, ns2.Addr())
	defer c2.Close()
	tag, err := c2.GetTag(ctx, testKey)
	if err != nil {
		t.Fatalf("GetTag after recovery: %v", err)
	}
	if tag != t1 {
		t.Fatalf("recovered server serves %v over TCP, want %v", tag, t1)
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

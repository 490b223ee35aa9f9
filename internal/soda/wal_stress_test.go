package soda

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// WAL stress coverage: the group-commit benchmark pair (the
// before/after for coalesced FsyncAlways appends) and the disk-full
// degraded-mode soak for the withWALFailAfter fault hook.

// benchDurablePuts drives PutData at a single FsyncAlways durable
// server. Serial, every append pays its own fsync and group commit
// never fires; parallel, concurrent appends queue behind one leader's
// fsync and the coalesced syncs show up both in ns/op and in the
// groupsyncs/op metric. Run both to see the before/after:
//
//	go test ./internal/soda -bench DurablePut -run XXX
func benchDurablePuts(b *testing.B, parallel bool) {
	s, err := NewDurableServer(0, b.TempDir(), WithSnapshotThreshold(1<<30))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	elem := make([]byte, 256)
	for i := range elem {
		elem[i] = byte(i)
	}
	var ts atomic.Uint64
	b.SetBytes(int64(len(elem)))
	b.ResetTimer()
	if parallel {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				s.PutData("bench/key", Tag{TS: ts.Add(1), Writer: "b"}, elem, len(elem))
			}
		})
	} else {
		for i := 0; i < b.N; i++ {
			s.PutData("bench/key", Tag{TS: ts.Add(1), Writer: "b"}, elem, len(elem))
		}
	}
	b.StopTimer()
	snap := s.MetricsSnapshot()
	if snap.WALFailures != 0 {
		b.Fatalf("WALFailures = %d during benchmark", snap.WALFailures)
	}
	b.ReportMetric(float64(snap.WALGroupSyncs)/float64(b.N), "groupsyncs/op")
}

func BenchmarkDurablePutSerial(b *testing.B)   { benchDurablePuts(b, false) }
func BenchmarkDurablePutParallel(b *testing.B) { benchDurablePuts(b, true) }

// TestWALGroupCommitCoalesces pins the group-commit behavior the
// benchmark measures: serial FsyncAlways appends each pay their own
// fsync and coalesce nothing, while appenders queued behind a running
// sync are covered by the leader's fsync and skip their own. The
// concurrent half is made deterministic by holding syncMu — the
// group-commit leader lock — while the waiters append their records,
// so releasing it lets exactly one leader sync for all of them.
func TestWALGroupCommitCoalesces(t *testing.T) {
	s, err := NewDurableServer(0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	elem := []byte{1, 2, 3, 4}

	const serial = 5
	var ts atomic.Uint64
	for i := 0; i < serial; i++ {
		s.PutData(fmt.Sprintf("gc/s%d", i), Tag{TS: ts.Add(1), Writer: "w"}, elem, len(elem))
	}
	if got := s.MetricsSnapshot().WALGroupSyncs; got != 0 {
		t.Fatalf("serial appends coalesced %d syncs, want 0", got)
	}
	w := s.dur.wal
	w.mu.Lock()
	base := w.size
	w.mu.Unlock()
	recLen := base / serial // equal key/tag/elem sizes, fixed-width fields

	// Park the leader lock; the waiters write their records (appends
	// only need w.mu) and stack up in syncTo behind it.
	w.syncMu.Lock()
	const waiters = 4
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.PutData(fmt.Sprintf("gc/p%d", i), Tag{TS: ts.Add(1), Writer: "w"}, elem, len(elem))
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		w.mu.Lock()
		size := w.size
		w.mu.Unlock()
		if size >= base+int64(waiters)*recLen {
			break
		}
		if time.Now().After(deadline) {
			w.syncMu.Unlock()
			t.Fatalf("waiters' records never landed (size %d, want %d)", size, base+int64(waiters)*recLen)
		}
		//lint:ignore lockhold this test IS the group-commit determinism check: it parks the leader lock on purpose to stack waiters behind one fsync
		time.Sleep(time.Millisecond)
	}
	w.syncMu.Unlock()
	wg.Wait()

	snap := s.MetricsSnapshot()
	// One waiter becomes the leader and fsyncs for everyone already on
	// the file; the other waiters find their bytes covered and skip.
	if snap.WALGroupSyncs < waiters-1 {
		t.Fatalf("WALGroupSyncs = %d, want >= %d", snap.WALGroupSyncs, waiters-1)
	}
	if snap.WALFailures != 0 {
		t.Fatalf("WALFailures = %d", snap.WALFailures)
	}
}

// TestWALDiskFullDegradedRejoin is the IO-error soak: every node's WAL
// is rigged to fail (and latch) once its active segment passes 4 KiB.
// The cluster must degrade to memory-only durability and keep serving
// — the operator signal is the WALFailures counter, not a wedged
// quorum. A degraded node that then power-cuts comes back missing its
// unlogged tail, and rejoins through the ordinary quarantine → donor
// repair path, not its own (truncated) log.
func TestWALDiskFullDegradedRejoin(t *testing.T) {
	ctx := testCtx(t)
	codec, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := NewDurableLoopback(5, t.TempDir(), withWALFailAfter(4<<10))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lb.CloseServers() })
	m := NewMembership(5)
	w := mustWriterOn(t, "w1", &Config{Codec: codec, Conns: lb.Conns(), F: -1, Membership: m})

	// Fill every node's WAL past the injected limit. Elements are
	// value/k sized, so 1 KiB values push each 4 KiB segment over
	// within a few writes; bound the loop so a broken injection fails
	// loudly instead of spinning.
	value := bytes.Repeat([]byte{0xAB}, 1024)
	allDegraded := func() bool {
		for i := 0; i < 5; i++ {
			if lb.Server(i).MetricsSnapshot().WALFailures == 0 {
				return false
			}
		}
		return true
	}
	for i := 0; i < 200 && !allDegraded(); i++ {
		if _, err := w.Write(ctx, fmt.Sprintf("full/%03d", i%8), value); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	if !allDegraded() {
		t.Fatal("200 writes never tripped the injected disk-full fault on all nodes")
	}

	// Degraded, the cluster still serves: this write is acked from
	// memory on every node (its WAL append fails and is counted).
	lastVal := []byte("written after the disk filled")
	lastTag, err := w.Write(ctx, "full/last", lastVal)
	if err != nil {
		t.Fatalf("degraded Write: %v", err)
	}
	r := mustReaderOn(t, "r1", &Config{Codec: codec, Conns: lb.Conns(), F: 0, Membership: m})
	if res, err := r.Read(ctx, "full/last"); err != nil || res.Tag != lastTag {
		t.Fatalf("degraded full-strength Read = %v, %v; want tag %v", res, err, lastTag)
	}

	// Power-cut a degraded node: the unlogged tail is gone, so its own
	// WAL cannot restore full/last.
	lb.PowerCut(2)
	m.MarkSuspect(2, ErrServerDown)
	s2, err := lb.Recover(2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if gotTag, _, _ := s2.Snapshot("full/last"); !gotTag.Less(lastTag) {
		t.Fatalf("recovered tag %v for full/last, want below %v (the append was never logged)", gotTag, lastTag)
	}

	// Rejoin is donor repair, the same path a blank node takes.
	rp := mustRepairer(t, codec, lb.Conns(), m)
	if _, err := rp.RepairOnce(ctx, 2); err != nil {
		t.Fatalf("RepairOnce: %v", err)
	}
	if !m.IsLive(2) {
		t.Fatalf("server 2 health = %v after repair", m.Health(2))
	}
	if gotTag, _, _ := s2.Snapshot("full/last"); gotTag.Less(lastTag) {
		t.Fatalf("repair left full/last at %v, want >= %v", gotTag, lastTag)
	}

	// Whole cluster answers a full-strength read again.
	if res, err := r.Read(ctx, "full/last"); err != nil || res.Tag.Less(lastTag) {
		t.Fatalf("post-repair Read = %v, %v", res, err)
	}
}

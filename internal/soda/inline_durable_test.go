package soda

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// A put-data to a durable server, tried on its writer's own goroutine
// (loopConn.putDataNow), has three answers: applied, having logged and
// synced there; not now, because the key's register or the log is busy —
// the writer comes back once, then sends a leg; and not here, because
// the log's syncs wait for a device — a leg at once. The tests below pin
// the last two, and who owns the element in between (the first is
// TestInlineOpsStartNothing's). None of them lets the disk under its temp
// dir decide: a log's clock is a field, and they set it.

// setSyncClock stands a device of the test's choosing under s's log:
// every fsync timed from now on appears to take d, whatever the one under
// the temp dir did.
func setSyncClock(s *Server, d time.Duration) {
	w := s.dur.wal
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	var ticks time.Duration // read and written by w.now: under syncMu
	w.now = func() time.Time {
		ticks++
		return time.Unix(0, 0).Add(ticks * d)
	}
}

// pinSyncs is setSyncClock taking effect at once: the sample reads d
// without waiting for the next timed fsync.
func pinSyncs(s *Server, d time.Duration) {
	setSyncClock(s, d)
	s.dur.wal.syncNanos.Store(int64(d))
}

// pinnedLoopback is a five-server durable loopback whose logs' fsyncs
// appear to take no time, so that a writer on its raw conns puts on its
// own goroutine on CI's disk as on a tmpfs.
func pinnedLoopback(t testing.TB, mode FsyncMode) *Loopback {
	t.Helper()
	lb, err := NewDurableLoopback(5, t.TempDir(), WithFsync(mode))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lb.CloseServers() })
	for i := 0; i < lb.Size(); i++ {
		pinSyncs(lb.Server(i), 0)
	}
	return lb
}

// pinnedCluster is pinnedLoopback with the n5k3 codec for it.
func pinnedCluster(t testing.TB, mode FsyncMode) (*Codec, *Loopback) {
	t.Helper()
	codec, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	return codec, pinnedLoopback(t, mode)
}

// onPut registers a reader by hand on server i and calls fn for every
// put-data of key relayed to it, on the goroutine that ran the put and
// before the put returns. It is how these tests act in the middle of a
// writer's own put-data pass, between one server and the next; a delivery
// hook would do the same, but an installed hook sends the pass to the legs.
func onPut(t *testing.T, lb *Loopback, i int, key string, fn func()) {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	done, registered := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		lb.Conns()[i].GetData(ctx, key, fmt.Sprintf("on-put#%d", i), func(d Delivery) {
			if d.Initial {
				close(registered)
			} else {
				fn()
			}
		})
	}()
	<-registered
	t.Cleanup(func() {
		stop()
		<-done
	})
}

// holdMutex locks mu until the function it returns is called; calling
// that again is harmless.
func holdMutex(mu *sync.Mutex) (letGo func()) {
	mu.Lock()
	var once sync.Once
	return func() { once.Do(mu.Unlock) }
}

// holdWAL stops every append to s's log.
func holdWAL(s *Server) (letGo func()) { return holdMutex(&s.dur.wal.mu) }

// walCounts reads the two counters a put-data moves, without touching a
// register lock (Server.MetricsSnapshot takes them all).
func walCounts(s *Server) (appends, puts uint64) {
	snap := s.Metrics().Snapshot()
	return snap.WALAppends, snap.PutDatas
}

// TestDurablePutDoesNotWaitForAStuckLog: busy, later, leg. One server's
// log — or the register under the key — is taken out from under a write
// once its put-data pass is under way, and stays taken. The writer tries
// it twice on its own goroutine, where waiting once would have been the
// end of the write, then gives that one put to a leg and returns on the
// other four acks, f being 1. The stuck server has logged and counted
// nothing until it is let go; then the straggler lands.
func TestDurablePutDoesNotWaitForAStuckLog(t *testing.T) {
	const stuck = 3
	for _, tc := range []struct {
		name string
		hold func(*Server) (letGo func())
	}{
		{"an appender holds the log", holdWAL},
		{"a leader is inside its fsync", func(s *Server) func() { return holdMutex(&s.dur.wal.syncMu) }},
		{"the key's register is locked", func(s *Server) func() { return holdMutex(&s.lookup(testKey, true).mu) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkNoLeaks(t)
			ctx := testCtx(t)
			codec, lb := pinnedCluster(t, FsyncAlways)
			w := mustWriter(t, "w", codec, lb.Conns())
			r := mustReader(t, "r", codec, lb.Conns())
			v1, v2 := []byte("durable one"), []byte("durable two")
			if _, err := w.Write(ctx, testKey, v1); err != nil {
				t.Fatal(err)
			}
			appends, puts := walCounts(lb.Server(stuck))

			// Taken when server 0's put is through: the get-tag pass, which
			// locks every register in turn, is over, and the put-data pass has
			// four servers to go.
			held := make(chan func(), 1)
			var once sync.Once
			onPut(t, lb, 0, testKey, func() { once.Do(func() { held <- tc.hold(lb.Server(stuck)) }) })
			wrote := make(chan error, 1)
			go func() {
				_, err := w.Write(ctx, testKey, v2)
				wrote <- err
			}()
			var err error
			select {
			case err = <-wrote:
			case <-time.After(5 * time.Second):
				err = errors.New("a write with f=1 waited for the one server it found busy")
			}
			letGo := func() {}
			select {
			case letGo = <-held:
				defer letGo()
			default:
				err = errors.Join(err, errors.New("server 0's put-data was not relayed: nothing was held"))
			}
			if err != nil {
				t.Fatal(err)
			}
			if a, p := walCounts(lb.Server(stuck)); a != appends || p != puts {
				t.Fatalf("the stuck server logged %d records and counted %d put-datas while it was stuck", a-appends, p-puts)
			}
			letGo()
			res, err := r.Read(ctx, testKey)
			if err != nil || !bytes.Equal(res.Value, v2) {
				t.Fatalf("read = %q, %v; want %q", res.Value, err, v2)
			}
			waitFor(t, "the straggler put on the stuck server", func() bool {
				tag, _, _ := lb.Server(stuck).Snapshot(testKey)
				a, p := walCounts(lb.Server(stuck))
				return tag == res.Tag && a == appends+1 && p == puts+1
			})
		})
	}
}

// watchPuts registers a watcher on every server and returns a
// function that performs one write of key and reports how many of its
// five put-datas ran on the goroutine that called it. The writer must
// wait for all five (WithWriterFaults(0)).
func watchPuts(t *testing.T, lb *Loopback, w *Writer, key string) (write func(value []byte) (onCaller int)) {
	t.Helper()
	var mu sync.Mutex
	ranOn := make([]string, lb.Size())
	for i := range ranOn {
		onPut(t, lb, i, key, func() {
			g := thisGoroutine()
			mu.Lock()
			ranOn[i] = g
			mu.Unlock()
		})
	}
	return func(value []byte) (onCaller int) {
		t.Helper()
		mu.Lock()
		clear(ranOn)
		mu.Unlock()
		if _, err := w.Write(testCtx(t), key, value); err != nil {
			t.Fatal(err)
		}
		caller := thisGoroutine()
		mu.Lock()
		defer mu.Unlock()
		for i, g := range ranOn {
			if g == "" {
				t.Fatalf("the write returned before server %d's put-data", i)
			}
			if g == caller {
				onCaller++
			}
		}
		return onCaller
	}
}

// TestDurableSlowSyncSendsPutsOnLegs: not here. A log whose last timed
// fsync waited for a device gets its put-datas from legs, all five of a
// write at once so that the waits overlap; and since the legs' fsyncs are
// timed like any other, a device that comes back is noticed within
// syncSampleEvery of them and the writer puts on its own goroutine again.
func TestDurableSlowSyncSendsPutsOnLegs(t *testing.T) {
	checkNoLeaks(t)
	codec, lb := pinnedCluster(t, FsyncAlways)
	w := mustWriter(t, "w", codec, lb.Conns(), WithWriterFaults(0))
	if _, err := w.Write(testCtx(t), testKey, []byte("so that there is something to relay after")); err != nil {
		t.Fatal(err)
	}
	write := watchPuts(t, lb, w, testKey)
	if n := write([]byte("fast device")); n != 5 {
		t.Fatalf("%d of 5 put-datas ran on the writer's goroutine with fsyncs that take no time, want all", n)
	}
	for i := 0; i < lb.Size(); i++ {
		pinSyncs(lb.Server(i), 150*time.Microsecond)
	}
	for j := 0; j < 3; j++ {
		if n := write([]byte("slow device")); n != 0 {
			t.Fatalf("%d of 5 put-datas ran on the writer's goroutine with 150 us fsyncs, want none", n)
		}
	}
	// The device recovers, and nothing tells the logs but their own syncs.
	for i := 0; i < lb.Size(); i++ {
		setSyncClock(lb.Server(i), 0)
	}
	if n := write([]byte("fast again, not yet noticed")); n != 0 {
		t.Fatalf("%d of 5 put-datas ran on the writer's goroutine before any fsync was timed on the recovered device", n)
	}
	for j := 0; ; j++ {
		if n := write([]byte("fast again")); n == 5 {
			break
		}
		if j == syncSampleEvery {
			t.Fatalf("%d writes after the device recovered the put-datas still leave on legs: the legs' fsyncs are not timed", j)
		}
	}
}

// TestDurablePutNotNowKeepsTheElement: a put-data that answers not now
// has not taken its element. 1 MiB values, so that elements change hands
// (putOwned): server 2's lands on the first pass, on the second (its log
// is held while the pass goes by, and let go before the writer comes
// back), or from a leg (let go after the write has returned; or every
// log on a slow device, and all five on legs), and each time every
// element is stored once, none is freed — a freed one is
// poisoned, and the read would show it — and no buffer is freed twice.
func TestDurablePutNotNowKeepsTheElement(t *testing.T) {
	checkNoLeaks(t)
	freed := poisonFreedElems(t)
	ctx := testCtx(t)
	codec, lb := pinnedCluster(t, FsyncAlways)
	w := mustWriter(t, "w", codec, lb.Conns())
	r := mustReader(t, "r", codec, lb.Conns())
	value := elemFor(11, 1<<20)
	if _, err := w.Write(ctx, testKey, value); err != nil {
		t.Fatal(err)
	}

	const late = 2
	var mu sync.Mutex
	var holdAt0, letGoAt4 bool // what the watchers do during the write in flight
	var letGo func()
	var lateOn string
	onPut(t, lb, 0, testKey, func() {
		mu.Lock()
		defer mu.Unlock()
		if holdAt0 {
			letGo = holdWAL(lb.Server(late))
		}
	})
	onPut(t, lb, late, testKey, func() {
		g := thisGoroutine()
		mu.Lock()
		lateOn = g
		mu.Unlock()
	})
	onPut(t, lb, 4, testKey, func() {
		mu.Lock()
		defer mu.Unlock()
		if letGoAt4 {
			letGo()
		}
	})
	for ts, tc := range []struct {
		name           string
		hold, letGoAt4 bool
		slow           time.Duration // every log's fsyncs, for this write
		onCaller       bool
	}{
		{"first pass", false, false, 0, true},
		{"second pass", true, true, 0, true},
		{"leg, the log busy twice", true, false, 0, false},
		{"leg, the device slow", false, false, 150 * time.Microsecond, false},
	} {
		mu.Lock()
		holdAt0, letGoAt4, lateOn = tc.hold, tc.letGoAt4, ""
		mu.Unlock()
		for i := 0; i < lb.Size(); i++ {
			pinSyncs(lb.Server(i), tc.slow)
		}
		value[0] = byte(ts)
		mark, warm := freed.total(), freed.total()-freed.colds()
		appends, _ := walCounts(lb.Server(late))
		tag, err := w.Write(ctx, testKey, value)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.hold && !tc.letGoAt4 {
			// Its leg may be inside the put by now, holding the register
			// lock: only the counters can be looked at.
			if a, _ := walCounts(lb.Server(late)); a != appends {
				t.Fatalf("%s: server %d logged the put with its log held shut", tc.name, late)
			}
			mu.Lock()
			letGo()
			mu.Unlock()
		}
		// Every put has landed, and the two servers nobody watches have
		// freed the buffers theirs displaced: the write's legs are done with
		// the free list.
		waitFor(t, tc.name+": the write on every server", func() bool {
			for i := 0; i < lb.Size(); i++ {
				if held, _, _ := lb.Server(i).Snapshot(testKey); held != tag {
					return false
				}
			}
			mu.Lock()
			defer mu.Unlock()
			return lateOn != ""
		})
		freed.await(t, mark+2)
		mu.Lock()
		onCaller := lateOn == thisGoroutine()
		mu.Unlock()
		if onCaller != tc.onCaller {
			t.Errorf("%s: server %d's put-data ran on the writer's goroutine: %v, want %v", tc.name, late, onCaller, tc.onCaller)
		}
		if got := freed.total() - freed.colds() - warm; got != 0 || freed.total() != mark+2 {
			t.Errorf("%s: %d elements were freed unsent and %d buffers in all, want every element stored and two displaced ones freed", tc.name, got, freed.total()-mark)
		}
		freed.mu.Lock()
		seen := map[*byte]bool{}
		for _, p := range freed.ptr[mark:] {
			if seen[p] {
				t.Errorf("%s: buffer %p freed twice", tc.name, p)
			}
			seen[p] = true
		}
		freed.mu.Unlock()
		res, err := r.Read(ctx, testKey)
		if err != nil || !bytes.Equal(res.Value, value) {
			t.Fatalf("%s: read %d bytes, %v; want the value just written", tc.name, len(res.Value), err)
		}
	}
}

// TestDurablePowerCutBetweenThePasses: server 2's log is held while the
// first pass goes by, and before the writer comes back the power is cut —
// to the node, or to its log alone, which is the state a put already past
// the crash flag finds. The second visit is that server's one failure: it
// is reported (the membership view marks it), nothing was applied, the
// write returns on four acks without having started a goroutine, and the
// node recovers to the first write.
func TestDurablePowerCutBetweenThePasses(t *testing.T) {
	const cut = 2
	for _, tc := range []struct {
		name string
		cut  func(lb *Loopback)
	}{
		{"the node", func(lb *Loopback) { lb.PowerCut(cut) }},
		{"its log", func(lb *Loopback) { lb.Server(cut).dur.powerCut() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkNoLeaks(t)
			ctx := testCtx(t)
			codec, lb := pinnedCluster(t, FsyncAlways)
			m := NewMembership(5)
			w := mustWriter(t, "w", codec, lb.Conns(), WithWriterMembership(m))
			tag1, err := w.Write(ctx, testKey, []byte("before the cut"))
			if err != nil {
				t.Fatal(err)
			}
			var letGo func()
			onPut(t, lb, 0, testKey, func() { letGo = holdWAL(lb.Server(cut)) })
			onPut(t, lb, 4, testKey, func() {
				letGo()
				tc.cut(lb)
			})
			goroutines := startedGoroutines()
			if _, err := w.Write(ctx, testKey, []byte("across the cut")); err != nil {
				t.Fatalf("write with one server cut between its passes: %v", err)
			}
			if got := startedGoroutines(); got > goroutines {
				t.Errorf("%d goroutines before the write, %d after: the cut server's put left on a leg", goroutines, got)
			}
			if m.Health(cut) != Suspect || !errors.Is(m.Cause(cut), ErrServerDown) {
				t.Errorf("server %d is %v (%v) after refusing its put, want suspect of ErrServerDown", cut, m.Health(cut), m.Cause(cut))
			}
			srv := lb.Server(cut)
			if tag, _, _ := srv.Snapshot(testKey); tag != tag1 {
				t.Errorf("memory holds %v after the refused put, want %v", tag, tag1)
			}
			if snap := srv.Metrics().Snapshot(); snap.WALAppends != 1 || snap.WALFailures != 0 {
				t.Errorf("%d records logged, %d failures; want the first write's record and none", snap.WALAppends, snap.WALFailures)
			}
			lb.PowerCut(cut)
			rec, err := lb.Recover(cut)
			if err != nil {
				t.Fatal(err)
			}
			if tag := rec.GetTag(testKey); tag != tag1 {
				t.Fatalf("recovered %v, want %v: exactly the acknowledged puts", tag, tag1)
			}
		})
	}
}

package soda

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parkedWorkers counts the goroutines sitting in (*idleList).work.
func parkedWorkers() int {
	n := 0
	for _, g := range goroutineStanzas() {
		if strings.Contains(g, "(*idleList).work") {
			n++
		}
	}
	return n
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestIdleListNeverThrottlesAndTrimsToCap: one list takes more blocking
// legs than its idle cap and runs every one of them at once; when they
// finish, the cap's worth park (and are reused, last parked first out)
// and the rest exit.
func TestIdleListNeverThrottlesAndTrimsToCap(t *testing.T) {
	const legs = maxIdleWorkers + 37
	before := parkedWorkers()
	var l idleList
	var running atomic.Int32
	gate := make(chan struct{})
	for i := 0; i < legs; i++ {
		l.spawn(func() {
			running.Add(1)
			<-gate
		})
	}
	waitFor(t, "every leg to run while all the others block", func() bool { return running.Load() == legs })
	close(gate)
	waitFor(t, "the surplus workers to exit", func() bool {
		l.mu.Lock()
		idle := len(l.idle)
		l.mu.Unlock()
		return idle == maxIdleWorkers && parkedWorkers() == before+maxIdleWorkers
	})

	l.mu.Lock()
	top := l.idle[len(l.idle)-1]
	l.mu.Unlock()
	ran := make(chan struct{})
	l.spawn(func() { close(ran) })
	<-ran
	waitFor(t, "the reused worker to park again", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.idle) == maxIdleWorkers && l.idle[len(l.idle)-1] == top
	})
	if got := parkedWorkers(); got != before+maxIdleWorkers {
		t.Fatalf("a spawn with idle workers parked started a new one: %d workers, want %d", got, before+maxIdleWorkers)
	}

	// Retire this test's workers: the list is not the process pool's.
	l.mu.Lock()
	for _, ch := range l.idle {
		close(ch)
	}
	l.idle = nil
	l.mu.Unlock()
}

// stuckConn is a Conn whose get-tag never answers and ignores
// cancellation until the test lets go: a leg that outlives its write.
type stuckConn struct {
	Conn
	stuck   atomic.Int32
	release chan struct{}
}

func (c *stuckConn) GetTag(ctx context.Context, key string) (Tag, error) {
	c.stuck.Add(1)
	<-c.release
	return Tag{}, ErrServerDown
}

// TestHungLegsPastIdleCapDoNotStallQuorums: every write leaves one leg
// hung in a server that never answers, until far more legs are hung than
// a list may park. The f=1 quorums all complete regardless — a pool that
// throttled on hung legs would stop here — reads and writes on other
// keys run alongside, and once the server lets go every leg finishes and
// nothing is left behind but parked workers.
func TestHungLegsPastIdleCapDoNotStallQuorums(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	conns := lb.Conns()
	hung := &stuckConn{Conn: conns[4], release: make(chan struct{})}
	conns[4] = hung
	w := mustWriter(t, "w", codec, conns, WithWriterFaults(1))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ow := mustWriter(t, fmt.Sprintf("o%d", c), codec, lb.Conns())
			or := mustReader(t, fmt.Sprintf("o%d", c), codec, lb.Conns())
			key := fmt.Sprintf("other/%d", c)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := ow.Write(ctx, key, []byte{byte(i)}); err != nil {
					t.Errorf("bystander write: %v", err)
					return
				}
				if res, err := or.Read(ctx, key); err != nil || len(res.Value) != 1 || res.Value[0] != byte(i) {
					t.Errorf("bystander read = %v, %v; want [%d]", res.Value, err, byte(i))
					return
				}
			}
		}(c)
	}

	const writes = 2*maxIdleWorkers + 9
	for i := 0; i < writes; i++ {
		if _, err := w.Write(ctx, testKey, []byte("v")); err != nil {
			t.Fatalf("write %d with %d legs hung: %v", i, hung.stuck.Load(), err)
		}
	}
	if got := hung.stuck.Load(); got != writes {
		t.Fatalf("%d legs hung, want one per write (%d)", got, writes)
	}
	close(stop)
	wg.Wait()
	close(hung.release)
}

// TestConcurrentCallsSpawnFromDifferentLists: call states checked out
// at the same time hold different idle lists, so one call's spawns and
// parks never queue behind another's.
func TestConcurrentCallsSpawnFromDifferentLists(t *testing.T) {
	if len(spawnPool.lists) < 8 {
		t.Fatalf("%d idle lists, want 8 per P at init", len(spawnPool.lists))
	}
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	w := mustWriter(t, "w", codec, lb.Conns())
	r := mustReader(t, "r", codec, lb.Conns())
	lists := make(map[*idleList]bool)
	for i := 0; i < 2; i++ {
		lists[w.getCall(ctx, testKey, nil, nil, 0).idle] = true
		lists[r.getState().idle] = true
	}
	if len(lists) != 4 {
		t.Fatalf("4 call states checked out together share %d idle lists", len(lists))
	}

}

// BenchmarkSmallOpsParallel is the layer number behind the per-call-
// state idle lists and the lock-free EpochChanged: GOMAXPROCS closed-
// loop clients on one shared Writer and Reader over a loopback n5k3
// cluster, 128 B values, writes and reads alternating over 10 000 keys —
// the repository benchmark's loop-small without its harness. Quote it at
// -cpu 1,2,4: a change that removes contention moves the rows above 1
// and leaves the -cpu 1 row, which is per-op cost, where it was.
func BenchmarkSmallOpsParallel(b *testing.B) {
	ctx := context.Background()
	codec, err := NewCodec(5, 3)
	if err != nil {
		b.Fatal(err)
	}
	lb := NewLoopback(5)
	w, err := NewWriter("w", codec, lb.Conns())
	if err != nil {
		b.Fatal(err)
	}
	r, err := NewReader("r", codec, lb.Conns())
	if err != nil {
		b.Fatal(err)
	}
	value := make([]byte, 128)
	keys := make([]string, 10000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
		if _, err := w.Write(ctx, keys[i], value); err != nil {
			b.Fatal(err)
		}
	}
	var clients atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := clients.Add(1) * 0x9E3779B97F4A7C15
		for write := true; pb.Next(); write = !write {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			key := keys[x%uint64(len(keys))]
			var err error
			if write {
				_, err = w.Write(ctx, key, value)
			} else {
				_, err = r.Read(ctx, key)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

package soda

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
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

// stuckConn is a Conn whose put-data never answers and ignores
// cancellation until the test lets go: a leg that outlives its write. It
// is the one wrapped conn of its set, so the put-data is all its leg
// carries: the other four settle the get-tag phase without it.
type stuckConn struct {
	Conn
	stuck   atomic.Int32
	release chan struct{}
}

func (c *stuckConn) PutData(context.Context, string, Tag, []byte, int) error {
	c.stuck.Add(1)
	<-c.release
	return ErrServerDown
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
	// A write returns on its n-f acks; its fifth leg may be yet to start.
	waitFor(t, "one leg per write to hang", func() bool { return hung.stuck.Load() == writes })
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
		lists[w.getCall(ctx, testKey, nil, 0, writeTally{}).idle] = true
		lists[r.getState().idle] = true
	}
	if len(lists) != 4 {
		t.Fatalf("4 call states checked out together share %d idle lists", len(lists))
	}

}

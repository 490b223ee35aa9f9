package lockhold

import (
	"context"
	"net"
	"sync"
	"time"
)

type wal struct{}

func (w *wal) Append(b []byte) error { return nil }
func (w *wal) Size() int             { return 0 }

type state struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	wake chan struct{}
	ch   chan int
	log  *wal
	conn net.Conn
	wg   sync.WaitGroup
}

func sendUnderLock(s *state) {
	s.mu.Lock()
	s.ch <- 1 // want `channel send while holding s.mu`
	s.mu.Unlock()
}

func sendAfterUnlock(s *state) {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- 1 // ok: the lock was released
}

func sendUnderDeferredUnlock(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 1 // want `channel send while holding s.mu`
}

func nonBlockingWake(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // ok: a default case makes the send non-blocking
	case s.wake <- struct{}{}:
	default:
	}
}

func blockingSelect(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `select with no default case while holding s.mu`
	case s.wake <- struct{}{}:
	case v := <-s.ch:
		_ = v
	}
}

func ctxWait(ctx context.Context, s *state) {
	s.mu.Lock()
	<-ctx.Done() // want `wait on ctx.Done\(\) while holding s.mu`
	s.mu.Unlock()
}

func receiveUnderRLock(s *state) int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return <-s.ch // want `blocking channel receive while holding s.rw`
}

func netWriteUnderLock(s *state, p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conn.Write(p) // want `net I/O \(Conn.Write\) while holding s.mu`
}

func netCloseUnderLock(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conn.Close() // ok: Close is a non-blocking control op
}

func walAppendUnderLock(s *state, rec []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.Append(rec) // want `WAL Append \(append/fsync class\) while holding s.mu`
}

func walReadUnderLock(s *state) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Size() // ok: reads of WAL state are not the fsync class
}

func sleepUnderLock(s *state) {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while holding s.mu`
	s.mu.Unlock()
}

func waitGroupUnderLock(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wg.Wait() // want `WaitGroup.Wait while holding s.mu`
}

func goroutineDoesNotHold(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1 // ok: the spawned goroutine does not hold the caller's lock
	}()
}

func unlockedBranchMerge(s *state, fast bool) {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
		s.ch <- 1 // ok: this branch released the lock
		return
	}
	s.mu.Unlock()
}

func otherFunctionsLockIsNotOurs(s *state) {
	// ok: no lock acquired in THIS function; interprocedural holds are
	// out of scope by design.
	s.ch <- 1
}

func tryThenEarlyReturn(s *state) {
	if !s.mu.TryLock() {
		s.ch <- 1 // ok: the try failed, nothing is held on this branch
		return
	}
	s.ch <- 1 // want `channel send while holding s.mu`
	s.mu.Unlock()
	s.ch <- 1 // ok: the lock was released
}

func tryPositiveBranch(s *state, rec []byte) {
	if s.rw.TryRLock() {
		s.log.Append(rec) // want `WAL Append \(append/fsync class\) while holding s.rw`
		s.rw.RUnlock()
	} else {
		s.log.Append(rec) // ok: the try failed
	}
	s.log.Append(rec) // ok: released on the one branch that held it
}

func tryBehindAGuard(s *state, syncs bool) {
	if syncs && !s.mu.TryLock() {
		return
	}
	time.Sleep(time.Millisecond) // want `time.Sleep while holding s.mu`
	if syncs {
		s.mu.Unlock()
	}
}

func tryEither(s *state) {
	if !s.mu.TryLock() || !s.rw.TryLock() {
		s.wg.Wait() // want `WaitGroup.Wait while holding s.mu`
		return
	}
	s.wg.Wait() // want `WaitGroup.Wait while holding s.mu, s.rw`
}

func tryResultStored(s *state) {
	ok := s.mu.TryLock()
	if !ok {
		return
	}
	s.ch <- 1 // not modelled: only a try in the if condition itself is followed
	s.mu.Unlock()
}

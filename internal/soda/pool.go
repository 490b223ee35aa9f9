package soda

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerPool amortizes goroutine startup for the protocol's legs: a
// write or read sends one per exchange a conn could not take from the
// calling goroutine (see Conn). Spawning those as fresh goroutines means
// each one starts on a minimum stack and grows it through the same deep
// server call chain, only for the runtime to shrink the stack again at
// exit. The
// pool parks finished workers instead (LIFO, so the hottest worker —
// the one whose stack is already grown and cached — goes out first)
// and grows without bound under load: a leg can block for its whole
// operation, so throttling here would deadlock fault-riding quorums.
//
// The idle list is keyed by the pooled call state that spawns (a
// writeCall or a readState): each is dealt one list round-robin when it
// is made and its legs leave from and park on that list only. The
// protocol never makes one operation wait for another, and with one
// list for the process two clients did, 2n times per op, on its lock;
// sync.Pool keeps a call state on the P that last used it, so its list
// and the warm stacks parked there follow the P. Lists outnumber Ps
// eightfold so that live call states rarely share one.
type workerPool struct {
	lists []idleList
	next  atomic.Uint32
}

// idleList is one LIFO of parked workers, alone on its cache lines.
type idleList struct {
	mu   sync.Mutex
	idle []chan func()
	_    [128 - 32]byte
}

// maxIdleWorkers bounds each list's parked goroutines. It only needs
// to cover the steady-state fan-out of the call states sharing the
// list; beyond it, workers fall back to exiting like plain goroutines,
// and the GC is free to shrink the stacks of those that stay parked.
const maxIdleWorkers = 64

// spawnPool is shared by all clients in the process; only its lists
// are not.
var spawnPool = workerPool{lists: make([]idleList, 8*runtime.GOMAXPROCS(0))}

// list deals a new call state its idle list.
func (p *workerPool) list() *idleList {
	return &p.lists[p.next.Add(1)%uint32(len(p.lists))]
}

// spawn runs fn on a parked worker, starting a new one only when none
// is idle. fn may block indefinitely.
func (l *idleList) spawn(fn func()) {
	l.mu.Lock()
	if n := len(l.idle); n > 0 {
		ch := l.idle[n-1]
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		ch <- fn
		return
	}
	l.mu.Unlock()
	ch := make(chan func(), 1)
	ch <- fn
	go l.work(ch)
}

func (l *idleList) work(ch chan func()) {
	for fn := range ch {
		fn()
		l.mu.Lock()
		if len(l.idle) >= maxIdleWorkers {
			l.mu.Unlock()
			return
		}
		l.idle = append(l.idle, ch)
		l.mu.Unlock()
	}
}

package rs

import (
	"sync"

	"repro/internal/gf256"
)

// Block scheduler and worker pool.
//
// The coding hot path is outputs[o] = sum_j coeffs[o][j] * inputs[j].
// The gf256 fused kernels already make one register-resident pass over
// each output block; this file supplies the two outer layers:
//
//   - tiling: byte ranges are cut into tiles small enough that the k
//     input blocks (plus the output block) stay resident in L2 while
//     every output is computed for that range, so each input tile is
//     fetched from memory once per range instead of once per output.
//   - a reusable worker pool: above the stripe threshold the tiles of
//     a call are spread over the Encoder's long-lived workers instead
//     of spawning goroutines per call. Submission is non-blocking —
//     when the queue is full the caller codes the stripe itself — so a
//     call can never deadlock on its own pool, and the caller always
//     codes the final stripe rather than just sleeping in Wait.
//
// Everything here is allocation-free in steady state: tasks are passed
// by value, and the per-call WaitGroup and per-worker input views come
// from sync.Pools.

// codeTask is one (outputs x byte-range) unit of coding work.
type codeTask struct {
	coeffs  [][]byte
	inputs  [][]byte
	outputs [][]byte
	lo, hi  int
	wg      *sync.WaitGroup
}

// workerPool is a lazily started, reusable set of coding goroutines
// owned by one Encoder. Workers exit when the Encoder is closed (or
// collected: New installs a finalizer).
type workerPool struct {
	size  int
	tasks chan codeTask
	start sync.Once
	// mu orders submissions against close: once close() returns, no
	// further task can enter the queue, so anything a worker finds
	// while draining after stop was enqueued before stop closed.
	mu     sync.Mutex
	closed bool
	stop   chan struct{}
	// started records whether the workers were ever spawned; tests use
	// it to assert that a closed pool never starts goroutines.
	started bool
}

func newWorkerPool(size int) *workerPool {
	return &workerPool{
		size:  size,
		tasks: make(chan codeTask, 4*size),
		stop:  make(chan struct{}),
	}
}

// ensure starts the workers on first use, so an Encoder that never
// codes anything above the stripe threshold costs no goroutines. It is
// a no-op on a closed pool: striped calls after Close must not spawn
// workers whose only act would be to observe the closed stop channel
// and exit (trySubmit already refuses their tasks, so the caller codes
// everything inline). The mutex orders the check against close().
func (p *workerPool) ensure() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.start.Do(func() {
		p.started = true
		for i := 0; i < p.size; i++ {
			go p.worker()
		}
	})
}

func (p *workerPool) worker() {
	for {
		select {
		case t := <-p.tasks:
			codeRange(t.coeffs, t.inputs, t.outputs, nil, t.lo, t.hi)
			t.wg.Done()
		case <-p.stop:
			// Drain anything that raced with close so no caller is
			// left waiting on an orphaned task.
			for {
				select {
				case t := <-p.tasks:
					codeRange(t.coeffs, t.inputs, t.outputs, nil, t.lo, t.hi)
					t.wg.Done()
				default:
					return
				}
			}
		}
	}
}

// trySubmit queues t, or reports false when the pool is closed or the
// queue is full, so the caller runs the tile inline instead of
// blocking. The lock guarantees a task is never enqueued after close()
// has returned, which is what makes the workers' shutdown drain
// sufficient: no submitted task can be orphaned.
func (p *workerPool) trySubmit(t codeTask) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.tasks <- t:
		return true
	default:
		return false
	}
}

// workersStarted reports whether the worker goroutines were ever
// spawned (race-safely; used by tests).
func (p *workerPool) workersStarted() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.started
}

func (p *workerPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.stop)
	}
}

// wgPool recycles the per-call WaitGroup, which escapes to the heap
// because workers hold a pointer to it.
var wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// viewPool recycles the per-range input window headers used by
// codeRange. Sized for the maximum code length so any Encoder can
// share it.
var viewPool = sync.Pool{New: func() any {
	s := make([][]byte, 256)
	return &s
}}

// tileTarget bounds a tile's working set — k input blocks plus the
// output block — to roughly half a typical 1 MiB L2, leaving room for
// the destination shard and the coefficient tables.
const tileTarget = 512 << 10

// tileSize returns the byte-range tile for k input shards, 4 KiB
// granular.
func tileSize(k int) int {
	t := tileTarget / (k + 1)
	t &^= 4095
	if t < 4096 {
		t = 4096
	}
	if t > 128<<10 {
		t = 128 << 10
	}
	return t
}

// codeRange computes outputs[o][lo:hi] = sum_j coeffs[o][j] *
// inputs[j][lo:hi] for every output, tiling the range so the inputs
// are walked from L2, one fused pass per output tile. An output whose
// stream flag is set is written with non-temporal stores; a nil stream
// means none is.
func codeRange(coeffs, inputs, outputs [][]byte, stream []bool, lo, hi int) {
	if lo >= hi {
		return
	}
	vp := viewPool.Get().(*[][]byte)
	views := (*vp)[:len(inputs)]
	blk := tileSize(len(inputs))
	for lo < hi {
		bhi := lo + blk
		if bhi > hi {
			bhi = hi
		}
		for j, in := range inputs {
			views[j] = in[lo:bhi]
		}
		for o, out := range outputs {
			if stream != nil && stream[o] {
				gf256.MulMultiStream(coeffs[o], views, out[lo:bhi])
			} else {
				gf256.MulMulti(coeffs[o], views, out[lo:bhi])
			}
		}
		lo = bhi
	}
	for j := range views {
		views[j] = nil // do not pin shard memory from the pool
	}
	viewPool.Put(vp)
}

// codeStriped runs codeRange over [0, size), spreading stripes across
// the worker pool when the shards are large enough to be worth it.
func (e *Encoder) codeStriped(coeffs, inputs, outputs [][]byte, size int) {
	if len(outputs) == 0 || size == 0 {
		return
	}
	if e.pool == nil || size < e.stripeMin {
		codeRange(coeffs, inputs, outputs, nil, 0, size)
		return
	}
	e.pool.ensure()
	chunk := (size + e.conc - 1) / e.conc
	chunk = (chunk + 4095) &^ 4095 // tile-granular stripes
	wg := wgPool.Get().(*sync.WaitGroup)
	lo := 0
	for ; lo+chunk < size; lo += chunk {
		wg.Add(1)
		t := codeTask{coeffs: coeffs, inputs: inputs, outputs: outputs, lo: lo, hi: lo + chunk, wg: wg}
		if !e.pool.trySubmit(t) {
			codeRange(coeffs, inputs, outputs, nil, lo, lo+chunk)
			wg.Done()
		}
	}
	codeRange(coeffs, inputs, outputs, nil, lo, size) // final stripe on the caller
	wg.Wait()
	wgPool.Put(wg)
}

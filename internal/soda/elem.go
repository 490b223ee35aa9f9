package soda

import "sync"

// elemHandoffMin is the element size from which a put-data gives its
// buffer away: Conn.PutData owns an elem of at least this many bytes
// from the call on, and a loopback server installs it as the register
// with a pointer swap instead of copying it. Smaller elements are
// borrowed for the call and copied in place. 64 KiB is where rs starts
// calling a shard large. It is a floor, not a break-even point: per put
// (BenchmarkPutDataCopyVsHandoff with this constant lowered) the swap
// already beats the copy at 1 KiB, by 30 ns; at 64 KiB it saves 1.5 µs,
// a third of the put. Below that the saving is too small to be worth a
// second code path through the small-value workloads.
const elemHandoffMin = 64 << 10

// handoff reports whether an element of size bytes changes hands with
// its put-data. It is the only reader of elemHandoffMin.
func handoff(size int) bool { return size >= elemHandoffMin }

// The element free list: buffers a handed-off put-data displaced from a
// register nobody else could see, and elements a conn was given and did
// not keep, waiting for the next large encode. Two sync.Pools of boxes —
// full and empty — so the steady state allocates neither buffers nor
// boxes, and an idle list is the GC's to drop.
//
// cold marks a buffer a register displaced: its bytes were stored by an
// earlier write of its key and the write path has not touched them
// since, so it is out of cache as far as anyone can tell, and the next
// encode fills it with non-temporal stores. Every other buffer — fresh
// from make, or freed by a conn that just sent or refused it — was
// written a moment ago, and a streaming store would only evict it.
type elemBox struct {
	b    []byte
	cold bool
}

var (
	elemFree  sync.Pool // *elemBox holding a free buffer
	elemBoxes sync.Pool // *elemBox holding nothing
)

// testHookPutElem, when non-nil, sees every buffer the free list takes,
// and its cold bit. Test-only: the ownership tests poison the buffer,
// so any second holder reads garbage.
var testHookPutElem func(b []byte, cold bool)

// getElem returns a buffer of size bytes whose contents are undefined,
// and whether it is cold. A free buffer is taken only when size fills
// at least 7/8 of it, so the list can never grow the heap beyond what
// the elements need; one of the wrong size is dropped for the GC.
func getElem(size int) ([]byte, bool) {
	if box, _ := elemFree.Get().(*elemBox); box != nil {
		b, cold := box.b, box.cold
		box.b = nil
		elemBoxes.Put(box)
		if size <= cap(b) && cap(b)-size <= cap(b)/8 {
			return b[:size], cold
		}
	}
	return make([]byte, size), false
}

// putElem gives up b, which the caller must be the only holder of.
// Only b's length changes hands, not spare capacity behind it, and a
// slice below the handoff size is never an element of its own — it is
// a view of a scratch or a frame — so it is ignored.
func putElem(b []byte) { freeElem(b, false) }

// putDisplaced is putElem for the buffer a register just stopped using:
// the one place a buffer is known cold.
func putDisplaced(b []byte) { freeElem(b, true) }

func freeElem(b []byte, cold bool) {
	if !handoff(len(b)) {
		return
	}
	b = b[:len(b):len(b)]
	if testHookPutElem != nil {
		testHookPutElem(b, cold)
	}
	box, _ := elemBoxes.Get().(*elemBox)
	if box == nil {
		box = new(elemBox)
	}
	box.b, box.cold = b, cold
	elemFree.Put(box)
}

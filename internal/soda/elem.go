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
// register nobody else could see, waiting for the next large encode.
// Two sync.Pools of boxes — full and empty — so the steady state
// allocates neither buffers nor boxes, and an idle list is the GC's to
// drop.
type elemBox struct{ b []byte }

var (
	elemFree  sync.Pool // *elemBox holding a free buffer
	elemBoxes sync.Pool // *elemBox holding nothing
)

// testHookPutElem, when non-nil, sees every buffer putElem takes.
// Test-only: the ownership tests poison the buffer, so any second
// holder reads garbage.
var testHookPutElem func([]byte)

// getElem returns a buffer of size bytes whose contents are undefined.
// A free buffer is taken only when size fills at least 7/8 of it, so
// the list can never grow the heap beyond what the elements need; one
// of the wrong size is dropped for the GC.
func getElem(size int) []byte {
	if box, _ := elemFree.Get().(*elemBox); box != nil {
		b := box.b
		box.b = nil
		elemBoxes.Put(box)
		if size <= cap(b) && cap(b)-size <= cap(b)/8 {
			return b[:size]
		}
	}
	return make([]byte, size)
}

// putElem gives up b, which the caller must be the only holder of.
// Only b's length changes hands, not spare capacity behind it, and a
// slice below the handoff size is never an element of its own — it is
// a view of a scratch or a frame — so it is ignored.
func putElem(b []byte) {
	if !handoff(len(b)) {
		return
	}
	b = b[:len(b):len(b)]
	if testHookPutElem != nil {
		testHookPutElem(b)
	}
	box, _ := elemBoxes.Get().(*elemBox)
	if box == nil {
		box = new(elemBox)
	}
	box.b = b
	elemFree.Put(box)
}

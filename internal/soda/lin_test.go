package soda

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Atomicity (linearizability) checking for the MWMR register.
//
// Because every write carries a unique totally-ordered tag and reads
// return the tag they decoded, linearizability of the register
// reduces to four real-time conditions over the recorded history
// (this is the standard argument for tag-based registers, e.g. Lynch,
// "Distributed Algorithms", ch. 13): with "A precedes B" meaning
// A.resp < B.inv,
//
//	W1 precedes W2  =>  tag(W1) < tag(W2)   (writes follow real time)
//	W  precedes R   =>  tag(R) >= tag(W)    (reads see completed writes)
//	R1 precedes R2  =>  tag(R2) >= tag(R1)  (reads do not go back)
//	every read returns the value written at its tag (or the initial
//	value at the zero tag)
//
// Any total order on operations that sorts by tag (writes before the
// reads that return them) is then a legal linearization.

type opRec struct {
	write     bool
	inv, resp uint64
	tag       Tag
	value     string
}

type history struct {
	mu     sync.Mutex
	tick   atomic.Uint64
	ops    []opRec
	maybes map[Tag]string
}

func (h *history) begin() uint64 { return h.tick.Add(1) }

func (h *history) end(write bool, inv uint64, tag Tag, value string) {
	resp := h.tick.Add(1)
	h.mu.Lock()
	h.ops = append(h.ops, opRec{write: write, inv: inv, resp: resp, tag: tag, value: value})
	h.mu.Unlock()
}

// abandoned records a write attempt that minted tag for value but
// failed before its quorum and was retried under a fresh tag. Such a
// half-applied put has no response event — it is concurrent with
// everything after its invocation — so a read MAY legally return its
// tag (with exactly its value), and the real-time write/write and
// write/read orderings do not apply to it. Reads that return it still
// participate in read monotonicity through their tags.
func (h *history) abandoned(tag Tag, value string) {
	h.mu.Lock()
	if h.maybes == nil {
		h.maybes = make(map[Tag]string)
	}
	h.maybes[tag] = value
	h.mu.Unlock()
}

func (h *history) check(t *testing.T) {
	t.Helper()
	written := make(map[Tag]string)
	for _, op := range h.ops {
		if !op.write {
			continue
		}
		if _, dup := written[op.tag]; dup {
			t.Fatalf("two writes under tag %v", op.tag)
		}
		written[op.tag] = op.value
	}
	for _, r := range h.ops {
		if r.write {
			continue
		}
		if r.tag.IsZero() {
			if r.value != "" {
				t.Fatalf("zero-tag read returned %q", r.value)
			}
		} else if want, ok := written[r.tag]; ok {
			if r.value != want {
				t.Fatalf("read at %v returned %q, want %q", r.tag, r.value, want)
			}
		} else if want, ok := h.maybes[r.tag]; ok {
			if r.value != want {
				t.Fatalf("read at abandoned %v returned %q, want %q", r.tag, r.value, want)
			}
		} else {
			t.Fatalf("read returned unwritten tag %v", r.tag)
		}
	}
	for _, a := range h.ops {
		for _, b := range h.ops {
			if a.resp >= b.inv { // a does not precede b
				continue
			}
			switch {
			case a.write && b.write && !a.tag.Less(b.tag):
				t.Fatalf("write order violation: %v (tag %v) precedes %v (tag %v)", a, a.tag, b, b.tag)
			case a.write && !b.write && b.tag.Less(a.tag):
				t.Fatalf("read missed a completed write: write %v precedes read %v", a.tag, b.tag)
			case !a.write && !b.write && b.tag.Less(a.tag):
				t.Fatalf("reads went backwards: %v then %v", a.tag, b.tag)
			}
		}
	}
}

// runLinearizability drives concurrent writers and readers against a
// cluster and checks the recorded history.
// Readers read at rcfg's F and E.
func runLinearizability(t *testing.T, codec *Codec, lb *Loopback, writers, readers, opsEach int, rcfg Config) {
	t.Helper()
	ctx := testCtx(t)
	h := &history{}
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		w := mustWriter(t, fmt.Sprintf("w%d", wi), codec, lb.Conns())
		wg.Add(1)
		go func(wi int, w *Writer) {
			defer wg.Done()
			for j := 0; j < opsEach; j++ {
				value := fmt.Sprintf("w%d-%d", wi, j)
				inv := h.begin()
				tag, err := w.Write(ctx, testKey, []byte(value))
				if err != nil {
					t.Errorf("writer %d: %v", wi, err)
					return
				}
				h.end(true, inv, tag, value)
			}
		}(wi, w)
	}
	for ri := 0; ri < readers; ri++ {
		r := mustReaderOn(t, fmt.Sprintf("r%d", ri), &Config{Codec: codec, Conns: lb.Conns(), F: rcfg.F, E: rcfg.E})
		wg.Add(1)
		go func(ri int, r *Reader) {
			defer wg.Done()
			for j := 0; j < opsEach; j++ {
				inv := h.begin()
				res, err := r.Read(ctx, testKey)
				if err != nil {
					t.Errorf("reader %d: %v", ri, err)
					return
				}
				h.end(false, inv, res.Tag, string(res.Value))
			}
		}(ri, r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	h.check(t)
	wrote := writers * opsEach
	if got := len(h.ops); got != wrote+readers*opsEach {
		t.Fatalf("recorded %d ops", got)
	}
}

// TestLinearizability runs concurrent multi-writer multi-reader
// traffic on the loopback transport and checks atomicity of the
// recorded history.
func TestLinearizability(t *testing.T) {
	codec, lb := newCluster(t, 5, 3)
	runLinearizability(t, codec, lb, 3, 3, 15, Config{F: -1})
}

// TestLinearizabilityWithFault repeats the check with one server
// silently crashed the whole time — the protocol's f=1 budget.
func TestLinearizabilityWithFault(t *testing.T) {
	codec, lb := newCluster(t, 5, 3)
	lb.Hang(3)
	runLinearizability(t, codec, lb, 2, 2, 10, Config{F: -1})
}

// TestLinearizabilityErrReader runs the checker with SODA_err readers
// and a corrupt server: corruption must not be able to break
// atomicity, only show up in the corrupt report.
func TestLinearizabilityErrReader(t *testing.T) {
	codec, lb := newCluster(t, 5, 3)
	lb.Corrupt(1, FlipByte(0))
	runLinearizability(t, codec, lb, 2, 2, 10, Config{F: 0, E: 1})
}

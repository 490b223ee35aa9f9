package soda

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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
	// The real-time rules, each checked against the largest tag of its
	// kind among the operations that precede b (responded before b was
	// invoked): ops sorted by response, with running maxima, so a long
	// soak's history is checked in O(n log n), not pair by pair.
	byResp := slices.Clone(h.ops)
	slices.SortFunc(byResp, func(a, b opRec) int { return cmp.Compare(a.resp, b.resp) })
	maxW := make([]int, len(byResp)) // index of the largest write tag in byResp[:i+1], or -1
	maxR := make([]int, len(byResp)) // the same for reads
	for i, op := range byResp {
		w, r := -1, -1
		if i > 0 {
			w, r = maxW[i-1], maxR[i-1]
		}
		if op.write && (w < 0 || byResp[w].tag.Less(op.tag)) {
			w = i
		} else if !op.write && (r < 0 || byResp[r].tag.Less(op.tag)) {
			r = i
		}
		maxW[i], maxR[i] = w, r
	}
	for _, b := range h.ops {
		n, _ := slices.BinarySearchFunc(byResp, b.inv, func(a opRec, inv uint64) int { return cmp.Compare(a.resp, inv) })
		if n == 0 {
			continue // nothing precedes b
		}
		if w := maxW[n-1]; w >= 0 {
			a := byResp[w]
			switch {
			case b.write && !a.tag.Less(b.tag):
				t.Fatalf("write order violation: %v (tag %v) precedes %v (tag %v)", a, a.tag, b, b.tag)
			case !b.write && b.tag.Less(a.tag):
				t.Fatalf("read missed a completed write: write %v precedes read %v", a.tag, b.tag)
			}
		}
		if r := maxR[n-1]; r >= 0 && !b.write && b.tag.Less(byResp[r].tag) {
			t.Fatalf("reads went backwards: %v then %v", byResp[r].tag, b.tag)
		}
	}
}

// traffic runs ws and rs concurrently — writer wi's op j on
// keys[(wi+j)%len(keys)], reader ri's on keys[(3ri+j)%len(keys)] — with
// every op recorded in its key's history, for as long as more(j) holds
// before op j. wait returns once every client has stopped.
func traffic(t *testing.T, ctx context.Context, ws []*Writer, rs []*Reader, keys []string, more func(j int) bool) (hs map[string]*history, wait func()) {
	hs = make(map[string]*history, len(keys))
	for _, key := range keys {
		hs[key] = &history{}
	}
	var wg sync.WaitGroup
	for wi, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; more(j); j++ {
				key := keys[(wi+j)%len(keys)]
				value := fmt.Sprintf("%s=w%d-%d", key, wi, j)
				inv := hs[key].begin()
				tag, err := w.Write(ctx, key, []byte(value))
				if err != nil {
					t.Errorf("writer %d op %d on %s: %v", wi, j, key, err)
					return
				}
				hs[key].end(true, inv, tag, value)
			}
		}()
	}
	for ri, r := range rs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; more(j); j++ {
				key := keys[(ri*3+j)%len(keys)]
				inv := hs[key].begin()
				res, err := r.Read(ctx, key)
				if err != nil {
					t.Errorf("reader %d op %d on %s: %v", ri, j, key, err)
					return
				}
				hs[key].end(false, inv, res.Tag, string(res.Value))
			}
		}()
	}
	return hs, wg.Wait
}

// runLinearizability drives concurrent writers and readers against a
// cluster and checks the recorded history.
// Readers read at rcfg's F and E.
func runLinearizability(t *testing.T, c *cluster, writers, readers, opsEach int, rcfg Config) {
	t.Helper()
	ws, rs := make([]*Writer, writers), make([]*Reader, readers)
	for i := range ws {
		ws[i] = mustWriter(t, fmt.Sprintf("w%d", i), c.codec, c.conns())
	}
	for i := range rs {
		rs[i] = mustReaderOn(t, fmt.Sprintf("r%d", i), &Config{Codec: c.codec, Conns: c.conns(), F: rcfg.F, E: rcfg.E})
	}
	hs, wait := traffic(t, testCtx(t), ws, rs, []string{testKey}, func(j int) bool { return j < opsEach })
	wait()
	if t.Failed() {
		return
	}
	h := hs[testKey]
	h.check(t)
	if got := len(h.ops); got != (writers+readers)*opsEach {
		t.Fatalf("recorded %d ops", got)
	}
}

// TestLinearizability runs concurrent multi-writer multi-reader
// traffic and checks atomicity of the recorded history.
func TestLinearizability(t *testing.T) {
	forRows(t, 0, func(t *testing.T, r row) {
		runLinearizability(t, r.cluster(t, 5, 3), 3, 3, 15, Config{F: -1})
	})
}

// TestLinearizabilityWithFault repeats the check with one server
// silently crashed the whole time — the protocol's f=1 budget.
func TestLinearizabilityWithFault(t *testing.T) {
	forRows(t, hang, func(t *testing.T, r row) {
		c := r.cluster(t, 5, 3)
		c.hang(3)
		runLinearizability(t, c, 2, 2, 10, Config{F: -1})
	})
}

// TestLinearizabilityErrReader runs the checker with SODA_err readers
// and a corrupt server: corruption must not be able to break
// atomicity, only show up in the corrupt report.
func TestLinearizabilityErrReader(t *testing.T) {
	forRows(t, corrupt, func(t *testing.T, r row) {
		c := r.cluster(t, 5, 3)
		c.corrupt(1, FlipByte(0))
		runLinearizability(t, c, 2, 2, 10, Config{F: 0, E: 1})
	})
}

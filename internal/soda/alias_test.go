package soda

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The aliasing rules of the one-buffer-per-register store (see
// register.store): a put copies into the register's existing buffer
// unless someone may still be reading it. These tests pin both halves —
// the copy really is in place, and nothing handed out is ever written.

// elemFor is the self-describing element the aliasing tests put under
// timestamp ts: every byte depends on ts, so a torn overwrite cannot
// match any single tag.
func elemFor(ts uint64, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(ts) ^ byte(ts>>8) ^ byte(i*31)
	}
	return b
}

// held is one element a reader was handed, with the bytes it had then.
type held struct {
	live, want []byte
}

// TestDeliveredBytesNeverChange hands a registered reader its initial
// element and a relay by reference, then puts 1 000 more elements of
// the same size to the key: what the reader holds must stay
// byte-identical while it is registered, and after an epoch flip or a
// crash-style dropAll force-dropped the registration.
func TestDeliveredBytesNeverChange(t *testing.T) {
	const size = 4 << 10
	drops := []struct {
		name string
		drop func(s *Server)
	}{
		{"registered", func(*Server) {}},
		{"epoch-flip", func(s *Server) { s.Reconfig(ReconfigSeal, 1, 5, 3) }},
		{"unregister-all", func(s *Server) { s.dropAll(ErrServerDown) }},
	}
	for _, tc := range drops {
		t.Run(tc.name, func(t *testing.T) {
			checkNoLeaks(t)
			s := NewServer(0)
			s.PutData(testKey, Tag{TS: 1, Writer: "w"}, elemFor(1, size), size)
			var got []held
			sink := func(d Delivery) {
				got = append(got, held{live: d.Elem, want: bytes.Clone(d.Elem)})
			}
			sink(s.Register(testKey, "r", sink))
			s.PutData(testKey, Tag{TS: 2, Writer: "w"}, elemFor(2, size), size)
			if len(got) != 2 {
				t.Fatalf("reader holds %d deliveries, want initial + relay", len(got))
			}
			tc.drop(s)
			if tc.name != "registered" && s.readerCount(testKey) != 0 {
				t.Fatal("the registration survived the force-drop")
			}
			for ts := uint64(3); ts < 1003; ts++ {
				s.PutData(testKey, Tag{TS: ts, Writer: "w"}, elemFor(ts, size), size)
			}
			for i, h := range got {
				if !bytes.Equal(h.live, h.want) {
					t.Fatalf("delivery %d was overwritten after it was handed out", i)
				}
			}
			if tag, elem, _ := s.Snapshot(testKey); tag.TS != 1002 || !bytes.Equal(elem, elemFor(1002, size)) {
				t.Fatalf("server holds tag %v with wrong bytes", tag)
			}
		})
	}
}

// TestPutDataInPlaceAllocs pins the steady state: a put to an existing
// key with nobody registered allocates nothing, and a live registration
// makes every put install a fresh buffer.
func TestPutDataInPlaceAllocs(t *testing.T) {
	const size = 4 << 10
	s := NewServer(0)
	elem := elemFor(7, size)
	ts := uint64(0)
	put := func() {
		ts++
		s.PutData(testKey, Tag{TS: ts, Writer: "w"}, elem, size)
	}
	put()
	if n := testing.AllocsPerRun(100, put); n != 0 {
		t.Fatalf("PutData on an existing key with no registration: %v allocs/op, want 0", n)
	}
	s.Register(testKey, "r", func(Delivery) {})
	if n := testing.AllocsPerRun(100, put); n < 1 {
		t.Fatalf("PutData under a live registration: %v allocs/op, want >= 1 (fresh buffer)", n)
	}
	s.Unregister(testKey, "r")
	put() // the last relayed buffer is still lent; this put replaces it
	if n := testing.AllocsPerRun(100, put); n != 0 {
		t.Fatalf("PutData after the reader left: %v allocs/op, want 0", n)
	}
}

// raceGetElem runs GetElem against a stream of same-size puts to one
// key: every element returned must be exactly the one written under
// the tag it came back with, never a mix of two puts.
func raceGetElem(t *testing.T, c Conn) {
	t.Helper()
	ctx := testCtx(t)
	const size, puts = 16 << 10, 400
	if err := c.PutData(ctx, testKey, Tag{TS: 1, Writer: "w"}, elemFor(1, size), size); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var done atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for ts := uint64(2); ts <= puts; ts++ {
			if err := c.PutData(ctx, testKey, Tag{TS: ts, Writer: "w"}, elemFor(ts, size), size); err != nil {
				t.Errorf("put %d: %v", ts, err)
				return
			}
		}
	}()
	for i := 0; !done.Load() || i < 10; i++ {
		tag, elem, vlen, err := c.GetElem(ctx, testKey)
		if err != nil {
			t.Fatalf("GetElem: %v", err)
		}
		if want := elemFor(tag.TS, size); vlen != size || crc32.ChecksumIEEE(elem) != crc32.ChecksumIEEE(want) {
			t.Fatalf("GetElem returned tag %v with bytes that are not that tag's element", tag)
		}
	}
	wg.Wait()
}

func TestGetElemRacingPutsLoopback(t *testing.T) {
	checkNoLeaks(t)
	raceGetElem(t, NewLoopback(1).Conns()[0])
}

func TestGetElemRacingPutsMux(t *testing.T) {
	checkNoLeaks(t)
	addrs, _ := startTCPServers(t, 1)
	c := testMuxConn(0, addrs[0])
	defer c.Close()
	raceGetElem(t, c)
}

// decodeValueRef is the make-and-copy DecodeValue the joined version
// replaced, kept as the equivalence reference.
func decodeValueRef(shards [][]byte, k, vlen int) []byte {
	s := (vlen + k - 1) / k
	out := make([]byte, k*s)
	for i := 0; i < k; i++ {
		copy(out[i*s:], shards[i])
	}
	return out[:vlen]
}

// TestDecodeEquivalence checks the garbage-free decode paths against
// the old results: DecodeValue on complete data shards, and the
// degraded decode with each data shard missing in turn (and as many
// parity shards dropped as the code allows), which must also leave the
// elements it was given untouched.
func TestDecodeEquivalence(t *testing.T) {
	const n, k = 5, 3
	codec, err := NewCodec(n, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for _, vlen := range []int{1, k - 1, k, k + 1, 128, 1 << 20} {
		value := make([]byte, vlen)
		rng.Read(value)
		shards, err := codec.EncodeValue(value)
		if err != nil {
			t.Fatal(err)
		}
		got, err := codec.DecodeValue(shards, vlen)
		if err != nil || !bytes.Equal(got, decodeValueRef(shards, k, vlen)) || !bytes.Equal(got, value) {
			t.Fatalf("vlen %d: DecodeValue differs from the make-and-copy result (err %v)", vlen, err)
		}
		for miss := 0; miss < k; miss++ {
			for _, dropParity := range []int{-1, k, n - 1} {
				elems := make([][]byte, n)
				copy(elems, shards)
				elems[miss] = nil
				if dropParity >= 0 {
					elems[dropParity] = nil
				}
				before, ref := make([][]byte, n), make([][]byte, n)
				for i, el := range elems {
					before[i], ref[i] = bytes.Clone(el), bytes.Clone(el)
				}
				ref[miss] = make([]byte, 0, len(shards[0]))
				if err := codec.enc.ReconstructInto(ref); err != nil {
					t.Fatal(err)
				}
				got, err := codec.decodeDegraded(elems, vlen)
				if err != nil || !bytes.Equal(got, decodeValueRef(ref, k, vlen)) || !bytes.Equal(got, value) {
					t.Fatalf("vlen %d, data shard %d missing (parity drop %d): degraded decode differs (err %v)", vlen, miss, dropParity, err)
				}
				for i := range elems {
					if !bytes.Equal(elems[i], before[i]) || (elems[i] == nil) != (before[i] == nil) {
						t.Fatalf("vlen %d: degraded decode wrote element %d", vlen, i)
					}
				}
			}
		}
	}
}

// slowTagConn delays GetTag on one server until released, so that
// server's write leg is still in its first phase when Write returns.
type slowTagConn struct {
	Conn
	release chan struct{}
}

func (c *slowTagConn) GetTag(ctx context.Context, key string) (Tag, error) {
	<-c.release
	return c.Conn.GetTag(ctx, key)
}

// TestStragglerLegStillPutsData pins the write leg's promise: a server
// whose get-tag answers only after the write completed (its context
// already cancelled, the minted tag already waiting) still receives
// the element. Before the fix the leg chose between the two ready
// channels at random and dropped the element about half the time.
func TestStragglerLegStillPutsData(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	const slow = 4
	for i := 0; i < 200; i++ {
		conns := lb.Conns()
		sc := &slowTagConn{Conn: conns[slow], release: make(chan struct{})}
		conns[slow] = sc
		w := mustWriter(t, "w", codec, conns)
		tag, err := w.Write(ctx, testKey, []byte(fmt.Sprintf("value-%d", i)))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		close(sc.release)
		deadline := time.Now().Add(5 * time.Second)
		for lb.Server(slow).GetTag(testKey) != tag {
			if time.Now().After(deadline) {
				t.Fatalf("write %d: straggler server holds %v, want %v: the leg dropped its element",
					i, lb.Server(slow).GetTag(testKey), tag)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// TestMuxOversizeFrameFailsOnlyItsExchange pins the blast radius of a
// frame the client refuses to send: the 17 MiB put fails with ErrFrame
// before a byte is written, and everything else multiplexed on the
// connection — here concurrent get-tags — carries on over the same
// session.
func TestMuxOversizeFrameFailsOnlyItsExchange(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	addrs, servers := startTCPServers(t, 1)
	c := testMuxConn(0, addrs[0])
	defer c.Close()
	if _, err := c.GetTag(ctx, testKey); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	sess := c.sess
	c.mu.Unlock()

	var wg sync.WaitGroup
	var stop atomic.Bool
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := c.GetTag(ctx, testKey); err != nil {
					t.Errorf("concurrent GetTag failed: %v", err)
					return
				}
			}
		}()
	}
	huge := make([]byte, 17<<20)
	for i := 0; i < 3; i++ {
		err := c.PutData(ctx, testKey, Tag{TS: 1, Writer: "w"}, huge, len(huge))
		if !errors.Is(err, ErrFrame) {
			t.Errorf("17 MiB PutData = %v, want ErrFrame", err)
		}
	}
	stop.Store(true)
	wg.Wait()
	c.mu.Lock()
	same := c.sess == sess
	c.mu.Unlock()
	if !same {
		t.Fatal("the oversize put tore the session down")
	}
	if n := servers[0].numConns(); n != 1 {
		t.Fatalf("server sees %d connections, want 1", n)
	}
}

// TestReadsRaceInPlaceWrites runs readers — some of them abandoning
// their reads on short deadlines — against writers overwriting the same
// keys in place on a loopback cluster. Every value a read returns must
// be one whole written value (CRC-stamped); under -race this is also
// the proof that no server writes a buffer a reader can still see.
func TestReadsRaceInPlaceWrites(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	const size, keys, opsEach = 24 << 10, 2, 60
	stamp := func(seq uint32, wi int) []byte {
		v := elemFor(uint64(seq)<<8|uint64(wi), size)
		sum := crc32.ChecksumIEEE(v[4:])
		v[0], v[1], v[2], v[3] = byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum)
		return v
	}
	whole := func(v []byte) bool {
		sum := crc32.ChecksumIEEE(v[4:])
		return len(v) == size && v[0] == byte(sum>>24) && v[1] == byte(sum>>16) && v[2] == byte(sum>>8) && v[3] == byte(sum)
	}
	var wg sync.WaitGroup
	for wi := 0; wi < 2; wi++ {
		w := mustWriter(t, fmt.Sprintf("w%d", wi), codec, lb.Conns())
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for j := 0; j < opsEach; j++ {
				if _, err := w.Write(ctx, fmt.Sprintf("k%d", j%keys), stamp(uint32(j), wi)); err != nil {
					t.Errorf("writer %d: %v", wi, err)
					return
				}
			}
		}(wi)
	}
	for ri := 0; ri < 3; ri++ {
		r := mustReader(t, fmt.Sprintf("r%d", ri), codec, lb.Conns())
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ri)))
			for j := 0; j < opsEach; j++ {
				rctx, cancel := ctx, context.CancelFunc(func() {})
				if ri > 0 { // readers 1 and 2 walk away mid-read
					rctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
				}
				res, err := r.Read(rctx, fmt.Sprintf("k%d", j%keys))
				cancel()
				if err != nil {
					if ri > 0 && errors.Is(err, context.DeadlineExceeded) {
						continue
					}
					t.Errorf("reader %d: %v", ri, err)
					return
				}
				if !res.Tag.IsZero() && !whole(res.Value) {
					t.Errorf("reader %d: read of tag %v returned a torn value", ri, res.Tag)
					return
				}
			}
		}(ri)
	}
	wg.Wait()
}

// The ownership rules of a handed-off put-data (see handoff): an elem
// of elemHandoffMin bytes or more is the conn's from the PutData call
// on, a loopback server installs it as the register by pointer swap,
// and the buffer the swap displaces is recycled iff nobody else can see
// it. The tests below run with every recycled buffer poisoned, so a
// second holder of one reads garbage instead of plausible bytes.

// freedElems is what the poison hook saw: one entry per freed buffer,
// with the cold bit it was freed under.
type freedElems struct {
	mu   sync.Mutex
	ptr  []*byte
	cold []bool
	ch   chan struct{} // one token per free, for tests that wait on one
}

// poisonFreedElems installs the putElem hook for the calling test:
// every freed buffer is filled with 0xDB and recorded.
func poisonFreedElems(t *testing.T) *freedElems {
	t.Helper()
	f := &freedElems{ch: make(chan struct{}, 1<<16)} // far more tokens than any test frees
	testHookPutElem = func(b []byte, cold bool) {
		for i := range b {
			b[i] = 0xDB
		}
		f.mu.Lock()
		f.ptr = append(f.ptr, &b[0])
		f.cold = append(f.cold, cold)
		f.mu.Unlock()
		select {
		case f.ch <- struct{}{}:
		default:
		}
	}
	t.Cleanup(func() { testHookPutElem = nil })
	return f
}

// times reports how often the buffer starting at id was freed. Tests
// take id before they hand the buffer over: afterwards it is not theirs
// to name (sodavet's poolsafe holds them to that).
func (f *freedElems) times(id *byte) (n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range f.ptr {
		if p == id {
			n++
		}
	}
	return n
}

func (f *freedElems) total() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ptr)
}

// colds reports how many buffers were freed cold. Only a register's
// displaced buffer may be: whatever a conn or a leg frees was written a
// moment ago.
func (f *freedElems) colds() (n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.cold {
		if c {
			n++
		}
	}
	return n
}

// await blocks until n buffers in all have been freed.
func (f *freedElems) await(t *testing.T, n int) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for f.total() < n {
		select {
		case <-f.ch:
		case <-timeout:
			t.Fatalf("%d buffers freed, want %d", f.total(), n)
		}
	}
}

// TestOwnedPutWithReader walks one register through the owned-put
// lifecycle on a loopback conn: while a reader is registered every
// delivery it holds keeps its bytes and no displaced buffer is
// recycled; the relay leaves the buffer lent, so the first put after
// the reader left still recycles nothing; from then on each put
// recycles exactly the buffer it displaced.
func TestOwnedPutWithReader(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	freed := poisonFreedElems(t)
	const size = elemHandoffMin
	lb := NewLoopback(1)
	c, s := lb.Conns()[0], lb.Server(0)
	elems := make([][]byte, 8)
	put := func(ts uint64) {
		t.Helper()
		elems[ts] = elemFor(ts, size)
		if err := c.PutData(ctx, testKey, Tag{TS: ts, Writer: "w"}, elems[ts], size); err != nil {
			t.Fatal(err)
		}
	}
	put(1)
	var got []held
	sink := func(d Delivery) { got = append(got, held{live: d.Elem, want: bytes.Clone(d.Elem)}) }
	sink(s.Register(testKey, "r", sink))
	put(2)
	put(3)
	if len(got) != 3 || &got[2].live[0] != &elems[3][0] {
		t.Fatalf("reader holds %d deliveries; the relay must be the handed-off buffer itself", len(got))
	}
	if n := freed.total(); n != 0 {
		t.Fatalf("%d buffers recycled under a live registration", n)
	}
	s.Unregister(testKey, "r")
	put(4) // elems[3] went out on a relay: lent, not recycled
	if n := freed.total(); n != 0 {
		t.Fatalf("the lent buffer was recycled (%d frees)", n)
	}
	put(5)
	put(6)
	if freed.times(&elems[4][0]) != 1 || freed.times(&elems[5][0]) != 1 || freed.total() != 2 {
		t.Fatalf("after the reader left: %d frees, want exactly the two displaced buffers once each", freed.total())
	}
	if n := freed.colds(); n != 2 {
		t.Fatalf("%d of the two displaced buffers were freed cold", n)
	}
	for i, h := range got {
		if !bytes.Equal(h.live, h.want) {
			t.Fatalf("delivery %d changed after it was handed out", i)
		}
	}
	if tag, elem, _ := s.Snapshot(testKey); tag.TS != 6 || &elem[0] != &elems[6][0] || !bytes.Equal(elem, elemFor(6, size)) {
		t.Fatalf("server holds tag %v; want the sixth buffer itself, intact", tag)
	}
}

// TestOwnedPutStaleTag: an owned put below the register's tag is freed
// when nobody wants it and relayed as it is — no clone, no free — when a
// registered reader does; the register never moves.
func TestOwnedPutStaleTag(t *testing.T) {
	ctx := testCtx(t)
	freed := poisonFreedElems(t)
	const size = elemHandoffMin
	lb := NewLoopback(1)
	c, s := lb.Conns()[0], lb.Server(0)
	put := func(ts uint64) (id *byte) {
		t.Helper()
		elem := elemFor(ts, size)
		id = &elem[0]
		if err := c.PutData(ctx, testKey, Tag{TS: ts, Writer: "w"}, elem, size); err != nil {
			t.Fatal(err)
		}
		return id
	}
	put(9)
	stale := put(5)
	if freed.times(stale) != 1 || freed.total() != 1 || freed.colds() != 0 {
		t.Fatalf("stale put with no reader: %d frees of it, %d in all, %d cold, want 1, 1 and 0", freed.times(stale), freed.total(), freed.colds())
	}

	// A reader registered at treq 3 still wants tag 5 after the server has
	// moved to 9.
	lb = NewLoopback(1)
	c, s = lb.Conns()[0], lb.Server(0)
	s.PutData(testKey, Tag{TS: 3, Writer: "w"}, elemFor(3, size), size)
	var relayed []Delivery
	s.Register(testKey, "r", func(d Delivery) { relayed = append(relayed, d) })
	newest := put(9)
	stale = put(5)
	if len(relayed) != 2 || relayed[1].Tag.TS != 5 || &relayed[1].Elem[0] != stale {
		t.Fatalf("stale put with a reader: %d relays; want the rejected buffer itself relayed", len(relayed))
	}
	if freed.times(stale) != 0 || !bytes.Equal(relayed[1].Elem, elemFor(5, size)) {
		t.Fatal("the relayed stale buffer was recycled")
	}
	if tag, elem, _ := s.Snapshot(testKey); tag.TS != 9 || &elem[0] != newest {
		t.Fatalf("a stale put moved the register to %v", tag)
	}
	s.Unregister(testKey, "r")
}

// TestOwnedPutRefusedFreesOnce: a conn that cannot deliver a handed-off
// elem — crashed, hung until the context ends, behind a stale epoch,
// or a mux conn with nobody listening — frees it exactly once, and a
// mux conn that did deliver frees it once its exchange is over, after
// the server copied it out of the frame.
func TestOwnedPutRefusedFreesOnce(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	freed := poisonFreedElems(t)
	const size = elemHandoffMin
	tag := Tag{TS: 1, Writer: "w"}
	lb := NewLoopback(3)
	conns := lb.Conns()
	lb.Crash(0)
	lb.hang(1)
	lb.Server(2).Reconfig(ReconfigSeal, 1, 5, 3)
	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	for i, want := range []error{ErrServerDown, context.DeadlineExceeded, ErrStaleEpoch} {
		elem := elemFor(1, size)
		id := &elem[0]
		if err := conns[i].PutData(short, testKey, tag, elem, size); !errors.Is(err, want) {
			t.Fatalf("conn %d: PutData = %v, want %v", i, err, want)
		}
		if n := freed.times(id); n != 1 {
			t.Fatalf("conn %d (%v): elem freed %d times, want 1", i, want, n)
		}
		if _, stored, _ := lb.Server(i).Snapshot(testKey); stored != nil {
			t.Fatalf("conn %d stored the refused elem", i)
		}
	}

	addrs, servers := startTCPServers(t, 1)
	mc := testMuxConn(0, addrs[0])
	defer mc.Close()
	elem := elemFor(2, size)
	id := &elem[0]
	if err := mc.PutData(ctx, testKey, tag, elem, size); err != nil {
		t.Fatal(err)
	}
	if n := freed.times(id); n != 1 {
		t.Fatalf("mux: delivered elem freed %d times, want 1", n)
	}
	if _, stored, _ := servers[0].core.Snapshot(testKey); !bytes.Equal(stored, elemFor(2, size)) {
		t.Fatal("mux: the server does not hold the bytes that were sent")
	}
	dead := testMuxConn(0, "127.0.0.1:1", withDialRetry(1, backoff{}))
	defer dead.Close()
	elem = elemFor(3, size)
	id = &elem[0]
	if err := dead.PutData(short, testKey, tag, elem, size); err == nil {
		t.Fatal("PutData to a dead address succeeded")
	}
	if n := freed.times(id); n != 1 {
		t.Fatalf("mux: unsent elem freed %d times, want 1", n)
	}
	if n := freed.colds(); n != 0 {
		t.Fatalf("%d refused or sent elems were freed cold: only a displaced buffer is", n)
	}
}

// TestUnsentLegsFreeTheirElements: a write whose context ends before
// the tag is minted never calls PutData, so every leg gives its element
// back itself — n frees, no more — and so does Write for the servers a
// membership view excluded before any leg ran.
func TestUnsentLegsFreeTheirElements(t *testing.T) {
	checkNoLeaks(t)
	freed := poisonFreedElems(t)
	codec, lb := newCluster(t, 5, 3)
	value := make([]byte, 3*elemHandoffMin)
	release := make(chan struct{})
	conns := lb.Conns()
	for i := range conns {
		conns[i] = &slowTagConn{Conn: conns[i], release: release}
	}
	w := mustWriter(t, "w", codec, conns)
	ctx, cancel := context.WithCancel(testCtx(t))
	errc := make(chan error, 1)
	go func() {
		_, err := w.Write(ctx, testKey, value)
		errc <- err
	}()
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Write = %v, want context.Canceled", err)
	}
	close(release)
	freed.await(t, 5)

	m := NewMembership(5)
	m.MarkSuspect(4, errors.New("test"))
	w = mustWriterOn(t, "w2", &Config{Codec: codec, Conns: lb.Conns(), F: -1, Membership: m})
	if _, err := w.Write(testCtx(t), testKey, value); err != nil {
		t.Fatal(err)
	}
	// Write frees the excluded server's element before any leg runs, and
	// nothing was displaced: the four registers were empty.
	if n := freed.total(); n != 6 || freed.colds() != 0 {
		t.Fatalf("%d frees, %d cold, want 6 and 0: five unsent legs and one excluded server", n, freed.colds())
	}
	if _, elem, _ := lb.Server(4).Snapshot(testKey); elem != nil {
		t.Fatal("the excluded server was written")
	}
}

// TestHandoffForkStoresSameState writes values whose elements sit on
// both sides of elemHandoffMin: each server must end up holding exactly
// the codec's element either way, the small side never touches the free
// list, and an overwrite on the large side recycles what it displaced.
func TestHandoffForkStoresSameState(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	freed := poisonFreedElems(t)
	const n, k = 5, 3
	for _, elemSize := range []int{elemHandoffMin - 1, elemHandoffMin} {
		codec, lb := newCluster(t, n, k)
		w := mustWriterOn(t, "w", &Config{Codec: codec, Conns: lb.Conns(), F: 0})
		before := freed.total()
		for round := 0; round < 3; round++ {
			value := elemFor(uint64(round), k*elemSize-1) // last data shard zero-padded by one byte
			want, err := codec.EncodeValue(value)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(ctx, testKey, value); err != nil {
				t.Fatal(err)
			}
			clear(value) // the caller's buffer is the caller's again
			for i := 0; i < n; i++ {
				if _, elem, vlen := lb.Server(i).Snapshot(testKey); vlen != len(value) || !bytes.Equal(elem, want[i]) {
					t.Fatalf("element size %d, round %d: server %d does not hold the codec's element", elemSize, round, i)
				}
			}
		}
		wantFrees := 0
		if handoff(elemSize) {
			wantFrees = 2 * n // rounds 1 and 2 displace n buffers each
		}
		if got := freed.total() - before; got != wantFrees || freed.colds() != freed.total() {
			t.Fatalf("element size %d: %d buffers recycled, want %d; %d of %d in all cold, want every one", elemSize, got, wantFrees, freed.colds(), freed.total())
		}
	}
}

// TestEncodeOwnedMatchesEncodeValue: whatever mix of cold and fresh
// buffers the free list hands the large-value encode — so whichever of
// the streaming and plain stores fill them — the n elements are
// Codec.EncodeValue's, byte for byte, dirty buffers notwithstanding.
// Lengths: 1 MiB (the last data element zero-padded by two), a multiple
// of k, and both sides of the element size where handoff begins.
func TestEncodeOwnedMatchesEncodeValue(t *testing.T) {
	const n, k = 5, 3
	codec, err := NewCodec(n, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, vlen := range []int{1 << 20, k * 100000, k*elemHandoffMin - 1, k * elemHandoffMin, k*elemHandoffMin + 1} {
		value := elemFor(uint64(vlen), vlen)
		orig := bytes.Clone(value)
		want, err := codec.EncodeValue(value)
		if err != nil {
			t.Fatal(err)
		}
		s := codec.shardSize(vlen)
		if !handoff(s) {
			t.Fatalf("vlen %d: elements of %d bytes do not take the path under test", vlen, s)
		}
		for name, cold := range map[string][]bool{
			"all cold":  {true, true, true, true, true},
			"all fresh": {false, false, false, false, false},
			"mixed":     {true, false, true, false, true},
			"mixed'":    {false, true, false, true, false},
		} {
			sc := &encodeScratch{shards: make([][]byte, n), cold: cold}
			for i := range sc.shards {
				sc.shards[i] = bytes.Repeat([]byte{0xDB}, s)
			}
			if err := codec.encodeElems(value, sc, s); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !bytes.Equal(sc.shards[i], want[i]) {
					t.Errorf("vlen %d, %s buffers: element %d differs from EncodeValue's", vlen, name, i)
				}
			}
			for _, in := range sc.inputs {
				if in != nil {
					t.Errorf("vlen %d: the scratch still holds a view of the value", vlen)
				}
			}
		}
		if !bytes.Equal(value, orig) {
			t.Errorf("vlen %d: the encode wrote the caller's value", vlen)
		}
	}

	// The fork itself, one element size down: no free-list buffer.
	sc := &encodeScratch{}
	value := elemFor(7, k*elemHandoffMin-k)
	want, _ := codec.EncodeValue(value)
	if err := codec.encodeValueInto(value, sc); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(sc.shards[i], want[i]) {
			t.Errorf("element %d of the copy path differs from EncodeValue's", i)
		}
	}
}

// TestElemFreeListKeepsTheColdBit: a buffer comes back from the free
// list with the bit it was freed under; a fresh one is never cold.
func TestElemFreeListKeepsTheColdBit(t *testing.T) {
	if b, cold := getElem(3 * elemHandoffMin); cold || len(b) != 3*elemHandoffMin {
		t.Fatalf("a fresh buffer: len %d, cold %v", len(b), cold)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its puts under -race")
	}
	// A size of its own, so nothing another test left behind fits.
	const size = 5*elemHandoffMin + 64
	for _, want := range []bool{true, false, true} {
		b := make([]byte, size)
		id := &b[0]
		freeElem(b, want)
		got, cold := getElem(size - 1)
		if &got[0] != id {
			t.Skip("the goroutine moved to another P between put and get")
		}
		if cold != want || len(got) != size-1 {
			t.Fatalf("freed with cold=%v, came back len %d cold=%v", want, len(got), cold)
		}
		putElem(got[:size-1])
		if got, cold := getElem(size - 1); &got[0] == id && cold {
			t.Fatal("a buffer a conn freed came back cold")
		}
	}
}

// TestStragglerLegOwnsItsElement: the leg still in its get-tag when
// Write returns holds an element that is its own, not a view of
// anything the next write reuses. The caller overwrites its value and
// writes other keys before the straggler is released; the slow server
// must still receive the first write's element, byte for byte.
func TestStragglerLegOwnsItsElement(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	poisonFreedElems(t)
	codec, lb := newCluster(t, 5, 3)
	const slow = 4
	conns := lb.Conns()
	sc := &slowTagConn{Conn: conns[slow], release: make(chan struct{})}
	conns[slow] = sc
	w := mustWriter(t, "w", codec, conns)
	value := elemFor(1, 1<<20)
	want, err := codec.EncodeValue(value)
	if err != nil {
		t.Fatal(err)
	}
	tag, err := w.Write(ctx, testKey, value)
	if err != nil {
		t.Fatal(err)
	}
	other := mustWriter(t, "w2", codec, lb.Conns())
	for i := 0; i < 4; i++ {
		copy(value, elemFor(uint64(2+i), 1<<20))
		if _, err := other.Write(ctx, fmt.Sprintf("other-%d", i), value); err != nil {
			t.Fatal(err)
		}
	}
	close(sc.release)
	deadline := time.Now().Add(5 * time.Second)
	for lb.Server(slow).GetTag(testKey) != tag {
		if time.Now().After(deadline) {
			t.Fatal("the straggler's element never arrived")
		}
		time.Sleep(50 * time.Microsecond)
	}
	if _, elem, _ := lb.Server(slow).Snapshot(testKey); !bytes.Equal(elem, want[slow]) {
		t.Fatal("the straggler delivered bytes that are not the first write's element")
	}
}

// TestLargeSameKeySoak is the benchmark's loop-large shape squeezed onto
// one key: two writers and two readers, 1 MiB values carrying writer,
// sequence and a CRC of the body, each writer refilling its one value
// buffer the instant Write returns. With recycled buffers poisoned, any
// buffer that ever had two owners shows up as a failed CRC here or as a
// report from the race detector.
func TestLargeSameKeySoak(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	poisonFreedElems(t)
	codec, lb := newCluster(t, 5, 3)
	const size, opsEach = 1 << 20, 40
	fill := func(v []byte, writer, seq uint32) {
		stamp := uint64(writer)<<32 | uint64(seq)
		body := v[12:]
		for i := 0; i < 3; i++ {
			binary.LittleEndian.PutUint64(body[i*(len(body)/3):], stamp)
		}
		binary.LittleEndian.PutUint32(v[0:], writer)
		binary.LittleEndian.PutUint32(v[4:], seq)
		binary.LittleEndian.PutUint32(v[8:], crc32.ChecksumIEEE(body))
	}
	var wg sync.WaitGroup
	var writing atomic.Int32
	for wi := uint32(0); wi < 2; wi++ {
		w := mustWriter(t, fmt.Sprintf("w%d", wi), codec, lb.Conns())
		writing.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer writing.Add(-1)
			v := elemFor(uint64(wi), size)
			for seq := uint32(0); seq < opsEach; seq++ {
				fill(v, wi, seq)
				if _, err := w.Write(ctx, testKey, v); err != nil {
					t.Errorf("writer %d: %v", wi, err)
					return
				}
			}
		}()
	}
	for ri := 0; ri < 2; ri++ {
		r := mustReader(t, fmt.Sprintf("r%d", ri), codec, lb.Conns())
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := [2]int64{-1, -1}
			for writing.Load() > 0 {
				res, err := r.Read(ctx, testKey)
				if err != nil {
					t.Errorf("reader %d: %v", ri, err)
					return
				}
				if res.Tag.IsZero() {
					continue
				}
				v := res.Value
				if len(v) != size || binary.LittleEndian.Uint32(v[8:]) != crc32.ChecksumIEEE(v[12:]) {
					t.Errorf("reader %d: tag %v returned a value that fails its CRC", ri, res.Tag)
					return
				}
				wi, seq := binary.LittleEndian.Uint32(v[0:]), int64(binary.LittleEndian.Uint32(v[4:]))
				if wi > 1 || seq < last[wi] {
					t.Errorf("reader %d: writer %d went back from sequence %d to %d", ri, wi, last[wi], seq)
					return
				}
				last[wi] = seq
			}
		}()
	}
	wg.Wait()
}

// opAllocs runs op n times on one P and returns the mean heap
// allocations and allocated bytes per run.
func opAllocs(n int, op func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 8; i++ {
		op() // fill the pools
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestWholeOpAllocCeilings pins what a whole Write and Read allocate in
// steady state. Over the loopback, on the calling goroutine: at 128 B a
// write allocates nothing and a read eight objects: its registration id
// (two), its sink, one delivery wrapper per server it registers on before
// it is complete (n-f), and the value. On legs those were 3 (208 B) and 13
// (760 B). At 1 MiB a write allocates no element-sized buffer (its
// elements come from the free list and go back to it) and a read
// allocates about one value. Over sockets the count is the whole
// process's, the five NetServers' included (a key and a writer id decoded
// per request): 12 objects (256 B) to a write and 23 (840 B) to a read at
// 128 B, since a frame's length prefix is read in place (readFrame) and a
// nil error is not inspected (stampStale) — 42 and 42 before; with every
// exchange on a leg they were 83 (2 208 B) and 64 (1 888 B).
func TestWholeOpAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its puts under -race")
	}
	ctx := testCtx(t)
	loopback := func(t *testing.T) []Conn { return NewLoopback(5).Conns() }
	sockets := func(t *testing.T) []Conn {
		conns, _ := startTCPCluster(t, 5)
		return conns
	}
	for _, tc := range []struct {
		name                string
		conns               func(t *testing.T) []Conn
		size                int
		writeAllocs, writeB float64
		readAllocs, readB   float64
	}{
		{"loopback", loopback, 128, 0, 32, 8, 480},
		{"loopback", loopback, 1 << 20, 3, (1 << 20) / 3 / 4, 14, 1<<20 + 16<<10},
		{"sockets", sockets, 128, 12, 260, 24, 840},
	} {
		codec, err := NewCodec(5, 3)
		if err != nil {
			t.Fatal(err)
		}
		conns := tc.conns(t)
		w := mustWriterOn(t, "w", &Config{Codec: codec, Conns: conns, F: 0})
		r := mustReader(t, "r", codec, conns)
		value := make([]byte, tc.size)
		if _, err := w.Write(ctx, testKey, value); err != nil { // a socket's conns are dialed by now
			t.Fatal(err)
		}
		allocs, bytes := opAllocs(200, func() {
			if _, err := w.Write(ctx, testKey, value); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.writeAllocs+0.5 || bytes > tc.writeB*1.1 {
			t.Errorf("%s, %d B write: %.2f allocs, %.0f B per op; ceilings %v and %.0f", tc.name, tc.size, allocs, bytes, tc.writeAllocs, tc.writeB)
		}
		allocs, bytes = opAllocs(200, func() {
			if _, err := r.Read(ctx, testKey); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.readAllocs+0.5 || bytes > tc.readB*1.1 || bytes < float64(tc.size) {
			t.Errorf("%s, %d B read: %.2f allocs, %.0f B per op; ceilings %v and %.0f, floor one value", tc.name, tc.size, allocs, bytes, tc.readAllocs, tc.readB)
		}
	}
}

// BenchmarkPutDataCopyVsHandoff is the measurement behind
// elemHandoffMin: one put-data per op into a store of ~64 MiB of
// registers (so the register a put lands on is as cold as in a real
// store), the element produced by a copy standing in for the encoder.
// "copy" produces into one warm scratch and lets Server.PutData copy it
// into the register in place; "handoff" produces into a buffer from the
// free list and swaps it in. Run with -cpu 1. The free list refuses
// buffers below elemHandoffMin, so the handoff rows under it time an
// allocation per put; to see where the swap itself starts to win, lower
// the constant for the run.
func BenchmarkPutDataCopyVsHandoff(b *testing.B) {
	for _, size := range []int{1 << 10, 4 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 1 << 20} {
		keys := make([]string, max(64<<20/size, 16))
		for i := range keys {
			keys[i] = fmt.Sprintf("k%06d", i)
		}
		src := elemFor(1, size)
		run := func(name string, put func(s *Server, key string, t Tag)) {
			b.Run(fmt.Sprintf("%s/%dKiB", name, size>>10), func(b *testing.B) {
				s := NewServer(0)
				ts := uint64(0)
				for range keys { // every register exists at its size before timing
					ts++
					put(s, keys[ts%uint64(len(keys))], Tag{TS: ts, Writer: "w"})
				}
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ts++
					put(s, keys[ts%uint64(len(keys))], Tag{TS: ts, Writer: "w"})
				}
			})
		}
		scratch := make([]byte, size)
		run("copy", func(s *Server, key string, t Tag) {
			copy(scratch, src)
			s.PutData(key, t, scratch, size)
		})
		run("handoff", func(s *Server, key string, t Tag) {
			elem, _ := getElem(size)
			copy(elem, src)
			s.put(walOpPut, key, t, elem, size, true, true)
		})
	}
}

// BenchmarkEncodeOwnedStream is the layer measurement behind the cold
// bit: one 1 MiB encode per op into element buffers flagged fresh
// ("plain" stores) or cold ("stream", non-temporal stores). "rotating"
// walks 160 buffer sets, 280 MB, so every destination line is out of
// cache when it is written, as a displaced register buffer is; "hot"
// reuses one set, the case the bit exists to keep off the streaming
// stores. The value is warm in both, as it is for a caller that has
// just produced it. Run with -cpu 1,2.
func BenchmarkEncodeOwnedStream(b *testing.B) {
	const n, k, vlen = 5, 3, 1 << 20
	codec, err := NewCodec(n, k)
	if err != nil {
		b.Fatal(err)
	}
	s := codec.shardSize(vlen)
	value := elemFor(1, vlen)
	sets := make([][][]byte, 160)
	for i := range sets {
		sets[i] = make([][]byte, n)
		for j := range sets[i] {
			sets[i][j] = bytes.Repeat([]byte{0xDB}, s) // faulted in before the clock starts
		}
	}
	for _, bc := range []struct {
		name string
		sets [][][]byte
		cold bool
	}{
		{"rotating/plain", sets, false},
		{"rotating/stream", sets, true},
		{"hot/plain", sets[:1], false},
		{"hot/stream", sets[:1], true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sc := &encodeScratch{shards: make([][]byte, n), cold: make([]bool, n)}
			for i := range sc.cold {
				sc.cold[i] = bc.cold
			}
			b.SetBytes(vlen)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(sc.shards, bc.sets[i%len(bc.sets)])
				if err := codec.encodeElems(value, sc, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

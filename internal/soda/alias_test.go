package soda

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
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
// byte-identical while it is registered, and after an epoch flip, a
// crash-style UnregisterAll or a WipeAll force-dropped the registration.
func TestDeliveredBytesNeverChange(t *testing.T) {
	const size = 4 << 10
	drops := []struct {
		name string
		drop func(s *Server)
	}{
		{"registered", func(*Server) {}},
		{"epoch-flip", func(s *Server) { s.Reconfig(ReconfigSeal, 1, 5, 3) }},
		{"unregister-all", func(s *Server) { s.UnregisterAll() }},
		{"wipe-all", func(s *Server) { s.WipeAll() }},
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
			if tc.name != "registered" && s.Readers(testKey) != 0 {
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
	c := TCPMuxConn(0, addrs[0])
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
				if err := codec.enc.ReconstructData(ref); err != nil {
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
	c := TCPMuxConn(0, addrs[0])
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
	if n := servers[0].NumConns(); n != 1 {
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

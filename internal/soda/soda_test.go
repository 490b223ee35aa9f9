package soda

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testKey is the register every single-key protocol test works on;
// the namespace tests exercise multi-key behaviour separately.
const testKey = "test/register"

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func newCluster(t *testing.T, n, k int) (*Codec, *Loopback) {
	t.Helper()
	codec, err := NewCodec(n, k)
	if err != nil {
		t.Fatalf("NewCodec(%d,%d): %v", n, k, err)
	}
	return codec, NewLoopback(n)
}

func mustWriter(t *testing.T, id string, codec *Codec, conns []Conn) *Writer {
	t.Helper()
	w, err := NewWriter(id, codec, conns)
	if err != nil {
		t.Fatalf("NewWriter(%s): %v", id, err)
	}
	return w
}

func mustReader(t *testing.T, id string, codec *Codec, conns []Conn) *Reader {
	t.Helper()
	r, err := NewReader(id, codec, conns)
	if err != nil {
		t.Fatalf("NewReader(%s): %v", id, err)
	}
	return r
}

// mustView starts a view at cfg that never flips, so that the clients a
// test builds on it at a Config's F, E or Membership return a
// stale-epoch NACK as NewWriter's and NewReader's do, not wait for an
// install that never comes.
func mustView(t testing.TB, cfg *Config) *ConfigView {
	t.Helper()
	v, err := fixedView(cfg)
	if err != nil {
		t.Fatalf("fixedView: %v", err)
	}
	return v
}

func mustWriterOn(t testing.TB, id string, cfg *Config) *Writer {
	t.Helper()
	w, err := mustView(t, cfg).Writer(id)
	if err != nil {
		t.Fatalf("Writer(%s): %v", id, err)
	}
	return w
}

func mustReaderOn(t testing.TB, id string, cfg *Config) *Reader {
	t.Helper()
	r, err := mustView(t, cfg).Reader(id)
	if err != nil {
		t.Fatalf("Reader(%s): %v", id, err)
	}
	return r
}

func TestCodecValueRoundTrip(t *testing.T) {
	codec, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 2, 3, 16, 31, 32, 1000} {
		value := make([]byte, size)
		for i := range value {
			value[i] = byte(i * 7)
		}
		shards, err := codec.EncodeValue(value)
		if err != nil {
			t.Fatalf("EncodeValue(%d): %v", size, err)
		}
		if len(shards) != 5 {
			t.Fatalf("EncodeValue(%d) = %d shards", size, len(shards))
		}
		got, err := codec.DecodeValue(shards, size)
		if err != nil {
			t.Fatalf("DecodeValue(%d): %v", size, err)
		}
		if !bytes.Equal(got, value) {
			t.Fatalf("value of %d bytes did not round trip", size)
		}
	}
	if _, err := codec.EncodeValue(nil); err != ErrEmptyValue {
		t.Fatalf("EncodeValue(nil) = %v, want ErrEmptyValue", err)
	}
}

// TestWriteReadRoundTrip is the protocol happy path: two-phase write,
// then a relayed read, on a healthy loopback cluster.
func TestWriteReadRoundTrip(t *testing.T) {
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	w := mustWriter(t, "w1", codec, lb.Conns())
	r := mustReader(t, "r1", codec, lb.Conns())

	v1 := []byte("SODA stores one coded element per server")
	tag1, err := w.Write(ctx, testKey, v1)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if tag1.TS != 1 || tag1.Writer != "w1" {
		t.Fatalf("first write tag = %v", tag1)
	}
	res, err := r.Read(ctx, testKey)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if res.Tag != tag1 || !bytes.Equal(res.Value, v1) {
		t.Fatalf("Read = %v %q, want %v %q", res.Tag, res.Value, tag1, v1)
	}
	if len(res.Corrupt) != 0 {
		t.Fatalf("healthy read reported corrupt servers %v", res.Corrupt)
	}

	// A second write supersedes the first for subsequent reads.
	v2 := []byte("second version, bigger than the first one was")
	tag2, err := w.Write(ctx, testKey, v2)
	if err != nil {
		t.Fatalf("Write 2: %v", err)
	}
	if !tag1.Less(tag2) {
		t.Fatalf("tags not increasing: %v then %v", tag1, tag2)
	}
	if res, err = r.Read(ctx, testKey); err != nil || res.Tag != tag2 || !bytes.Equal(res.Value, v2) {
		t.Fatalf("Read 2 = %v %q (%v), want %v", res.Tag, res.Value, err, tag2)
	}

	// Every server ended up holding exactly one coded element — the
	// storage bound the paper is named for.
	shards, _ := codec.EncodeValue(v2)
	for i := 0; i < 5; i++ {
		tag, elem, vlen := lb.Server(i).Snapshot(testKey)
		if tag != tag2 || vlen != len(v2) || !bytes.Equal(elem, shards[i]) {
			t.Fatalf("server %d snapshot = %v vlen %d", i, tag, vlen)
		}
		// Unregistration is asynchronous with Read returning; give the
		// teardown a moment.
		deadline := time.Now().Add(2 * time.Second)
		for lb.Server(i).readerCount(testKey) != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("server %d still has %d registered readers", i, lb.Server(i).readerCount(testKey))
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestReadEmptyRegister: a read before any write returns the initial
// (zero-tag, empty) value.
func TestReadEmptyRegister(t *testing.T) {
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	r := mustReader(t, "r1", codec, lb.Conns())
	res, err := r.Read(ctx, testKey)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !res.Tag.IsZero() || len(res.Value) != 0 {
		t.Fatalf("empty register read = %v %q", res.Tag, res.Value)
	}
}

// diedBeforePut is the conn of a writer that dies between its phases, as
// the servers see it: get-tag goes through, put-data sends nothing. The
// element is a borrowed one (small values only) and is not its to free.
type diedBeforePut struct {
	Conn
	getTags *atomic.Int64
}

var errWriterDied = errors.New("the writer died before its put-data")

func (c diedBeforePut) GetTag(ctx context.Context, key string) (Tag, error) {
	c.getTags.Add(1)
	return c.Conn.GetTag(ctx, key)
}

func (c diedBeforePut) PutData(context.Context, string, Tag, []byte, int) error {
	return errWriterDied
}

// TestWriterCrashBetweenPhases fault-injects the classic two-phase
// failure through a real Write: the writer performs get-tag and mints,
// and dies before any put-data is sent. Write reports the tag it
// abandoned beside ErrUnavailable; the phantom must be invisible — reads
// keep returning the old state — and must not block later writers or
// readers, whose tags pass it. Once with every exchange on a leg; once
// with the get-tag phase asked on the writer's goroutine: raw conns, whose
// logs sync too slowly to be put to from there, so that the put-datas are
// owed legs, and those leave through w1.conns — swapped for the dying kind
// after the writer has resolved which conns it can ask directly.
func TestWriterCrashBetweenPhases(t *testing.T) {
	for _, tc := range []struct {
		name     string
		onCaller bool
	}{{"get-tag on legs", false}, {"get-tag on the caller", true}} {
		t.Run(tc.name, func(t *testing.T) {
			checkNoLeaks(t)
			ctx := testCtx(t)
			codec, lb := newCluster(t, 5, 3)
			if tc.onCaller {
				lb = pinnedLoopback(t)
				for i := 0; i < lb.Size(); i++ {
					pinSyncs(lb.Server(i), 150*time.Microsecond)
				}
			}
			var getTags atomic.Int64
			dying := func(conns []Conn) []Conn {
				for i, c := range conns {
					conns[i] = diedBeforePut{c, &getTags}
				}
				return conns
			}
			w0 := mustWriterOn(t, "w0", &Config{Codec: codec, Conns: lb.Conns(), F: 0})
			w2 := mustWriterOn(t, "w2", &Config{Codec: codec, Conns: lb.Conns(), F: 0})
			r := mustReader(t, "r1", codec, lb.Conns())
			var w1 *Writer
			if tc.onCaller {
				w1 = mustWriter(t, "w1", codec, lb.Conns())
				dying(w1.at.Load().conns)
			} else {
				w1 = mustWriter(t, "w1", codec, dying(lb.Conns()))
			}

			v0 := []byte("the state before the crash")
			tag0, err := w0.Write(ctx, testKey, v0)
			if err != nil {
				t.Fatalf("Write: %v", err)
			}
			phantom, err := w1.Write(ctx, testKey, []byte("never sent anywhere"))
			if !errors.Is(err, ErrUnavailable) || !errors.Is(err, errWriterDied) || !tag0.Less(phantom) {
				t.Fatalf("write that died before put-data = %v, %v; want the abandoned tag past %v with ErrUnavailable", phantom, err, tag0)
			}
			waitFor(t, "the dying writer's legs", legsHome)
			want := int64(5)
			if tc.onCaller {
				want = 0
			}
			if got := getTags.Load(); got != want {
				t.Fatalf("%d get-tags went out on legs, want %d", got, want)
			}

			res, err := r.Read(ctx, testKey)
			if err != nil || res.Tag != tag0 || !bytes.Equal(res.Value, v0) {
				t.Fatalf("read after the phantom = %v %q, %v; want the prior state %v %q", res.Tag, res.Value, err, tag0, v0)
			}
			v2 := []byte("a write that actually completes")
			tag2, err := w2.Write(ctx, testKey, v2)
			if err != nil || !phantom.Less(tag2) {
				t.Fatalf("second writer: %v, %v; want a tag past the phantom %v", tag2, err, phantom)
			}
			res, err = r.Read(ctx, testKey)
			if err != nil || res.Tag != tag2 || !bytes.Equal(res.Value, v2) {
				t.Fatalf("Read = %v %q (%v), want %v %q", res.Tag, res.Value, err, tag2, v2)
			}
			for i := 0; i < lb.Size(); i++ {
				if tag, _, _ := lb.Server(i).Snapshot(testKey); tag == phantom {
					t.Fatalf("server %d holds the phantom tag %v", i, phantom)
				}
			}
		})
	}
}

// TestReadRidesThroughServerFailures covers f server failures around
// a read: one server silently dead before the read starts, and one
// fail-stop crash mid-read, right after its initial response.
func TestReadRidesThroughServerFailures(t *testing.T) {
	ctx := testCtx(t)
	v1 := []byte("still readable with f failures")

	t.Run("silent crash before read", func(t *testing.T) {
		codec, lb := newCluster(t, 5, 3)
		w := mustWriter(t, "w1", codec, lb.Conns())
		tag1, err := w.Write(ctx, testKey, v1)
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
		lb.hang(2) // crashes: never answers again, connections stay up
		r := mustReader(t, "r1", codec, lb.Conns())
		res, err := r.Read(ctx, testKey)
		if err != nil {
			t.Fatalf("Read with a hung server: %v", err)
		}
		if res.Tag != tag1 || !bytes.Equal(res.Value, v1) {
			t.Fatalf("Read = %v %q", res.Tag, res.Value)
		}
	})

	t.Run("fail-stop crash mid-read", func(t *testing.T) {
		codec, lb := newCluster(t, 5, 3)
		w := mustWriter(t, "w1", codec, lb.Conns())
		tag1, err := w.Write(ctx, testKey, v1)
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
		// The moment server 2's initial response reaches the reader,
		// kill server 2: the crash is concurrent with the read, after
		// the response is on the wire.
		lb.OnDeliver(func(server int, _, _ string, d Delivery) {
			if server == 2 && d.Initial {
				lb.Crash(2)
			}
		})
		r := mustReader(t, "r1", codec, lb.Conns())
		res, err := r.Read(ctx, testKey)
		if err != nil {
			t.Fatalf("Read with a mid-read crash: %v", err)
		}
		if res.Tag != tag1 || !bytes.Equal(res.Value, v1) {
			t.Fatalf("Read = %v %q", res.Tag, res.Value)
		}
		// The read may have returned on the other four before server 2's
		// leg delivered; the leg still lands, and the hook with it.
		waitFor(t, "the hook to crash server 2", func() bool {
			_, err := lb.Conns()[2].GetTag(ctx, testKey)
			return err == ErrServerDown
		})
	})

	t.Run("too many failures fails fast", func(t *testing.T) {
		codec, lb := newCluster(t, 5, 3)
		lb.Crash(0)
		lb.Crash(1)
		r := mustReader(t, "r1", codec, lb.Conns()) // f = 1
		if _, err := r.Read(ctx, testKey); err == nil {
			t.Fatal("Read with 2 crashed servers and f=1 succeeded")
		}
	})
}

// TestRelayCompletesPendingRead pins down the relay mechanism itself:
// a read that starts while a write is only partially applied cannot
// finish from initial responses — its target tag has too few elements
// — and must complete the moment a third server receives the write
// and relays its element. A concurrent fail-stop of an unrelated
// server rides along.
func TestRelayCompletesPendingRead(t *testing.T) {
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	conns := lb.Conns()
	w := mustWriter(t, "w1", codec, lb.Conns())
	v1 := []byte("version one, fully written")
	if _, err := w.Write(ctx, testKey, v1); err != nil {
		t.Fatalf("Write: %v", err)
	}

	// Half-apply a second write by hand: tag t2 reaches servers 0 and
	// 1 only, as if the writer were slow mid-put-data.
	v2 := []byte("version two, in flight")
	t2 := Tag{TS: 2, Writer: "w2"}
	shards2, err := codec.EncodeValue(v2)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		if err := conns[i].PutData(ctx, testKey, t2, shards2[i], len(v2)); err != nil {
			t.Fatalf("PutData(%d): %v", i, err)
		}
	}

	// The read's target tag becomes t2 (servers 0 and 1 answer with
	// it), but only two t2 elements exist: the read must block.
	r := mustReader(t, "r1", codec, lb.Conns())
	type outcome struct {
		res ReadResult
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := r.Read(ctx, testKey)
		resCh <- outcome{res, err}
	}()

	// Wait until the read is registered everywhere, then prove it is
	// genuinely pending.
	for i := 0; i < 5; i++ {
		for lb.Server(i).readerCount(testKey) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case o := <-resCh:
		t.Fatalf("read completed with only 2 elements of its target tag: %v %v", o.res, o.err)
	case <-time.After(50 * time.Millisecond):
	}

	lb.Crash(4) // an unrelated server dies mid-read

	// The write makes progress on one more server; its relay is what
	// completes the read.
	if err := conns[2].PutData(ctx, testKey, t2, shards2[2], len(v2)); err != nil {
		t.Fatalf("PutData(2): %v", err)
	}
	o := <-resCh
	if o.err != nil {
		t.Fatalf("Read: %v", o.err)
	}
	if o.res.Tag != t2 || !bytes.Equal(o.res.Value, v2) {
		t.Fatalf("Read = %v %q, want %v %q", o.res.Tag, o.res.Value, t2, v2)
	}
}

// TestPendingReadFailsFastWhenHopeless: a read that is pending on
// relays must not hang forever once so many servers have crashed that
// no version can ever reach k elements — it fails with
// ErrUnavailable instead of waiting out the caller's context. (The
// flip side of the crash model: as long as the missing elements COULD
// still arrive — a slow writer finishing its puts through live
// servers — the read keeps waiting; only provable impossibility
// aborts it.)
func TestPendingReadFailsFastWhenHopeless(t *testing.T) {
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	conns := lb.Conns()
	w := mustWriter(t, "w1", codec, lb.Conns())
	if _, err := w.Write(ctx, testKey, []byte("v1")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// Pending state: target tag t2 exists on two servers only.
	t2 := Tag{TS: 2, Writer: "w2"}
	v2 := []byte("half-applied")
	shards2, err := codec.EncodeValue(v2)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		if err := conns[i].PutData(ctx, testKey, t2, shards2[i], len(v2)); err != nil {
			t.Fatalf("PutData(%d): %v", i, err)
		}
	}
	r := mustReader(t, "r1", codec, lb.Conns())
	errCh := make(chan error, 1)
	go func() {
		_, err := r.Read(ctx, testKey)
		errCh <- err
	}()
	for i := 0; i < 5; i++ {
		for lb.Server(i).readerCount(testKey) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	// Kill everything: no element of any tag can ever arrive again,
	// and t2 is stuck at two elements.
	for i := 0; i < 5; i++ {
		lb.Crash(i)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("hopeless read returned a value")
		}
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("hopeless read error = %v, want ErrUnavailable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hopeless read hung instead of failing fast")
	}
}

// TestReadNeverGoesBackwards pins the read-after-read corner that
// forces the f < k constraint: a read that adopts a *half-applied*
// write returns a tag held by only k servers. With f < k, a later
// read's n-f initial quorum always meets one of those holders, so it
// can never fix a target tag below the returned one — at worst it
// blocks until the write makes progress. (With f >= k the later read
// could quorum entirely on the other servers and return the older
// tag; NewReader rejects that configuration, see TestConfigValidation.)
func TestReadNeverGoesBackwards(t *testing.T) {
	ctx := testCtx(t)
	codec, lb := newCluster(t, 9, 3)
	conns := lb.Conns()
	w := mustWriter(t, "w1", codec, lb.Conns())
	if _, err := w.Write(ctx, testKey, []byte("old value")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// tag2 half-applied: exactly k=3 servers hold it.
	t2 := Tag{TS: 2, Writer: "w2"}
	v2 := []byte("new value")
	shards2, err := codec.EncodeValue(v2)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2} {
		if err := conns[i].PutData(ctx, testKey, t2, shards2[i], len(v2)); err != nil {
			t.Fatalf("PutData(%d): %v", i, err)
		}
	}
	// R1 adopts the half-applied write (its initials include servers
	// 0-2, so t* = t2 and the three elements decode).
	r1 := mustReaderOn(t, "r1", &Config{Codec: codec, Conns: lb.Conns(), F: 2})
	res1, err := r1.Read(ctx, testKey)
	if err != nil {
		t.Fatalf("R1: %v", err)
	}
	if res1.Tag != t2 || !bytes.Equal(res1.Value, v2) {
		t.Fatalf("R1 = %v %q, want the half-applied %v", res1.Tag, res1.Value, t2)
	}
	// f of the k holders die. The one survivor (server 2) is in every
	// n-f=7 initial quorum, so R2's target stays t2: it must block
	// rather than return the old tag...
	lb.hang(0)
	lb.hang(1)
	r2 := mustReaderOn(t, "r2", &Config{Codec: codec, Conns: lb.Conns(), F: 2})
	type outcome struct {
		res ReadResult
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := r2.Read(ctx, testKey)
		resCh <- outcome{res, err}
	}()
	select {
	case o := <-resCh:
		if o.err == nil && o.res.Tag.Less(res1.Tag) {
			t.Fatalf("reads went backwards: R1 returned %v, then R2 returned %v", res1.Tag, o.res.Tag)
		}
		t.Fatalf("R2 completed early: %v %v", o.res, o.err)
	case <-time.After(100 * time.Millisecond):
	}
	// ...until the write makes progress and the relays complete it.
	for _, i := range []int{3, 4} {
		if err := conns[i].PutData(ctx, testKey, t2, shards2[i], len(v2)); err != nil {
			t.Fatalf("PutData(%d): %v", i, err)
		}
	}
	o := <-resCh
	if o.err != nil {
		t.Fatalf("R2: %v", o.err)
	}
	if o.res.Tag.Less(res1.Tag) {
		t.Fatalf("reads went backwards: R1 returned %v, then R2 returned %v", res1.Tag, o.res.Tag)
	}
	if o.res.Tag != t2 || !bytes.Equal(o.res.Value, v2) {
		t.Fatalf("R2 = %v %q, want %v %q", o.res.Tag, o.res.Value, t2, v2)
	}
}

// TestSodaErrReadNamesCorruptServers exercises the SODA_err read
// path on plain NewCodec(n, k) codecs: with k+2e matching responses,
// the reader locates silently corrupt servers, returns the written
// value anyway, and reports the corrupt indices for quarantine.
func TestSodaErrReadNamesCorruptServers(t *testing.T) {
	ctx := testCtx(t)
	v1 := []byte("the adversary flips bits, the dual code sees them")

	t.Run("one corrupt server at n=5 k=3", func(t *testing.T) {
		codec, lb := newCluster(t, 5, 3)
		w := mustWriter(t, "w1", codec, lb.Conns())
		tag1, err := w.Write(ctx, testKey, v1)
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
		lb.Corrupt(4, FlipByte(1))
		r := mustReaderOn(t, "r1", &Config{Codec: codec, Conns: lb.Conns(), F: 0, E: 1})
		res, err := r.Read(ctx, testKey)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if res.Tag != tag1 || !bytes.Equal(res.Value, v1) {
			t.Fatalf("Read = %v %q, want %v %q", res.Tag, res.Value, tag1, v1)
		}
		if !slices.Equal(res.Corrupt, []int{4}) {
			t.Fatalf("Corrupt = %v, want [4]", res.Corrupt)
		}

		// Quarantining the named server lets a plain reader avoid it.
		m := NewMembership(5)
		for _, s := range res.Corrupt {
			m.MarkSuspect(s, errCorruptElement)
		}
		q := mustReaderOn(t, "r2", &Config{Codec: codec, Conns: lb.Conns(), F: -1, Membership: m})
		qres, err := q.Read(ctx, testKey)
		if err != nil {
			t.Fatalf("quarantined Read: %v", err)
		}
		if qres.Tag != tag1 || !bytes.Equal(qres.Value, v1) {
			t.Fatalf("quarantined Read = %v %q", qres.Tag, qres.Value)
		}
	})

	t.Run("no corruption passes Verify", func(t *testing.T) {
		codec, lb := newCluster(t, 5, 3)
		w := mustWriter(t, "w1", codec, lb.Conns())
		if _, err := w.Write(ctx, testKey, v1); err != nil {
			t.Fatalf("Write: %v", err)
		}
		r := mustReaderOn(t, "r1", &Config{Codec: codec, Conns: lb.Conns(), F: 0, E: 1})
		res, err := r.Read(ctx, testKey)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if len(res.Corrupt) != 0 || !bytes.Equal(res.Value, v1) {
			t.Fatalf("Read = %q corrupt %v", res.Value, res.Corrupt)
		}
	})

	t.Run("two corrupt plus two crashed at n=9 k=3", func(t *testing.T) {
		codec, lb := newCluster(t, 9, 3)
		w := mustWriter(t, "w1", codec, lb.Conns())
		tag1, err := w.Write(ctx, testKey, v1)
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
		lb.hang(7)
		lb.hang(8)
		lb.Corrupt(1, FlipByte(0))
		lb.Corrupt(5, FlipByte(2))
		// n-f = 7 = k+2e responses: erasures 2, errors 2, radius
		// 2*2+2 = 6 = n-k. Exactly at the decoding bound.
		r := mustReaderOn(t, "r1", &Config{Codec: codec, Conns: lb.Conns(), F: 2, E: 2})
		res, err := r.Read(ctx, testKey)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if res.Tag != tag1 || !bytes.Equal(res.Value, v1) {
			t.Fatalf("Read = %v %q", res.Tag, res.Value)
		}
		if !slices.Equal(res.Corrupt, []int{1, 5}) {
			t.Fatalf("Corrupt = %v, want [1 5]", res.Corrupt)
		}
	})
}

// TestSodaErrBoundary walks the paper's SODA_err condition, k + 2e <=
// n - f (with this reader's f < k), over whole tables of (e, f): inside
// it a read that meets e corrupting and f crashed servers returns the
// written value and names exactly the e; outside it NewReader refuses;
// and a reader that meets one corrupt server more than it was built for
// fails or answers correctly, but never answers wrongly. The servers a
// read hears first are the corrupt ones (the lowest indices: a loopback
// read asks in conn order and stops at k + 2e elements), the crashed
// ones the last.
func TestSodaErrBoundary(t *testing.T) {
	ctx := testCtx(t)
	value := []byte("n >= k + 2e + f: what the dual code can still see through")
	for _, sh := range []struct{ n, k int }{{5, 3}, {7, 3}, {9, 5}} {
		n, k := sh.n, sh.k
		for e := 0; e <= (n-k)/2+1; e++ {
			for f := 0; f <= k; f++ {
				name := fmt.Sprintf("n%dk%d/e%df%d", n, k, e, f)
				// damaged builds a written cluster with its first bad servers
				// corrupting and its last f crashed, and the (e, f) reader.
				damaged := func(t *testing.T, bad int) (*Reader, error) {
					codec, lb := newCluster(t, n, k)
					w := mustWriter(t, "w1", codec, lb.Conns())
					if _, err := w.Write(ctx, testKey, value); err != nil {
						t.Fatalf("Write: %v", err)
					}
					for i := 0; i < bad; i++ {
						lb.Corrupt(i, FlipByte(3))
					}
					for i := n - f; i < n; i++ {
						lb.Crash(i)
					}
					return mustView(t, &Config{Codec: codec, Conns: lb.Conns(), F: f, E: e}).Reader("r1")
				}
				if k+2*e > n-f || f >= k {
					t.Run(name+"/refused", func(t *testing.T) {
						if _, err := damaged(t, 0); !errors.Is(err, ErrConfig) {
							t.Fatalf("NewReader = %v, want ErrConfig", err)
						}
					})
					continue
				}
				t.Run(name, func(t *testing.T) {
					r, err := damaged(t, e)
					if err != nil {
						t.Fatalf("NewReader: %v", err)
					}
					res, err := r.Read(ctx, testKey)
					if err != nil {
						t.Fatalf("Read: %v", err)
					}
					want := make([]int, e)
					for i := range want {
						want[i] = i
					}
					if !bytes.Equal(res.Value, value) || !slices.Equal(res.Corrupt, want) {
						t.Fatalf("Read = %q corrupt %v, want the value and %v", res.Value, res.Corrupt, want)
					}
				})
				if e == 0 {
					continue // plain SODA takes its k elements on trust
				}
				t.Run(name+"/one-more", func(t *testing.T) {
					r, err := damaged(t, e+1)
					if err != nil {
						t.Fatalf("NewReader: %v", err)
					}
					// Nothing the read can decode may ever arrive, and then
					// only its context ends it.
					short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
					defer cancel()
					res, err := r.Read(short, testKey)
					switch {
					case err == nil && !bytes.Equal(res.Value, value):
						t.Fatalf("Read returned a wrong value %q (corrupt %v)", res.Value, res.Corrupt)
					case err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrUnavailable):
						t.Fatalf("Read = %v, want the value, a deadline or ErrUnavailable", err)
					}
				})
			}
		}
	}
}

// TestWriterFaultBoundary is the writer's half of the boundary tables: for
// every fault budget F a Config admits for a writer (0 <= F <= n-k), a
// write with its last F servers crashed returns a tag and one with F+1
// crashed returns ErrUnavailable. The F servers then come back without
// the write and one server holding it crashes: a read returns the value,
// ErrUnavailable or its deadline, never another value, and inside the
// paper's bound n >= k + 2F it returns the value. Outside the bound a
// geometry is admitted but not live: the write reached n-F servers, one
// fewer than k may hold it.
func TestWriterFaultBoundary(t *testing.T) {
	ctx := testCtx(t)
	value := []byte("n - F acks, then one holder lost")
	for _, sh := range []struct{ n, k int }{{5, 3}, {7, 3}, {9, 5}} {
		n, k := sh.n, sh.k
		for f := 0; f <= n-k; f++ {
			t.Run(fmt.Sprintf("n%dk%d/f%d", n, k, f), func(t *testing.T) {
				codec, lb := newCluster(t, n, k)
				w := mustWriterOn(t, "w1", &Config{Codec: codec, Conns: lb.Conns(), F: f})
				for i := n - f - 1; i < n; i++ {
					lb.Crash(i)
				}
				if _, err := w.Write(ctx, testKey, []byte("one crash too many")); !errors.Is(err, ErrUnavailable) {
					t.Fatalf("Write with %d crashed = %v, want ErrUnavailable", f+1, err)
				}
				lb.Restart(n - f - 1)
				tag, err := w.Write(ctx, testKey, value)
				if err != nil {
					t.Fatalf("Write with %d crashed: %v", f, err)
				}
				for i := n - f; i < n; i++ {
					lb.Restart(i) // without the write
				}
				lb.Crash(0)
				short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
				defer cancel()
				res, err := mustReader(t, "r1", codec, lb.Conns()).Read(short, testKey)
				switch {
				case err == nil && (res.Tag != tag || !bytes.Equal(res.Value, value)):
					t.Fatalf("Read = %v %q, want %v %q", res.Tag, res.Value, tag, value)
				case err != nil && n >= k+2*f:
					t.Fatalf("Read inside n >= k + 2F = %v, want the value", err)
				case err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrUnavailable):
					t.Fatalf("Read = %v, want the value, a deadline or ErrUnavailable", err)
				}
			})
		}
	}
}

// TestSharedWriterConcurrentWrites: Write serializes itself, so one
// Writer used from many goroutines must mint strictly distinct tags —
// overlapping get-tag phases would otherwise assign one tag to two
// different values and split the servers between two codewords.
func TestSharedWriterConcurrentWrites(t *testing.T) {
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	w := mustWriter(t, "w1", codec, lb.Conns())
	const goroutines, each = 4, 5
	tagCh := make(chan Tag, goroutines*each)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				tag, err := w.Write(ctx, testKey, []byte(fmt.Sprintf("g%d-%d", g, j)))
				if err != nil {
					t.Errorf("Write: %v", err)
					return
				}
				tagCh <- tag
			}
		}(g)
	}
	wg.Wait()
	close(tagCh)
	seen := make(map[Tag]bool)
	for tag := range tagCh {
		if seen[tag] {
			t.Fatalf("tag %v minted twice by one writer", tag)
		}
		seen[tag] = true
	}
	if len(seen) != goroutines*each {
		t.Fatalf("%d distinct tags, want %d", len(seen), goroutines*each)
	}
	r := mustReader(t, "r1", codec, lb.Conns())
	if _, err := r.Read(ctx, testKey); err != nil {
		t.Fatalf("Read after concurrent writes: %v", err)
	}
}

// TestReadSurvivesVLenLie: a server that reports a bogus value length
// for a tag must not be able to stall the read — elements are keyed
// by (tag, vlen), so the lie pollutes only its own bucket while the
// honest servers' version still decodes.
func TestReadSurvivesVLenLie(t *testing.T) {
	codec, lb := newCluster(t, 5, 3)
	r := mustReader(t, "r1", codec, lb.Conns())
	value := []byte("ten bytes!")
	shards, err := codec.EncodeValue(value)
	if err != nil {
		t.Fatal(err)
	}
	t1 := Tag{TS: 1, Writer: "w1"}

	st := r.at.Load().getState()
	// The liar answers first: right tag, absurd vlen, element sized to
	// match the lie so it cannot be dismissed as malformed.
	lieVLen := 999
	lieElem := make([]byte, codec.shardSize(lieVLen))
	st.add(Delivery{Server: 4, Tag: t1, Elem: lieElem, VLen: lieVLen, Initial: true})
	// Three honest servers then deliver the real write.
	for i := 0; i < 3; i++ {
		st.add(Delivery{Server: i, Tag: t1, Elem: shards[i], VLen: len(value), Initial: true})
	}
	select {
	case <-st.done:
	default:
		t.Fatal("read stalled: the vlen lie starved the honest version")
	}
	if st.err != nil {
		t.Fatalf("read failed: %v", st.err)
	}
	if st.result.Tag != t1 || !bytes.Equal(st.result.Value, value) {
		t.Fatalf("read = %v %q, want %v %q", st.result.Tag, st.result.Value, t1, value)
	}
}

func TestConfigValidation(t *testing.T) {
	codec, lb := newCluster(t, 5, 3)
	conns := lb.Conns()
	if _, err := NewWriter("", codec, conns); err == nil {
		t.Fatal("empty writer id accepted")
	}
	if _, err := NewWriter(strings.Repeat("x", maxWriterID+1), codec, conns); err == nil {
		t.Fatal("oversized writer id accepted (it would not round trip the uint16 wire length)")
	}
	if _, err := NewWriter("w", codec, conns[:4]); err == nil {
		t.Fatal("short conn set accepted")
	}
	if _, err := mustView(t, &Config{Codec: codec, Conns: conns, F: 5}).Writer("w"); !errors.Is(err, ErrConfig) {
		t.Fatalf("f=n accepted: %v", err)
	}
	if _, err := mustView(t, &Config{Codec: codec, Conns: conns, F: 3}).Reader("r"); !errors.Is(err, ErrConfig) {
		t.Fatalf("n-f < k accepted: %v", err)
	}
	// f >= k lets reads go backwards (see TestReadNeverGoesBackwards).
	big, blb := newCluster(t, 9, 3)
	if _, err := mustView(t, &Config{Codec: big, Conns: blb.Conns(), F: 3}).Reader("r"); !errors.Is(err, ErrConfig) {
		t.Fatalf("reader f >= k accepted: %v", err)
	}
	if r, err := NewReader("r", big, blb.Conns()); err != nil {
		t.Fatalf("default reader at n=9 k=3: %v", err)
	} else if f := r.at.Load().f; f != 2 {
		t.Fatalf("default reader faults = %d, want the f < k clamp 2", f)
	}
	dup := []Conn{conns[0], conns[0], conns[2], conns[3], conns[4]}
	if _, err := NewWriter("w", codec, dup); err == nil {
		t.Fatal("duplicate server indices accepted")
	}
}

// TestNilMembershipIsNoView: a nil Config.Membership means no view —
// nobody quarantined — to a writer and a reader alike, not a nil
// dereference; a view of the wrong size is refused.
func TestNilMembershipIsNoView(t *testing.T) {
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	for _, tc := range []struct {
		name string
		m    *Membership
		ok   bool
	}{
		{"nil", nil, true},
		{"n=5", NewMembership(5), true},
		{"n=4", NewMembership(4), false},
	} {
		view, err := NewConfigView(&Config{Codec: codec, Conns: lb.Conns(), F: -1, Membership: tc.m})
		if !tc.ok {
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("%s: NewConfigView = %v, want ErrConfig", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: NewConfigView: %v", tc.name, err)
		}
		w, werr := view.Writer("w")
		r, rerr := view.Reader("r")
		if werr != nil || rerr != nil {
			t.Fatalf("%s: NewWriter = %v, NewReader = %v", tc.name, werr, rerr)
		}
		if _, err := w.Write(ctx, testKey, []byte(tc.name)); err != nil {
			t.Fatalf("%s: Write: %v", tc.name, err)
		}
		if res, err := r.Read(ctx, testKey); err != nil || string(res.Value) != tc.name {
			t.Fatalf("%s: Read = %q, %v", tc.name, res.Value, err)
		}
	}
}

// TestReregisterKeepsTreq pins the re-registration rule: a reader
// registering again (a read retrying after a transient failure) must
// keep min(existing treq, current tag), not jump to the server's
// current tag — a raised treq would filter out exactly the relay the
// pending read is waiting for.
func TestReregisterKeepsTreq(t *testing.T) {
	s := NewServer(0)
	t1, t2, t9 := Tag{TS: 1, Writer: "w"}, Tag{TS: 2, Writer: "w"}, Tag{TS: 9, Writer: "w"}
	s.PutData(testKey, t1, []byte{1}, 1)
	s.Register(testKey, "r#1", func(Delivery) {}) // treq = t1

	// The server's tag races ahead of the registration.
	s.PutData(testKey, t9, []byte{9}, 1)

	// Retry: same reader registers again with a fresh sink.
	got := make(chan Delivery, 4)
	s.Register(testKey, "r#1", func(d Delivery) { got <- d })

	// A put under t2 does not install (t2 < t9) but still relays — and
	// the re-registered reader, whose treq must still be t1, hears it.
	s.PutData(testKey, t2, []byte{2}, 1)
	select {
	case d := <-got:
		if d.Tag != t2 {
			t.Fatalf("relayed %v, want %v", d.Tag, t2)
		}
	default:
		t.Fatalf("re-registration raised treq: the t2 relay was filtered out")
	}
}

// TestReadCompletesThroughReregistration is the end-to-end version: a
// pending read whose register retries on a server that has since seen
// a newer tag must still hear the relay that completes it.
func TestReadCompletesThroughReregistration(t *testing.T) {
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	conns := lb.Conns()

	// v1 everywhere, then t2 half-applied to servers 0 and 1 only.
	w := mustWriter(t, "w1", codec, lb.Conns())
	if _, err := w.Write(ctx, testKey, []byte("v1")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	t2 := Tag{TS: 2, Writer: "w2"}
	v2 := []byte("completed by a relay after a re-registration")
	shards2, err := codec.EncodeValue(v2)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		if err := conns[i].PutData(ctx, testKey, t2, shards2[i], len(v2)); err != nil {
			t.Fatalf("PutData(%d): %v", i, err)
		}
	}

	// A capture conn on server 2 remembers the reader's registration so
	// the test can replay it, exactly as a retrying read leg would.
	cap2 := &captureConn{Conn: conns[2]}
	rconns := lb.Conns()
	rconns[2] = cap2
	// f=0: all five initials required, so the read's target is t2 and
	// it blocks on the third element.
	r := mustReaderOn(t, "r1", &Config{Codec: codec, Conns: rconns, F: 0})
	type outcome struct {
		res ReadResult
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := r.Read(ctx, testKey)
		resCh <- outcome{res, err}
	}()
	for i := 0; i < 5; i++ {
		for lb.Server(i).readerCount(testKey) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case o := <-resCh:
		t.Fatalf("read completed with 2/3 elements: %v %v", o.res, o.err)
	case <-time.After(50 * time.Millisecond):
	}

	// Server 2's tag races past the read's target...
	t9 := Tag{TS: 9, Writer: "w9"}
	if err := conns[2].PutData(ctx, testKey, t9, shards2[2], len(v2)); err != nil {
		t.Fatalf("PutData(t9): %v", err)
	}
	// ...and the reader's leg on server 2 re-registers (the retry).
	// The buggy treq reset would now filter every relay below t9,
	// starving the read forever.
	readerID, deliver := cap2.captured()
	deliver(lb.Server(2).Register(testKey, readerID, deliver))

	// The half-applied write finally reaches server 2. Its relay —
	// tag t2, below the server's t9 — is what must complete the read.
	if err := conns[2].PutData(ctx, testKey, t2, shards2[2], len(v2)); err != nil {
		t.Fatalf("PutData(t2): %v", err)
	}
	select {
	case o := <-resCh:
		if o.err != nil {
			t.Fatalf("Read: %v", o.err)
		}
		if o.res.Tag != t2 || !bytes.Equal(o.res.Value, v2) {
			t.Fatalf("Read = %v %q, want %v %q", o.res.Tag, o.res.Value, t2, v2)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read starved after re-registration: the completing relay was filtered")
	}
}

// captureConn wraps a Conn and remembers the last GetData
// registration so tests can replay it.
type captureConn struct {
	Conn
	mu       sync.Mutex
	readerID string
	deliver  func(Delivery)
}

func (c *captureConn) GetData(ctx context.Context, key, readerID string, deliver func(Delivery)) error {
	c.mu.Lock()
	c.readerID, c.deliver = readerID, deliver
	c.mu.Unlock()
	return c.Conn.GetData(ctx, key, readerID, deliver)
}

func (c *captureConn) captured() (string, func(Delivery)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deliver == nil {
		panic("captureConn: no registration captured")
	}
	return c.readerID, c.deliver
}

// TestHoldLooksAgainAfterCollect: a put or a get-data finds key's register
// and then locks it, and in between the last reader of the never-written
// key may leave (collect). What it then locks must be the register the
// namespace holds now, not the one it found: TestLinearizabilityErrReader hung one run in two hundred on
// registrations made on such a register, which no put ever relays to.
func TestHoldLooksAgainAfterCollect(t *testing.T) {
	s := NewServer(0)
	found := s.lookup("k", true)
	s.collect("k")
	r := s.hold("k", true)
	r.mu.Unlock()
	if r == found || r != s.lookup("k", false) {
		t.Error("after collect: hold locked the register found before it, not the namespace's")
	}
}

// readerCount returns the number of readers registered on key.
func (s *Server) readerCount(key string) int {
	r := s.lookup(key, false)
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.readers)
}

// add is addLocked behind the lock.
func (st *readState) add(d Delivery) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.addLocked(d)
}

// hang silently crashes server i: it stops answering but connections
// do not fail. Its registered readers are likewise dropped, and told
// nothing.
func (l *Loopback) hang(i int) {
	l.mu.Lock()
	l.hung[i].Store(true)
	l.mu.Unlock()
	l.servers[i].Load().dropAll(nil)
}

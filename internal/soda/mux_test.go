package soda

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMuxInterleavedUnary drives many concurrent exchanges over ONE
// multiplexed connection: per-goroutine keys, pipelined put-data and
// get-tag, every response routed back to the exchange that issued it.
// The server's connection count proves the multiplexing is real.
func TestMuxInterleavedUnary(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	addrs, servers := startTCPServers(t, 1)
	c := TCPMuxConn(0, addrs[0])
	defer c.Close()

	const goroutines, each = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("mux/key-%d", g)
			for j := 1; j <= each; j++ {
				tag := Tag{TS: uint64(j), Writer: fmt.Sprintf("g%d", g)}
				elem := []byte{byte(g), byte(j)}
				if err := c.PutData(ctx, key, tag, elem, 2); err != nil {
					t.Errorf("g%d put %d: %v", g, j, err)
					return
				}
				got, err := c.GetTag(ctx, key)
				if err != nil {
					t.Errorf("g%d get-tag %d: %v", g, j, err)
					return
				}
				// The response must be for OUR key's exchange: a cross-wired
				// request id would surface another goroutine's tag.
				if got != tag {
					t.Errorf("g%d: GetTag = %v, want %v (response misrouted?)", g, got, tag)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := servers[0].NumConns(); n != 1 {
		t.Fatalf("%d goroutines × %d pipelined exchanges used %d connections, want 1", goroutines, each, n)
	}
	snap := servers[0].core.MetricsSnapshot()
	if snap.PutDatas != goroutines*each || snap.GetTags != goroutines*each {
		t.Fatalf("server counted %d puts / %d get-tags, want %d each", snap.PutDatas, snap.GetTags, goroutines*each)
	}
	if snap.Registers != goroutines {
		t.Fatalf("namespace holds %d registers, want %d", snap.Registers, goroutines)
	}
}

// TestMuxRelayStreamSharesConnection runs a standing relay stream and
// a burst of pipelined put-datas over the same single connection: the
// stream sees the puts, the puts see their acks, and nobody dials.
func TestMuxRelayStreamSharesConnection(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	addrs, servers := startTCPServers(t, 1)
	c := TCPMuxConn(0, addrs[0])
	defer c.Close()

	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var streamed atomic.Int64
	got := make(chan Delivery, 256)
	errCh := make(chan error, 1)
	go func() {
		errCh <- c.GetData(subCtx, testKey, "sub#mux", func(d Delivery) {
			streamed.Add(1)
			got <- d
		})
	}()
	first := <-got
	if !first.Initial || !first.Tag.IsZero() {
		t.Fatalf("initial delivery = %+v", first)
	}

	const puts = 100
	for j := 1; j <= puts; j++ {
		tag := Tag{TS: uint64(j), Writer: "w"}
		if err := c.PutData(ctx, testKey, tag, []byte{byte(j)}, 1); err != nil {
			t.Fatalf("put %d: %v", j, err)
		}
	}
	// Every put relays to the registered reader; deliveries are ordered
	// per connection, so the stream ends exactly at the last tag.
	deadline := time.After(10 * time.Second)
	var last Delivery
	for i := 0; i < puts; i++ {
		select {
		case last = <-got:
		case <-deadline:
			t.Fatalf("stream delivered %d/%d relays", i, puts)
		}
	}
	if last.Tag.TS != puts || !bytes.Equal(last.Elem, []byte{byte(puts)}) {
		t.Fatalf("last relay = %+v, want tag TS %d", last, puts)
	}
	if n := servers[0].NumConns(); n != 1 {
		t.Fatalf("stream + %d puts used %d connections, want 1", puts, n)
	}
	cancel()
	if err := <-errCh; err != nil {
		t.Fatalf("GetData after cancel = %v", err)
	}
	// The cancellation's reader-done reaches the server and drops the
	// registration.
	waitUntil := time.Now().Add(5 * time.Second)
	for servers[0].core.Readers(testKey) != 0 {
		if time.Now().After(waitUntil) {
			t.Fatalf("server still holds %d registrations after reader-done", servers[0].core.Readers(testKey))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMuxIgnoresUnknownRequestIDs pins the demux rule: a response
// carrying a request id nobody is waiting for is dropped on the floor,
// and the real response still reaches its exchange.
func TestMuxIgnoresUnknownRequestIDs(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	want := Tag{TS: 42, Writer: "real"}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		payload, err := readFrame(bufio.NewReader(conn), nil)
		if err != nil {
			return
		}
		var req request
		if decodeRequest(payload, &req) != nil {
			return
		}
		// A stray response for an exchange that does not exist, then the
		// real one.
		writeFrame(conn, appendResponse(nil, &response{typ: msgTagResp, id: req.id + 999, epoch: SeedEpoch, tag: Tag{TS: 1, Writer: "bogus"}}))
		writeFrame(conn, appendResponse(nil, &response{typ: msgTagResp, id: req.id, epoch: SeedEpoch, tag: want}))
	}()

	c := TCPMuxConn(0, ln.Addr().String())
	defer c.Close()
	got, err := c.GetTag(ctx, testKey)
	if err != nil {
		t.Fatalf("GetTag: %v", err)
	}
	if got != want {
		t.Fatalf("GetTag = %v, want %v (stray response misrouted)", got, want)
	}
}

// TestMuxStalledPeerUnblocksWriters: a peer that accepts the connection
// and never reads must not hold a write — and everyone queued behind it
// on wmu — forever. The write-stall deadline fails the stuck write, the
// session is torn down like after any failed write, and the next
// operation redials.
func TestMuxStalledPeerUnblocksWriters(t *testing.T) {
	checkNoLeaks(t)
	defer func(d time.Duration) { writeStall = d }(writeStall)
	writeStall = 200 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				close(accepted)
				return
			}
			accepted <- conn // held open, never read
		}
	}()
	defer func() {
		ln.Close()
		for conn := range accepted {
			conn.Close()
		}
	}()

	c := TCPMuxConn(0, ln.Addr().String())
	defer c.Close()
	ctx, cancel := context.WithTimeout(testCtx(t), 300*time.Millisecond)
	defer cancel()

	start := time.Now()
	putErr := make(chan error, 1)
	go func() {
		// Far more than the socket buffers hold: the write must stall.
		putErr <- c.PutData(ctx, testKey, Tag{TS: 1, Writer: "w"}, make([]byte, 8<<20), 8<<20)
	}()
	// A second exchange, queued behind the stalled write.
	time.Sleep(50 * time.Millisecond)
	tagErr := make(chan error, 1)
	go func() {
		_, err := c.GetTag(ctx, testKey)
		tagErr <- err
	}()
	var ne net.Error
	for name, ch := range map[string]chan error{"PutData": putErr, "GetTag": tagErr} {
		select {
		case err := <-ch:
			if err == nil {
				t.Fatalf("%s to a peer that never reads succeeded", name)
			}
			if name == "PutData" && (!errors.As(err, &ne) || !ne.Timeout()) {
				t.Fatalf("stalled PutData = %v, want the write deadline's timeout", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still blocked %v after its context expired", name, time.Since(start)-300*time.Millisecond)
		}
	}
	c.mu.Lock()
	torn := c.sess == nil
	c.mu.Unlock()
	if !torn {
		t.Fatal("session survived a stalled write")
	}
	// The next operation dials a fresh connection (which this peer also
	// ignores, so the exchange itself ends with the context).
	cctx, ccancel := context.WithTimeout(testCtx(t), 100*time.Millisecond)
	defer ccancel()
	if _, err := c.GetTag(cctx, testKey); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("GetTag after the teardown = %v", err)
	}
	if len(accepted) != 2 {
		t.Fatalf("peer saw %d connections, want 2 (the stalled one and a redial)", len(accepted))
	}
}

// TestMuxConnSurvivesBadRequests sends malformed keys and garbage
// request types over one mux connection and proves the connection —
// and every exchange multiplexed after the bad ones — keeps working.
func TestMuxConnSurvivesBadRequests(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	addrs, servers := startTCPServers(t, 1)
	c := TCPMuxConn(0, addrs[0])
	defer c.Close()

	// A healthy exchange first, so the connection exists.
	if _, err := c.GetTag(ctx, testKey); err != nil {
		t.Fatalf("GetTag: %v", err)
	}

	// Empty key: the server rejects the request on its id; the error
	// comes back as a RemoteError through the same demux path.
	var re *RemoteError
	if _, err := c.GetTag(ctx, ""); !errors.As(err, &re) {
		t.Fatalf("empty key produced %v, want *RemoteError", err)
	}
	// Oversized key: same.
	if _, err := c.GetTag(ctx, strings.Repeat("k", maxKeyLen+50)); !errors.As(err, &re) {
		t.Fatalf("oversized key produced %v, want *RemoteError", err)
	}
	// Garbage type byte injected through the raw frame path under a
	// pending unary id: the error frame routes back to this exchange.
	s, err := c.session(ctx)
	if err != nil {
		t.Fatal(err)
	}
	garbage := make(chanWaiter, 1)
	c.mu.Lock()
	c.waiting[1<<40] = muxExchange{w: garbage, want: msgAck}
	c.mu.Unlock()
	frame := binary.BigEndian.AppendUint32(nil, headerLen)
	if _, err := s.conn.Write(appendHeader(frame, 0xEE, 1<<40, SeedEpoch)); err != nil {
		t.Fatal(err)
	}
	if rerr := (<-garbage).err; !errors.As(rerr, &re) || !strings.Contains(re.Msg, "unknown message type") {
		t.Fatalf("garbage type byte produced %v, want *RemoteError", rerr)
	}

	// The SAME connection still serves real traffic.
	tag := Tag{TS: 7, Writer: "w"}
	if err := c.PutData(ctx, testKey, tag, []byte{1}, 1); err != nil {
		t.Fatalf("PutData after bad requests: %v", err)
	}
	got, err := c.GetTag(ctx, testKey)
	if err != nil || got != tag {
		t.Fatalf("GetTag after bad requests = %v, %v", got, err)
	}
	if n := servers[0].NumConns(); n != 1 {
		t.Fatalf("bad requests forced a redial: %d connections", n)
	}
}

// TestRawConnSurvivesGarbageRequestID exercises the server over a raw
// TCP connection: a framed unknown-type message with an arbitrary
// request id gets an error echoing that id, and the connection then
// serves a well-formed request — only headerless frames are fatal.
func TestRawConnSurvivesGarbageRequestID(t *testing.T) {
	checkNoLeaks(t)
	addrs, _ := startTCPServers(t, 1)
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	if err := writeFrame(conn, appendHeader(nil, 0xEE, 0xFEEDFACE, SeedEpoch)); err != nil {
		t.Fatal(err)
	}
	payload, err := readFrame(br, nil)
	if err != nil {
		t.Fatalf("no error frame came back: %v", err)
	}
	var resp response
	rerr := decodeResponse(payload, msgError, &resp)
	var re *RemoteError
	if resp.id != 0xFEEDFACE || !errors.As(rerr, &re) {
		t.Fatalf("error frame = req %d, %v; want the echoed garbage id", resp.id, rerr)
	}

	// Same connection, now a real request.
	if err := writeFrame(conn, appendRequest(nil, &request{typ: msgGetTag, id: 5, epoch: SeedEpoch, key: testKey})); err != nil {
		t.Fatal(err)
	}
	payload, err = readFrame(br, nil)
	if err != nil {
		t.Fatalf("connection died after the garbage request: %v", err)
	}
	if err := decodeResponse(payload, msgTagResp, &resp); err != nil || resp.id != 5 || !resp.tag.IsZero() {
		t.Fatalf("tag-resp after garbage = req %d tag %v, %v", resp.id, resp.tag, err)
	}
}

// TestConnWriterBatchesFlushes pins the write-side coalescing: frames
// queued while the writer is busy go to the wire in a handful of
// flushes, not one syscall per frame.
func TestConnWriterBatchesFlushes(t *testing.T) {
	checkNoLeaks(t)
	client, srv := net.Pipe()
	defer client.Close()
	const frames = 48
	w := newConnWriter(srv, frames)
	// Preload the queue before the writer goroutine starts: every frame
	// is waiting when the first drain begins, so all of them must
	// coalesce into one buffered batch.
	for i := 1; i <= frames; i++ {
		if !w.send(frame(&response{typ: msgAck, id: uint64(i), epoch: SeedEpoch})) {
			t.Fatalf("send %d refused", i)
		}
	}
	done := make(chan struct{})
	go func() {
		w.run()
		close(done)
	}()
	br := bufio.NewReader(client)
	for i := 1; i <= frames; i++ {
		payload, err := readFrame(br, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var resp response
		if err := decodeResponse(payload, msgAck, &resp); err != nil || resp.id != uint64(i) {
			t.Fatalf("frame %d = req %d, %v (reordered?)", i, resp.id, err)
		}
	}
	w.shutdown()
	<-done
	if w.flushes < 1 || w.flushes > 3 {
		t.Fatalf("%d frames took %d flushes, want 1-3 (coalescing broken)", frames, w.flushes)
	}
}

// TestMuxRedialsAfterServerRestart: losing the connection fails the
// in-flight exchanges, and the next operation lazily redials — the
// singleflight path — once the server is back.
func TestMuxRedialsAfterServerRestart(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	srv := NewServer(0)
	ns, err := ListenAndServe(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ns.Addr()
	c := TCPMuxConn(0, addr, WithDialRetry(1, Backoff{Base: time.Millisecond}))
	defer c.Close()

	tag := Tag{TS: 3, Writer: "w"}
	if err := c.PutData(ctx, testKey, tag, []byte{1}, 1); err != nil {
		t.Fatalf("PutData: %v", err)
	}
	ns.Close()
	// The dead connection surfaces as an error on some operation soon
	// after (the teardown may race the next call, which then redials
	// against the closed port and fails too — both are failures).
	failBy := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.GetTag(ctx, testKey); err != nil {
			break
		}
		if time.Now().After(failBy) {
			t.Fatal("operations kept succeeding against a closed server")
		}
	}
	// Server restarts on the same address with its storage intact.
	ns2, err := ListenAndServe(srv, addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ns2.Close()
	got, err := c.GetTag(ctx, testKey)
	if err != nil {
		t.Fatalf("GetTag after restart: %v", err)
	}
	if got != tag {
		t.Fatalf("GetTag after restart = %v, want %v", got, tag)
	}
}

// TestMuxEndToEndCluster runs the full protocol stack — Writer and
// Reader quorums, relay-completed reads — over a 5-server TCP cluster
// on persistent multiplexed connections, and proves the whole run used
// exactly one connection per server.
func TestMuxEndToEndCluster(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	addrs, servers := startTCPServers(t, 5)
	conns := TCPMuxConns(addrs)
	defer CloseConns(conns)
	w := mustWriter(t, "w1", codec, conns, WithWriterFaults(0)) // every server must list every key below
	r := mustReader(t, "r1", codec, conns)

	keys := []string{"alpha", "beta", "gamma"}
	tags := make(map[string]Tag)
	for round := 0; round < 3; round++ {
		for _, key := range keys {
			v := []byte(fmt.Sprintf("%s-%d", key, round))
			tag, err := w.Write(ctx, key, v)
			if err != nil {
				t.Fatalf("Write(%s, %d): %v", key, round, err)
			}
			tags[key] = tag
			res, err := r.Read(ctx, key)
			if err != nil {
				t.Fatalf("Read(%s, %d): %v", key, round, err)
			}
			if res.Tag != tag || !bytes.Equal(res.Value, v) {
				t.Fatalf("Read(%s) = %v %q, want %v %q", key, res.Tag, res.Value, tag, v)
			}
		}
	}
	for i, s := range servers {
		if n := s.NumConns(); n != 1 {
			t.Fatalf("server %d saw %d connections across the whole run, want 1", i, n)
		}
		if keys, err := conns[i].Keys(ctx); err != nil || len(keys) != 3 {
			t.Fatalf("server %d Keys = %v, %v", i, keys, err)
		}
	}
}

// TestMultiKeyKillRepairRejoinSoak is the namespace-scale version of
// the kill-repair-rejoin proof: concurrent writers and readers over
// MANY keys, servers crashing and rejoining mid-traffic, the
// anti-entropy loop healing every key it finds via the key-union scan,
// and a per-key linearizability check over the full history. Run under
// -race in CI.
func TestMultiKeyKillRepairRejoinSoak(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 9, 3)
	m := NewMembership(9)
	rp := mustRepairer(t, codec, lb.Conns(), m,
		WithRepairInterval(20*time.Millisecond),
		WithRepairBackoff(Backoff{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond}))

	rpCtx, rpCancel := context.WithCancel(ctx)
	rpDone := make(chan struct{})
	go func() {
		defer close(rpDone)
		rp.Run(rpCtx)
	}()
	defer func() {
		rpCancel()
		<-rpDone
	}()

	keys := make([]string, 6)
	hs := make(map[string]*history, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("soak/key-%02d", i)
		hs[keys[i]] = &history{}
	}

	stop := make(chan struct{})
	const writers, readers, minOps = 2, 2, 18
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		w := mustWriter(t, fmt.Sprintf("w%d", wi), codec, lb.Conns(), WithWriterMembership(m))
		wg.Add(1)
		go func(wi int, w *Writer) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					if j >= minOps {
						return
					}
				default:
				}
				key := keys[(wi+j)%len(keys)]
				h := hs[key]
				value := fmt.Sprintf("%s=w%d-%d", key, wi, j)
				inv := h.begin()
				tag, err := w.Write(ctx, key, []byte(value))
				if err != nil {
					t.Errorf("writer %d op %d on %s: %v", wi, j, key, err)
					return
				}
				h.end(true, inv, tag, value)
			}
		}(wi, w)
	}
	for ri := 0; ri < readers; ri++ {
		r := mustReader(t, fmt.Sprintf("r%d", ri), codec, lb.Conns(),
			WithReaderFaults(2), WithReadErrors(2), WithReaderMembership(m))
		wg.Add(1)
		go func(ri int, r *Reader) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					if j >= minOps {
						return
					}
				default:
				}
				key := keys[(ri*3+j)%len(keys)]
				h := hs[key]
				inv := h.begin()
				res, err := r.Read(ctx, key)
				if err != nil {
					t.Errorf("reader %d op %d on %s: %v", ri, j, key, err)
					return
				}
				h.end(false, inv, res.Tag, string(res.Value))
			}
		}(ri, r)
	}

	// Kill-repair-rejoin cycles, a different server each time; the
	// repair loop must heal every key the dead server missed, not just
	// one register.
	for cyc, s := range []int{4, 7, 2} {
		lb.Crash(s)
		m.MarkSuspect(s, ErrServerDown)
		time.Sleep(25 * time.Millisecond) // traffic rides through the hole
		lb.Restart(s)
		actx, acancel := context.WithTimeout(ctx, 15*time.Second)
		err := m.AwaitLive(actx, s)
		acancel()
		if err != nil {
			t.Fatalf("cycle %d: server %d never repaired: %v (health %v, cause %v)",
				cyc, s, err, m.Health(s), m.Cause(s))
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, key := range keys {
		hs[key].check(t)
		if t.Failed() {
			t.Fatalf("linearizability violated on key %s", key)
		}
	}

	// After the dust settles every server holds every written key at a
	// tag no older than the completed writes require; spot-check that
	// the namespace healed by reading each key at full strength.
	r := mustReader(t, "rz", codec, lb.Conns(), WithReaderFaults(0), WithReadErrors(2))
	for _, key := range keys {
		res, err := r.Read(ctx, key)
		if err != nil {
			t.Fatalf("final read of %s: %v", key, err)
		}
		if len(res.Corrupt) != 0 {
			t.Fatalf("final read of %s names corrupt servers: %v", key, res.Corrupt)
		}
		if res.Tag.IsZero() {
			t.Fatalf("final read of %s returned the initial state after the soak", key)
		}
	}
}

// waitNoReaders polls until the server holds zero registrations on
// key — teardown is asynchronous with the client call returning.
func waitNoReaders(t *testing.T, s *Server, key string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Readers(key) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server still holds %d registrations on %s", s.Readers(key), key)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMuxStreamCleanupOnCancel: the baseline exit path — a reader
// cancels mid-stream, the reader-done frame lands, and the server's
// registration count returns to zero.
func TestMuxStreamCleanupOnCancel(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	addrs, servers := startTCPServers(t, 1)
	c := TCPMuxConn(0, addrs[0])
	defer c.Close()

	subCtx, cancel := context.WithCancel(ctx)
	got := make(chan Delivery, 16)
	errCh := make(chan error, 1)
	go func() {
		errCh <- c.GetData(subCtx, testKey, "r#cancel", func(d Delivery) { got <- d })
	}()
	<-got // initial delivery: the stream is live
	if servers[0].core.Readers(testKey) != 1 {
		t.Fatalf("registrations = %d, want 1", servers[0].core.Readers(testKey))
	}
	cancel()
	if err := <-errCh; err != nil {
		t.Fatalf("GetData after cancel = %v", err)
	}
	waitNoReaders(t, servers[0].core, testKey)
	c.mu.Lock()
	n := len(c.waiting)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("client still tracks %d streams after cancel", n)
	}
}

// TestMuxStreamCleanupOnConnClose: closing the MuxConn mid-stream
// (session fail() teardown) must unregister the reader server-side —
// the conn close is the reader-done.
func TestMuxStreamCleanupOnConnClose(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	addrs, servers := startTCPServers(t, 1)
	c := TCPMuxConn(0, addrs[0])

	got := make(chan Delivery, 16)
	errCh := make(chan error, 1)
	go func() {
		errCh <- c.GetData(ctx, testKey, "r#close", func(d Delivery) { got <- d })
	}()
	<-got
	c.Close()
	if err := <-errCh; err == nil {
		t.Fatal("GetData returned nil after its conn closed under it")
	}
	waitNoReaders(t, servers[0].core, testKey)
	c.mu.Lock()
	n := len(c.waiting)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("client still tracks %d streams after Close", n)
	}
}

// TestMuxStreamCleanupOnServerLoss: the server dies mid-stream (the
// reader errors out). The client must drop the stream entry instead
// of pinning the sink until the next successful exchange.
func TestMuxStreamCleanupOnServerLoss(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	addrs, servers := startTCPServers(t, 1)
	c := TCPMuxConn(0, addrs[0])
	defer c.Close()

	got := make(chan Delivery, 16)
	errCh := make(chan error, 1)
	go func() {
		errCh <- c.GetData(ctx, testKey, "r#loss", func(d Delivery) { got <- d })
	}()
	<-got
	servers[0].Close() // kills every conn; the session dies
	if err := <-errCh; err == nil {
		t.Fatal("GetData returned nil after the server died under it")
	}
	if n := servers[0].core.Readers(testKey); n != 0 {
		t.Fatalf("dead server's conn teardown left %d registrations", n)
	}
	c.mu.Lock()
	n := len(c.waiting)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("client still tracks %d streams after session death", n)
	}
}

// TestMuxGetDataDeadContextNeverRegisters: a context that is already
// cancelled when GetData is called must not open a server-side
// registration at all — there is no one to tear it down.
func TestMuxGetDataDeadContextNeverRegisters(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	addrs, servers := startTCPServers(t, 1)
	c := TCPMuxConn(0, addrs[0])
	defer c.Close()
	// Prime the session so the cancelled call cannot hide behind a
	// dial failure.
	if _, err := c.GetTag(ctx, testKey); err != nil {
		t.Fatalf("GetTag: %v", err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if err := c.GetData(dead, testKey, "r#dead", func(Delivery) {}); err != nil {
		t.Fatalf("GetData with a dead context = %v, want nil (the cancel exit)", err)
	}
	if n := servers[0].core.Readers(testKey); n != 0 {
		t.Fatalf("dead-context GetData registered %d readers", n)
	}
	c.mu.Lock()
	n := len(c.waiting)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("dead-context GetData left %d stream entries", n)
	}
}

// A Writer or Reader sends a MuxConn's exchanges from its own goroutine
// and has them answered on the conn's pump, where that takes no waiting,
// and owes a leg everything else. The tests below hold raw, wrapped and
// mixed conn sets over sockets to the same behaviour, as inline_test.go
// does over the loopback, and pin what makes a MuxConn refuse.

// legsSeen wraps, in place, the conns a client was built on. The client
// resolved what each conn can do when it was built, so what it sends
// itself still goes to the raw conn; a leg takes its conn from the set,
// and is counted.
func legsSeen(conns []Conn) *exchanges {
	seen := &exchanges{}
	for i, c := range conns {
		conns[i] = countedConn{c, seen}
	}
	return seen
}

func (e *exchanges) total() int64 { return e.getTags.Load() + e.putDatas.Load() + e.getDatas.Load() }

// sockCounter keeps what each Write call on a session's socket wrote.
type sockCounter struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *sockCounter) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, bytes.Clone(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// count reports the Write calls that carried a request, those that
// carried reader-dones only, and those that carried both.
func (c *sockCounter) count(t *testing.T) (requests, donesOnly, both int) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.writes {
		dones, others := 0, 0
		for len(p) > 0 {
			n := int(binary.BigEndian.Uint32(p))
			if p[4] == msgReaderDone {
				dones++
			} else {
				others++
			}
			p = p[4+n:]
		}
		switch {
		case others == 0:
			donesOnly++
		case dones > 0:
			both++
			fallthrough
		default:
			requests++
		}
	}
	return requests, donesOnly, both
}

// countWrites puts a sockCounter under the live session of each conn,
// which has answered an exchange already: its pump has the socket it
// reads from.
func countWrites(t *testing.T, conns []Conn) []*sockCounter {
	t.Helper()
	out := make([]*sockCounter, len(conns))
	for i, c := range conns {
		mc := c.(*MuxConn)
		mc.wmu.Lock()
		mc.mu.Lock()
		if mc.sess == nil {
			t.Fatalf("conn %d has no session", i)
		}
		out[i] = &sockCounter{Conn: mc.sess.conn}
		mc.sess.conn = out[i]
		mc.mu.Unlock()
		mc.wmu.Unlock()
	}
	return out
}

// unanswered is what c's session has written that no answer vouches for.
func unanswered(c *MuxConn) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sess == nil {
		return 0
	}
	return c.sess.sent - c.sess.answered
}

// TestMuxSteadyStateStartsNothing: once its conns are dialed, a Writer
// and Reader over raw MuxConns take no goroutine to a 128 B write or read —
// no leg makes an exchange, and no goroutine is left that was not there —
// and the client's side of a write is ten socket writes, of a read five:
// the reader-dones of one read go out in the writes of the next operation.
func TestMuxSteadyStateStartsNothing(t *testing.T) {
	checkNoLeaks(t)
	const ops = 200
	ctx := testCtx(t)
	codec, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	conns, servers := startTCPCluster(t, 5)
	raw := slices.Clone(conns)
	w := mustWriter(t, "w", codec, conns, WithWriterFaults(0))
	r := mustReader(t, "r", codec, conns)
	value := make([]byte, 128)
	if _, err := w.Write(ctx, testKey, value); err != nil { // dials, on legs
		t.Fatal(err)
	}
	waitFor(t, "the dialing write's legs", legsHome)
	seen := legsSeen(conns)
	socks := countWrites(t, raw)
	goroutines := startedGoroutines()
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("k%02d", i%17)
		value[0] = byte(i)
		if _, err := w.Write(ctx, key, value); err != nil {
			t.Fatal(err)
		}
		if res, err := r.Read(ctx, key); err != nil || !bytes.Equal(res.Value, value) {
			t.Fatalf("read %d = %v, %v", i, res.Value, err)
		}
	}
	var requests, donesOnly, both int
	for _, s := range socks {
		r, d, b := s.count(t)
		requests, donesOnly, both = requests+r, donesOnly+d, both+b
	}
	// The one thing a lone client can find a conn busy with is the flusher
	// in its write, when a millisecond passed between a read and the next
	// frame to that server (a loaded machine, the race detector): the frame
	// that met it went on a leg, which makes two exchanges of a write.
	if n := seen.total(); n > 2*int64(donesOnly) {
		t.Errorf("legs made %d exchanges (%d get-tags, %d put-datas, %d get-datas) in %d steady-state writes and reads, and the flusher wrote %d times",
			n, seen.getTags.Load(), seen.putDatas.Load(), seen.getDatas.Load(), ops, donesOnly)
	}
	if got := startedGoroutines(); got > goroutines {
		t.Errorf("%d goroutines before %d writes and reads, %d after", goroutines, ops, got)
	}
	// A read that completes on four answers may not send the fifth get-data.
	if requests > 15*ops || requests < 14*ops {
		t.Errorf("%d socket writes carried a request in %d writes and reads, want ten to a write and five (or four) to a read", requests, ops)
	}
	// The flusher's turn comes when a millisecond passes between a read and
	// the next write to the same server: rarely, on a loaded machine.
	if donesOnly > ops/4 || both < 4*ops {
		t.Errorf("%d socket writes carried reader-dones alone and %d with a request, in %d reads of five servers", donesOnly, both, ops)
	}
	// An idle conn set: the last read's reader-dones leave on their own.
	deadline := time.Now().Add(50 * time.Millisecond)
	for i := 0; i < len(servers); {
		if servers[i].core.MetricsSnapshot().Registrations == 0 {
			i++
		} else if time.Now().After(deadline) {
			t.Fatalf("server %d still holds a registration 50 ms after the last read", i)
		}
	}
}

// muxSchedule plays the op stream seed names — writes and reads of three
// keys from one goroutine, most values small, some with elements past
// callerSendMax, some with elements that change hands — on conns, with
// f = 0 on both sides so that every operation has an exchange with every
// server, and returns what each came to and what every server counted and
// holds at the end.
func muxSchedule(t *testing.T, seed int64, codec *Codec, conns []Conn, cores []*Server) (ops []diffOp, final []string) {
	t.Helper()
	ctx := testCtx(t)
	w := mustWriter(t, "w", codec, conns, WithWriterFaults(0))
	r := mustReader(t, "r", codec, conns, WithReaderFaults(0))
	rng := rand.New(rand.NewSource(seed))
	keys := []string{"diff/a", "diff/b", "diff/c"}
	for step := 0; step < 200; step++ {
		key := keys[rng.Intn(len(keys))]
		op := diffOp{}
		var err error
		if rng.Intn(2) == 0 {
			size := 1 + rng.Intn(300)
			switch rng.Intn(16) {
			case 0:
				size = 3*elemHandoffMin + rng.Intn(1000)
			case 1, 2:
				size = 3*callerSendMax + rng.Intn(1000)
			}
			op.value = make([]byte, size)
			rng.Read(op.value)
			op.desc = fmt.Sprintf("step %d: write %s (%d B)", step, key, size)
			op.tag, err = w.Write(ctx, key, op.value)
		} else {
			var res ReadResult
			op.desc = fmt.Sprintf("step %d: read %s", step, key)
			res, err = r.Read(ctx, key)
			op.tag, op.value = res.Tag, res.Value
		}
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, op.desc, err)
		}
		ops = append(ops, op)
	}
	waitFor(t, "the last operation's legs", legsHome)
	for s, core := range cores {
		waitFor(t, "the last reads' registrations to end", func() bool { return core.MetricsSnapshot().Registrations == 0 })
		m := core.MetricsSnapshot()
		final = append(final, fmt.Sprintf("get-tags: server %d served %d", s, m.GetTags),
			fmt.Sprintf("server %d served %d put-datas, %d get-datas", s, m.PutDatas, m.GetDatas))
		for _, key := range keys {
			tag, elem, vlen := core.Snapshot(key)
			final = append(final, fmt.Sprintf("%s on server %d: %v, %d B, element %08x", key, s, tag, vlen, crc32.ChecksumIEEE(elem)))
		}
	}
	return ops, final
}

// TestMuxCallerSentVsLegsSequential: one seeded op stream over raw MuxConns
// (sent from the caller wherever the conn takes it), over the same wrapped
// (every exchange on a leg) and over a loopback one of whose servers is
// reached through a socket (a MuxConn among loopConns) gives every
// operation the same tag and value and leaves every server with the same
// counts and the same (tag, vlen, element) under every key. The get-tags
// of the third run are not compared: a write whose loopback pass could not
// settle phase 0 — here, with f = 0, any — asks them all again on legs.
func TestMuxCallerSentVsLegsSequential(t *testing.T) {
	checkNoLeaks(t)
	codec, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	overSockets := func(wrap func([]Conn) []Conn) func(*testing.T) ([]Conn, []*Server) {
		return func(t *testing.T) ([]Conn, []*Server) {
			conns, servers := startTCPCluster(t, 5)
			cores := make([]*Server, len(servers))
			for i, ns := range servers {
				cores[i] = ns.core
			}
			return wrap(conns), cores
		}
	}
	oneSocket := func(t *testing.T) ([]Conn, []*Server) {
		lb := NewLoopback(5)
		ns, err := ListenAndServe(lb.Server(mixedServer), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		mc := TCPMuxConn(mixedServer, ns.Addr())
		t.Cleanup(func() {
			mc.Close()
			ns.Close()
		})
		conns, cores := lb.Conns(), make([]*Server, lb.Size())
		conns[mixedServer] = mc
		for i := range cores {
			cores[i] = lb.Server(i)
		}
		return conns, cores
	}
	for _, seed := range []int64{28, 2800} {
		conns, cores := overSockets(rawConns)(t)
		sent, sentFinal := muxSchedule(t, seed, codec, conns, cores)
		for _, other := range []struct {
			name    string
			cluster func(*testing.T) ([]Conn, []*Server)
			getTags bool
		}{{"wrapped", overSockets(opaque), true}, {"a MuxConn among loopConns", oneSocket, false}} {
			conns, cores := other.cluster(t)
			legs, legsFinal := muxSchedule(t, seed, codec, conns, cores)
			for i := range sent {
				if a, b := sent[i], legs[i]; a.desc != b.desc || a.tag != b.tag || !bytes.Equal(a.value, b.value) {
					t.Fatalf("seed %d: %s: raw tag %v (%d B), %s: %s: tag %v (%d B)", seed, a.desc, a.tag, len(a.value), other.name, b.desc, b.tag, len(b.value))
				}
			}
			for i := range sentFinal {
				if sentFinal[i] != legsFinal[i] && (other.getTags || !strings.HasPrefix(sentFinal[i], "get-tags:")) {
					t.Fatalf("seed %d: raw: %s; %s: %s", seed, sentFinal[i], other.name, legsFinal[i])
				}
			}
		}
	}
}

// TestMuxCallerSentVsLegsConcurrent: four clients share five servers behind
// sockets and three keys — two on one set of raw MuxConns, so that each
// finds the other writing to a conn now and then and sends that exchange on
// a leg, one on wrapped conns, one on a set with one conn wrapped. Every
// value read must carry its key and an intact CRC, and every key's history
// must pass lin_test.go's real-time rules.
func TestMuxCallerSentVsLegsConcurrent(t *testing.T) {
	checkNoLeaks(t)
	codec, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startTCPServers(t, 5)
	sets := make([][]Conn, 3)
	for i := range sets {
		sets[i] = TCPMuxConns(addrs)
		t.Cleanup(func() { CloseConns(sets[i]) })
	}
	diffConcurrent(t, codec, func(client int) []Conn {
		return [][]Conn{sets[0], opaque(sets[1]), sets[0], mixedConns(slices.Clone(sets[2]))}[client]
	}, nil)
}

// TestMuxStalledPeerNeverParksCallers: one of five servers accepts its
// connection and never reads. Writes and reads complete on the other four,
// none taking anywhere near writeStall: the stalled server's frames are
// sent from the caller while what it has not answered fits callerSendMax —
// the socket takes them without a wait — and by legs from then on, which
// wait in the caller's place.
func TestMuxStalledPeerNeverParksCallers(t *testing.T) {
	checkNoLeaks(t)
	const stalled, limit = 2, time.Second // writeStall is ten
	ctx := testCtx(t)
	codec, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, conn) // held open, never read
		}
	}()
	addrs, _ := startTCPServers(t, 5)
	addrs[stalled] = ln.Addr().String()
	conns := TCPMuxConns(addrs)
	defer func() {
		CloseConns(conns)
		ln.Close()
		<-accepting
		for _, conn := range held {
			conn.Close()
		}
	}()
	mc := conns[stalled].(*MuxConn)
	w := mustWriter(t, "w", codec, conns)
	r := mustReader(t, "r", codec, conns)
	seen := legsSeen(conns)

	value := make([]byte, 128)
	var slowest [2]time.Duration // before the bound trips, and after
	tripped, opsSince := 0, 0
	for i := 0; opsSince < 100; i++ {
		if i == 2000 {
			t.Fatalf("callerSendMax never tripped: %d bytes unanswered after %d operations", unanswered(mc), 2*i)
		}
		legs := seen.total()
		start := time.Now()
		value[0] = byte(i)
		if _, err := w.Write(ctx, testKey, value); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if res, err := r.Read(ctx, testKey); err != nil || !bytes.Equal(res.Value, value) {
			t.Fatalf("read %d = %v, %v", i, res.Value, err)
		}
		slowest[tripped] = max(slowest[tripped], time.Since(start))
		// Once its session is up, the stalled conn alone gives legs work.
		if i > 0 && tripped == 0 && seen.total() > legs && unanswered(mc) > callerSendMax/2 {
			tripped = 1
		}
		opsSince += tripped
	}
	if n := unanswered(mc); n <= callerSendMax {
		t.Fatalf("%d bytes unanswered on the stalled conn: the legs have not been writing to it", n)
	}
	for i, d := range slowest {
		if d > limit {
			t.Errorf("a write and read took %v with a stalled server (%v), want well under %v", d, []string{"frames sent from the caller", "frames on legs"}[i], limit)
		}
	}
}

// countWaiter counts how often it is completed.
type countWaiter struct{ n atomic.Int32 }

func (w *countWaiter) answer(*MuxConn, *response, error) { w.n.Add(1) }

// TestMuxServerKilledMidPhase: two hundred times over, a server is
// closed under clients in the middle of their writes and reads and brought
// back on its address. Every exchange that was registered on its conn is
// completed exactly once — by its answer or by the teardown, never both
// (a second completion of a pooled call state panics in release) — every
// operation that had f to spare succeeds, and every value read is one that
// was written.
func TestMuxServerKilledMidPhase(t *testing.T) {
	checkNoLeaks(t)
	const rounds = 200
	ctx := testCtx(t)
	codec, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	addrs, servers := startTCPServers(t, 5)
	conns := TCPMuxConns(addrs, WithDialRetry(1, Backoff{}), WithDialTimeout(time.Second))
	defer CloseConns(conns)
	w := mustWriter(t, "w", codec, conns)
	r := mustReader(t, "r", codec, conns)
	if _, err := w.Write(ctx, "kill/0", diffValue(rand.New(rand.NewSource(1)), 0, 0, 0)); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var unavailable atomic.Int64
	var wg sync.WaitGroup
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for j := 0; !stop.Load(); j++ {
				ki := rng.Intn(3)
				key := fmt.Sprintf("kill/%d", ki)
				var err error
				if j%2 == 0 {
					_, err = w.Write(ctx, key, diffValue(rng, ki, c, j))
				} else {
					var res ReadResult
					res, err = r.Read(ctx, key)
					if v := res.Value; err == nil && len(v) > 0 && (len(v) < 16 || int(binary.LittleEndian.Uint32(v)) != ki ||
						binary.LittleEndian.Uint32(v[len(v)-4:]) != crc32.Checksum(v[:len(v)-4], castagnoli)) {
						t.Errorf("client %d read %d of %s: value fails its own check", c, j, key)
						return
					}
				}
				// Two rounds' victims inside one operation are more than f.
				if errors.Is(err, ErrUnavailable) {
					unavailable.Add(1)
				} else if err != nil {
					t.Errorf("client %d op %d: %v", c, j, err)
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(28))
	var probes []*countWaiter
	for round := 0; round < rounds && !t.Failed(); round++ {
		victim := rng.Intn(len(servers))
		mc := conns[victim].(*MuxConn)
		for i := 0; i < 3; i++ {
			if p := new(countWaiter); mc.getTagStart("kill/0", p) {
				probes = append(probes, p)
			}
		}
		time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		servers[victim].Close()
		ns, err := ListenAndServe(servers[victim].core, addrs[victim])
		for tries := 0; err != nil && tries < 100; tries++ {
			time.Sleep(time.Millisecond)
			ns, err = ListenAndServe(servers[victim].core, addrs[victim])
		}
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Skipf("could not rebind %s: %v", addrs[victim], err)
		}
		t.Cleanup(func() { ns.Close() })
		servers[victim] = ns
		time.Sleep(time.Duration(rng.Intn(1000)) * time.Microsecond)
	}
	stop.Store(true)
	wg.Wait()
	CloseConns(conns) // what is still registered is completed now
	if len(probes) < rounds {
		t.Errorf("only %d probe exchanges were sent from the caller in %d rounds", len(probes), rounds)
	}
	for i, p := range probes {
		if n := p.n.Load(); n != 1 {
			t.Fatalf("probe exchange %d was completed %d times", i, n)
		}
	}
	t.Logf("%d operations met two dead servers", unavailable.Load())
	for _, ns := range servers {
		waitFor(t, "the closed conns' registrations to end", func() bool { return ns.core.MetricsSnapshot().Registrations == 0 })
	}
}

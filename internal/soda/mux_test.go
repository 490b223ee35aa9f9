package soda

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rs"
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
	payload, err := c.unary(ctx, &request{typ: 0xEE, epoch: SeedEpoch})
	if err != nil {
		t.Fatalf("unary: %v", err)
	}
	if rerr := decodeResponse(payload, msgAck, &response{}); !errors.As(rerr, &re) || !strings.Contains(re.Msg, "unknown message type") {
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
	codec, lb := newCluster(t, 9, 3, rs.WithGenerator(rs.GeneratorRSView))
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
	n := len(c.streams)
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
	n := len(c.streams)
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
	n := len(c.streams)
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
	n := len(c.streams)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("dead-context GetData left %d stream entries", n)
	}
}

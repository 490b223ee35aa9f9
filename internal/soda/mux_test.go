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
	c := testMuxConn(0, addrs[0])
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
	if n := servers[0].numConns(); n != 1 {
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
	c := testMuxConn(0, addrs[0])
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
	if n := servers[0].numConns(); n != 1 {
		t.Fatalf("stream + %d puts used %d connections, want 1", puts, n)
	}
	cancel()
	if err := <-errCh; err != nil {
		t.Fatalf("GetData after cancel = %v", err)
	}
	// The cancellation's reader-done reaches the server and drops the
	// registration.
	waitUntil := time.Now().Add(5 * time.Second)
	for servers[0].core.readerCount(testKey) != 0 {
		if time.Now().After(waitUntil) {
			t.Fatalf("server still holds %d registrations after reader-done", servers[0].core.readerCount(testKey))
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

	c := testMuxConn(0, ln.Addr().String())
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
// and never reads must not hold the session's writer in a socket write —
// and every exchange queued behind it — forever. The write-stall deadline
// fails the stuck write, the session is torn down like after any failed
// write, and the next operation redials.
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

	c := testMuxConn(0, ln.Addr().String())
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
	c := testMuxConn(0, addrs[0])
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
	if n := servers[0].numConns(); n != 1 {
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

// TestConnWriterBatchesFlushes pins the write-side coalescing on both ends
// of a connection: frames queued while the writer is busy go to the wire in
// a handful of socket writes, not one syscall per frame.
func TestConnWriterBatchesFlushes(t *testing.T) {
	const frames = 48
	t.Run("a NetServer connection's", func(t *testing.T) {
		checkNoLeaks(t)
		client, srv := net.Pipe()
		defer client.Close()
		sock := &sockCounter{Conn: srv}
		w := newConnWriter(sock, frames, func(error) { srv.Close() })
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
		if n := countFrames(t, sock).writes; n < 1 || n > 3 {
			t.Fatalf("%d frames took %d socket writes, want 1-3 (coalescing broken)", frames, n)
		}
	})
	// A MuxConn's exchanges are queued by whoever makes them: the first
	// frame takes the session's writer into a socket write the test holds,
	// and the callers' frames queued meanwhile leave together after it.
	t.Run("a MuxConn session's", func(t *testing.T) {
		checkNoLeaks(t)
		addrs, _ := startTCPServers(t, 1)
		c := testMuxConn(0, addrs[0])
		defer c.Close()
		sock := plug(t, c, &sockCounter{held: make(chan struct{})})
		waiters := make([]*countWaiter, frames+1)
		for i := range waiters {
			waiters[i] = new(countWaiter)
			if _, err := c.getTagStep(testKey, waiters[i]); err != errTaken {
				t.Fatalf("get-tag %d = %v, want it taken", i, err)
			}
			if i == 0 {
				waitFor(t, "the writer's first socket write", func() bool { return countFrames(t, sock).writes == 1 })
			}
		}
		close(sock.held)
		waitFor(t, "every answer", func() bool {
			for _, w := range waiters {
				if w.n.Load() != 1 {
					return false
				}
			}
			return true
		})
		if n := countFrames(t, sock).writes - 1; n < 1 || n > 3 {
			t.Fatalf("%d frames queued behind a busy writer took %d socket writes, want 1-3 (coalescing broken)", frames, n)
		}
	})
}

// TestMuxRedialsAfterServerRestart: losing the connection fails the
// in-flight exchanges, and the next operation lazily redials — the
// conn's own dial — once the server is back.
func TestMuxRedialsAfterServerRestart(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	srv := NewServer(0)
	ns, err := ListenAndServe(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ns.Addr()
	c := testMuxConn(0, addr, withDialRetry(1, backoff{base: time.Millisecond}))
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

// waitNoReaders polls until the server holds zero registrations on
// key — teardown is asynchronous with the client call returning.
func waitNoReaders(t *testing.T, s *Server, key string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.readerCount(key) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server still holds %d registrations on %s", s.readerCount(key), key)
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
	c := testMuxConn(0, addrs[0])
	defer c.Close()

	subCtx, cancel := context.WithCancel(ctx)
	got := make(chan Delivery, 16)
	errCh := make(chan error, 1)
	go func() {
		errCh <- c.GetData(subCtx, testKey, "r#cancel", func(d Delivery) { got <- d })
	}()
	<-got // initial delivery: the stream is live
	if servers[0].core.readerCount(testKey) != 1 {
		t.Fatalf("registrations = %d, want 1", servers[0].core.readerCount(testKey))
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
	c := testMuxConn(0, addrs[0])

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
	c := testMuxConn(0, addrs[0])
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
	if n := servers[0].core.readerCount(testKey); n != 0 {
		t.Fatalf("dead server's conn teardown left %d registrations", n)
	}
	c.mu.Lock()
	n := len(c.waiting)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("client still tracks %d streams after session death", n)
	}
}

// TestMuxFlipEndsEveryStreamOnce: a seal sweeps the streams a MuxConn has
// open on one server with a single epoch-nack on request id 0. The pump
// answers each stream's waiter once, with the sealed stale-epoch NACK, and
// takes it out of the table; the session lives on and answers the next
// exchange.
func TestMuxFlipEndsEveryStreamOnce(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	addrs, servers := startTCPServers(t, 1)
	core := servers[0].core
	c := testMuxConn(0, addrs[0])
	defer c.Close()
	if _, err := c.Keys(ctx); err != nil { // a step is sent only on a live session
		t.Fatal(err)
	}
	ends := make([]*endCount, 8)
	for i := range ends {
		ends[i] = &endCount{}
		if _, err := c.getDataStep(testKey, fmt.Sprintf("r%d", i), ends[i], func(Delivery) {}); err != errTaken {
			t.Fatalf("get-data %d = %v, want it taken", i, err)
		}
	}
	waitFor(t, "every registration", func() bool { return core.readerCount(testKey) == len(ends) })
	if _, err := core.Reconfig(ReconfigSeal, SeedEpoch+1, 5, 3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every stream's end", func() bool {
		for _, e := range ends {
			if e.answers.Load() == 0 {
				return false
			}
		}
		return true
	})
	if _, err := c.Keys(ctx); err != nil {
		t.Fatalf("keys after the seal: %v", err)
	}
	for i, e := range ends {
		e.mu.Lock()
		err := e.err
		e.mu.Unlock()
		var se *StaleEpochError
		if n := e.answers.Load(); n != 1 || !errors.As(err, &se) || !se.Sealed || se.Want != SeedEpoch+1 || se.Server != 0 {
			t.Fatalf("stream %d ended %d times, last with %v; want once, with server 0's sealed NACK wanting epoch %d", i, n, err, SeedEpoch+1)
		}
	}
	c.mu.Lock()
	left := len(c.waiting)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d exchanges left in the table", left)
	}
	if n := servers[0].numConns(); n != 1 {
		t.Fatalf("%d connections, want the one session", n)
	}
}

// TestMuxSharedDialOutlivesItsWinner: exchanges with a server not yet
// dialed share one dial, which belongs to the conn. When the caller that
// started it gives up — a leg of an operation that has returned — it gets
// its own context's error, and one still waiting gets the session that
// same dial brings once the server is up.
func TestMuxSharedDialOutlivesItsWinner(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // refused until the server below is up
	c := testMuxConn(0, addr, withDialRetry(5000, backoff{base: 2 * time.Millisecond, max: 2 * time.Millisecond}))
	defer c.Close()
	starterCtx, giveUp := context.WithCancel(ctx)
	starter, waiter := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := c.session(starterCtx)
		starter <- err
	}()
	waitFor(t, "the first dial", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.dialing != nil
	})
	go func() {
		_, err := c.session(ctx)
		waiter <- err
	}()
	waitFor(t, "a second caller to join the dial", func() bool {
		n := 0
		for _, g := range goroutineStanzas() {
			if strings.Contains(g, "(*MuxConn).session(") {
				n++
			}
		}
		return n == 2
	})
	giveUp()
	if err := <-starter; !errors.Is(err, context.Canceled) {
		t.Fatalf("the caller that started the dial and gave up got %v, want its context's error", err)
	}
	ns, err := ListenAndServe(NewServer(0), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	select {
	case err := <-waiter:
		if err != nil {
			t.Fatalf("a caller still waiting failed with the dial its starter left: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("a caller still waiting never got its session")
	}
}

// TestMuxDialOutlivesTheWriteThatStartedIt: an F=1 write returns on four
// servers while the fifth still refuses. The dial the write's leg started
// is the conn's, so once the fifth server listens its conn holds a session
// with no further operation.
func TestMuxDialOutlivesTheWriteThatStartedIt(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startTCPServers(t, 4)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	late := ln.Addr().String()
	ln.Close() // refused until the server below is up
	mc := testMuxConn(4, late, withDialRetry(5000, backoff{base: 2 * time.Millisecond, max: 2 * time.Millisecond}))
	conns := append(TCPMuxConns(addrs), mc)
	defer CloseConns(conns)
	w := mustWriterOn(t, "w", &Config{Codec: codec, Conns: conns, F: 1})
	if _, err := w.Write(ctx, testKey, []byte("written on four servers")); err != nil {
		t.Fatalf("F=1 write with the fifth server refusing: %v", err)
	}
	ns, err := ListenAndServe(NewServer(4), late)
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	for {
		mc.mu.Lock()
		up := mc.sess != nil
		mc.mu.Unlock()
		if up {
			return
		}
		if ctx.Err() != nil {
			t.Fatal("the fifth conn got no session after its server came up: the write that started its dial ended it")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMuxCloseEndsABackingOffDial: Close during a dial that sleeps between
// attempts ends the dial at once, and an exchange waiting on it fails with
// the conn closed.
func TestMuxCloseEndsABackingOffDial(t *testing.T) {
	checkNoLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	c := testMuxConn(0, dead, withDialRetry(2, backoff{base: time.Hour, max: time.Hour}))
	errc := make(chan error, 1)
	go func() {
		_, err := c.session(testCtx(t))
		errc <- err
	}()
	waitFor(t, "the dial to back off", func() bool {
		for _, g := range goroutineStanzas() {
			if strings.Contains(g, "(*backoff).sleep(") {
				return true
			}
		}
		return false
	})
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, errConnClosed) {
			t.Fatalf("an exchange waiting on the dial got %v after Close, want errConnClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the dial backing off")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dialing != nil {
		t.Fatal("the dial outlived Close")
	}
}

// TestMuxGetDataDeadContextNeverRegisters: a context that is already
// cancelled when GetData is called must not open a server-side
// registration at all — there is no one to tear it down.
func TestMuxGetDataDeadContextNeverRegisters(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	addrs, servers := startTCPServers(t, 1)
	c := testMuxConn(0, addrs[0])
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
	if n := servers[0].core.readerCount(testKey); n != 0 {
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

// sockCounter keeps what each Write call on a socket wrote. With held set,
// each Write then waits for held to close.
type sockCounter struct {
	net.Conn
	held   chan struct{}
	mu     sync.Mutex
	writes [][]byte
}

func (c *sockCounter) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, bytes.Clone(p))
	c.mu.Unlock()
	if c.held != nil {
		<-c.held
	}
	return c.Conn.Write(p)
}

// sockCount is what a sockCounter saw: the frames that carried a request,
// the reader-dones, those of them that shared a socket write with a
// request, the socket writes that carried reader-dones alone, and the
// socket writes.
type sockCount struct{ requests, dones, riding, donesOnly, writes int }

// countFrames reads the frames in each socket write of socks; a frame
// must not straddle two (a write carries all of a batch of small frames).
func countFrames(t *testing.T, socks ...*sockCounter) (n sockCount) {
	t.Helper()
	for _, c := range socks {
		c.mu.Lock()
		for _, p := range c.writes {
			dones, others := 0, 0
			for len(p) > 0 {
				size := 4 + int(binary.BigEndian.Uint32(p))
				if size > len(p) {
					t.Fatalf("a %d byte frame straddles a socket write", size)
				}
				if p[4] == msgReaderDone {
					dones++
				} else {
					others++
				}
				p = p[size:]
			}
			n.requests += others
			n.dones += dones
			if others == 0 {
				n.donesOnly++
			} else {
				n.riding += dones
			}
		}
		n.writes += len(c.writes)
		c.mu.Unlock()
	}
	return n
}

// plug tears c's session down, if it has one, and opens a fresh one on a
// connection seen through sock: every socket write of the session's writer
// goes through sock. Nothing may be in flight on c.
func plug(t *testing.T, c *MuxConn, sock *sockCounter) *sockCounter {
	t.Helper()
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		t.Fatal(err)
	}
	// One exchange before the session opens: once the server has answered
	// it, every goroutine the server keeps for the connection is running.
	if _, err := conn.Write(appendFrame(nil, &request{typ: msgKeys, id: 1, epoch: c.Epoch()})); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(bufio.NewReader(conn), nil); err != nil {
		t.Fatal(err)
	}
	sock.Conn = conn
	c.mu.Lock()
	old := c.sess
	c.mu.Unlock()
	if old != nil {
		c.teardown(old, errConnClosed)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sess != nil {
		t.Fatal("the conn dialed a session of its own")
	}
	c.open(sock)
	return sock
}

// countWrites plugs a sockCounter under each conn.
func countWrites(t *testing.T, conns []Conn) []*sockCounter {
	t.Helper()
	out := make([]*sockCounter, len(conns))
	for i, c := range conns {
		out[i] = plug(t, c.(*MuxConn), &sockCounter{})
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
// and the client's side of a write is ten frames, of a read five, in no
// more socket writes than frames: the reader-dones of one read go out in
// the socket writes of the next operation.
func TestMuxSteadyStateStartsNothing(t *testing.T) {
	checkNoLeaks(t)
	const ops = 200
	ctx := testCtx(t)
	c := on("sockets", 0).cluster(t, 5, 3)
	codec, conns := c.codec, c.conns()
	raw := slices.Clone(conns)
	w := mustWriterOn(t, "w", &Config{Codec: codec, Conns: conns, F: 0})
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
	n := countFrames(t, socks...)
	// A conn takes every frame a lone client queues: its session is up, and
	// what no answer vouches for stays far inside callerSendMax.
	if legs := seen.total(); legs != 0 {
		t.Errorf("legs made %d exchanges (%d get-tags, %d put-datas, %d get-datas) in %d steady-state writes and reads",
			legs, seen.getTags.Load(), seen.putDatas.Load(), seen.getDatas.Load(), ops)
	}
	if got := startedGoroutines(); got > goroutines {
		t.Errorf("%d goroutines before %d writes and reads, %d after", goroutines, ops, got)
	}
	// A read that completes on four answers may not send the fifth get-data.
	if n.requests > 15*ops || n.requests < 14*ops {
		t.Errorf("%d frames carried a request in %d writes and reads, want ten to a write and five (or four) to a read", n.requests, ops)
	}
	// The flusher's turn comes when a millisecond passes between a read and
	// the next write to the same server: rarely, on a loaded machine.
	if n.donesOnly > ops/4 || n.riding < 4*ops {
		t.Errorf("%d socket writes carried reader-dones alone and %d reader-dones rode with a request, in %d reads of five servers", n.donesOnly, n.riding, ops)
	}
	if frames := n.requests + n.dones; n.writes > frames {
		t.Errorf("%d frames took %d socket writes", frames, n.writes)
	}
	// An idle conn set: the last read's reader-dones leave on their own.
	deadline := time.Now().Add(50 * time.Millisecond)
	for i := 0; i < c.n; {
		if c.server(i).MetricsSnapshot().Registrations == 0 {
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
	w := mustWriterOn(t, "w", &Config{Codec: codec, Conns: conns, F: 0})
	r := mustReaderOn(t, "r", &Config{Codec: codec, Conns: conns, F: 0})
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
// counts and the same (tag, vlen, element) under every key — get-tags
// included: however a write's tag quorum is made up, no server is asked
// twice.
func TestMuxCallerSentVsLegsSequential(t *testing.T) {
	checkNoLeaks(t)
	codec, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	overSockets := func(wrap func([]Conn) []Conn) func(*testing.T) ([]Conn, []*Server) {
		return func(t *testing.T) ([]Conn, []*Server) {
			c := on("sockets", 0).cluster(t, 5, 3)
			return wrap(c.conns()), c.cores
		}
	}
	oneSocket := func(t *testing.T) ([]Conn, []*Server) {
		lb := NewLoopback(5)
		ns, err := ListenAndServe(lb.Server(mixedServer), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		mc := testMuxConn(mixedServer, ns.Addr())
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
		}{{"wrapped", overSockets(opaque)}, {"a MuxConn among loopConns", oneSocket}} {
			conns, cores := other.cluster(t)
			legs, legsFinal := muxSchedule(t, seed, codec, conns, cores)
			for i := range sent {
				if a, b := sent[i], legs[i]; a.desc != b.desc || a.tag != b.tag || !bytes.Equal(a.value, b.value) {
					t.Fatalf("seed %d: %s: raw tag %v (%d B), %s: %s: tag %v (%d B)", seed, a.desc, a.tag, len(a.value), other.name, b.desc, b.tag, len(b.value))
				}
			}
			for i := range sentFinal {
				if sentFinal[i] != legsFinal[i] {
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

// logKillCase logs every server's tag for key and which case of
// TestMuxServerKilledMidPhase's failures the cluster is in.
func logKillCase(t *testing.T, cores []*Server, key string, k int) {
	tags := make([]Tag, len(cores))
	var newest Tag
	for i, s := range cores {
		tags[i], _, _ = s.Snapshot(key)
		if newest.Less(tags[i]) {
			newest = tags[i]
		}
	}
	held := 0
	for _, tag := range tags {
		if tag == newest {
			held++
		}
	}
	label := "case 1"
	if held < k {
		label = "case 2"
	}
	t.Logf("%s: %s: tags %v; newest %v held by %d servers, k = %d", label, key, tags, newest, held, k)
}

// countWaiter counts how often it is completed.
type countWaiter struct{ n atomic.Int32 }

func (w *countWaiter) answer(int, *response, error) { w.n.Add(1) }

func (w *countWaiter) take(byte) waiter { return w }

// TestMuxServerKilledMidPhase: two hundred times over, a server is
// closed under clients in the middle of their writes and reads and brought
// back on its address. Every exchange that was registered on its conn is
// completed exactly once — by its answer or by the teardown, never both
// (a second completion of a pooled call state panics in release) — every
// operation that had f to spare succeeds, and every value read is one that
// was written. A failed operation logs which of two known cases it is:
// "case 1" when the newest tag on any server is held by at least k of them
// (a restarted server holds what the read needs, but nothing asks it
// again), "case 2" when fewer hold it (a write ended without n − f acks).
func TestMuxServerKilledMidPhase(t *testing.T) {
	checkNoLeaks(t)
	const rounds = 200
	ctx := testCtx(t)
	codec, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	addrs, servers := startTCPServers(t, 5)
	conns := make([]Conn, len(addrs))
	for i, a := range addrs {
		conns[i] = testMuxConn(i, a, withDialRetry(1, backoff{}), withDialTimeout(time.Second))
	}
	defer CloseConns(conns)
	w := mustWriter(t, "w", codec, conns)
	r := mustReader(t, "r", codec, conns)
	if _, err := w.Write(ctx, "kill/0", diffValue(rand.New(rand.NewSource(1)), 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	// The kill loop reassigns servers[i], so clients read the cores,
	// which every restart keeps.
	cores := make([]*Server, len(servers))
	for i, ns := range servers {
		cores[i] = ns.core
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
					logKillCase(t, cores, key, codec.K())
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
			p := new(countWaiter)
			if _, err := mc.getTagStep("kill/0", p); err == errTaken {
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
	// The pump answers an exchange it took from the table after unlocking
	// mu, so CloseConns can return before that answer lands: wait for it.
	for i, p := range probes {
		for p.n.Load() == 0 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		if n := p.n.Load(); n != 1 {
			t.Fatalf("probe exchange %d was completed %d times", i, n)
		}
	}
	t.Logf("%d operations met two dead servers", unavailable.Load())
	for _, ns := range servers {
		waitFor(t, "the closed conns' registrations to end", func() bool { return ns.core.MetricsSnapshot().Registrations == 0 })
	}
}

package soda

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// startTCPCluster brings up n NetServers on ephemeral localhost ports
// and returns their conns, closed at cleanup.
func startTCPCluster(t *testing.T, n int) ([]Conn, []*NetServer) {
	t.Helper()
	addrs, servers := startTCPServers(t, n)
	conns := TCPMuxConns(addrs)
	t.Cleanup(func() { CloseConns(conns) })
	return conns, servers
}

func startTCPServers(t *testing.T, n int) ([]string, []*NetServer) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*NetServer, n)
	for i := 0; i < n; i++ {
		ns, err := ListenAndServe(NewServer(i), "127.0.0.1:0")
		if err != nil {
			t.Fatalf("ListenAndServe(%d): %v", i, err)
		}
		t.Cleanup(func() { ns.Close() })
		servers[i] = ns
		addrs[i] = ns.Addr()
	}
	return addrs, servers
}

// TestTCPEndToEnd runs the protocol over real localhost TCP: a write,
// a read, a server crash (listener closed), and a write/read pair
// that ride through it on the n-f quorums.
func TestTCPEndToEnd(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	conns, servers := startTCPCluster(t, 5)
	w := mustWriter(t, "w1", codec, conns)
	r := mustReader(t, "r1", codec, conns)

	v1 := []byte("over the wire this time")
	tag1, err := w.Write(ctx, testKey, v1)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	res, err := r.Read(ctx, testKey)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if res.Tag != tag1 || !bytes.Equal(res.Value, v1) {
		t.Fatalf("Read = %v %q, want %v %q", res.Tag, res.Value, tag1, v1)
	}

	// Crash server 0: connections are refused from here on.
	servers[0].Close()
	v2 := []byte("written around the crashed server")
	tag2, err := w.Write(ctx, testKey, v2)
	if err != nil {
		t.Fatalf("Write after crash: %v", err)
	}
	res, err = r.Read(ctx, testKey)
	if err != nil {
		t.Fatalf("Read after crash: %v", err)
	}
	if res.Tag != tag2 || !bytes.Equal(res.Value, v2) {
		t.Fatalf("Read = %v %q, want %v %q", res.Tag, res.Value, tag2, v2)
	}
}

// TestTCPRelayStream pins the streaming half of the TCP transport: a
// standing get-data subscription receives the initial snapshot and
// then one relayed delivery per put that lands on the server, scoped
// to the subscribed key only.
func TestTCPRelayStream(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	conns, _ := startTCPCluster(t, 5)
	// f=0: Write returns on n-f acks, so only a full ack quorum
	// guarantees that server 2 — the one subscribed to below — holds
	// every write by the time it does.
	w := mustWriter(t, "w1", codec, conns, WithWriterFaults(0))
	v1 := []byte("subscription smoke value")
	tag1, err := w.Write(ctx, testKey, v1)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}

	// Subscribe to server 2 directly.
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	got := make(chan Delivery, 16)
	errCh := make(chan error, 1)
	go func() {
		errCh <- conns[2].GetData(subCtx, testKey, "sub#1", func(d Delivery) { got <- d })
	}()
	first := <-got
	if !first.Initial || first.Tag != tag1 || first.Server != 2 {
		t.Fatalf("initial delivery = %+v", first)
	}

	// A write to a different key must not reach this stream.
	if _, err := w.Write(ctx, testKey+"/other", []byte("different register")); err != nil {
		t.Fatalf("Write other key: %v", err)
	}

	v2 := []byte("relayed while subscribed")
	tag2, err := w.Write(ctx, testKey, v2)
	if err != nil {
		t.Fatalf("Write 2: %v", err)
	}
	shards2, _ := codec.EncodeValue(v2)
	select {
	case d := <-got:
		if d.Initial || d.Tag != tag2 || !bytes.Equal(d.Elem, shards2[2]) || d.VLen != len(v2) {
			t.Fatalf("relayed delivery = %+v (cross-key leak?)", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no relayed delivery arrived")
	}

	// Cancelling unsubscribes cleanly (nil error) and the server
	// forgets the reader.
	cancel()
	if err := <-errCh; err != nil {
		t.Fatalf("GetData returned %v after cancel", err)
	}
}

// TestTCPRepairRPCs exercises the repair wire messages end to end over
// real TCP: element collection returns what the server holds, key
// enumeration lists written keys, and the repair install enforces the
// tag floor remotely exactly as it does in-process.
func TestTCPRepairRPCs(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	conns, servers := startTCPCluster(t, 1)
	c := conns[0]

	// Empty register: zero tag, no element, no keys.
	tag, elem, vlen, err := c.GetElem(ctx, testKey)
	if err != nil || !tag.IsZero() || len(elem) != 0 || vlen != 0 {
		t.Fatalf("GetElem on empty server = %v %v %d, %v", tag, elem, vlen, err)
	}
	if keys, err := c.Keys(ctx); err != nil || len(keys) != 0 {
		t.Fatalf("Keys on empty server = %v, %v", keys, err)
	}

	t5 := Tag{TS: 5, Writer: "w"}
	if err := c.PutData(ctx, testKey, t5, []byte{1, 2, 3}, 9); err != nil {
		t.Fatalf("PutData: %v", err)
	}
	tag, elem, vlen, err = c.GetElem(ctx, testKey)
	if err != nil || tag != t5 || vlen != 9 || !bytes.Equal(elem, []byte{1, 2, 3}) {
		t.Fatalf("GetElem = %v %v %d, %v", tag, elem, vlen, err)
	}
	if keys, err := c.Keys(ctx); err != nil || len(keys) != 1 || keys[0] != testKey {
		t.Fatalf("Keys = %v, %v", keys, err)
	}

	// Install below the current tag: rejected, state unchanged.
	if ok, err := c.RepairPut(ctx, testKey, Tag{TS: 4, Writer: "w"}, []byte{7}, 1); err != nil || ok {
		t.Fatalf("RepairPut below current = %v, %v", ok, err)
	}
	if got, _, _ := servers[0].core.Snapshot(testKey); got != t5 {
		t.Fatalf("rejected remote repair mutated the server: %v", got)
	}
	// At or above: installed.
	t6 := Tag{TS: 6, Writer: "w"}
	if ok, err := c.RepairPut(ctx, testKey, t6, []byte{9, 9}, 2); err != nil || !ok {
		t.Fatalf("RepairPut above current = %v, %v", ok, err)
	}
	tag, elem, _, err = c.GetElem(ctx, testKey)
	if err != nil || tag != t6 || !bytes.Equal(elem, []byte{9, 9}) {
		t.Fatalf("GetElem after repair = %v %v, %v", tag, elem, err)
	}
}

// TestTCPUnknownTypeByte sends garbage at a server and pins the two
// error tiers: a framed message with an unknown type byte (or a
// malformed body) gets an explicit error frame echoing its request id
// and the connection survives; a frame too short to even carry a
// header gets a connection-level error (request id 0).
func TestTCPUnknownTypeByte(t *testing.T) {
	checkNoLeaks(t)
	addrs, _ := startTCPServers(t, 1)
	// exchange sends one raw frame on a fresh connection and decodes the
	// error frame that answers it.
	exchange := func(payload []byte) (uint64, *RemoteError) {
		t.Helper()
		conn, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeFrame(conn, payload); err != nil {
			t.Fatal(err)
		}
		answer, err := readFrame(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("no frame came back: %v", err)
		}
		var resp response
		var re *RemoteError
		if err := decodeResponse(answer, msgError, &resp); !errors.As(err, &re) {
			t.Fatalf("answer decodes to %v, want a *RemoteError", err)
		}
		return resp.id, re
	}

	// Unknown type byte under a well-formed header.
	req, re := exchange(appendHeader(nil, 0xFF, 7, SeedEpoch))
	if req != 7 || re.Msg != "unknown message type 0xff" {
		t.Fatalf("garbage type byte produced req %d, %q; want the id echoed", req, re.Msg)
	}

	// A malformed known-type message gets the same treatment.
	req, re = exchange(append(appendHeader(nil, msgPutData, 9, SeedEpoch), 0xDE, 0xAD))
	if req != 9 || !strings.HasPrefix(re.Msg, "malformed put-data: ") {
		t.Fatalf("truncated put-data produced req %d, %q", req, re.Msg)
	}

	// A headerless frame cannot be answered on a request id: the server
	// sends a connection-level error (request id 0) and closes.
	if req, re = exchange([]byte{0xFF}); req != 0 {
		t.Fatalf("headerless frame produced req %d, %q; want a request-id-0 error", req, re.Msg)
	}

	// Over the client, a connection-level error fails the exchange that
	// provoked it with the server's words, and the next one redials.
	c := TCPMuxConn(0, addrs[0])
	defer c.Close()
	ctx := testCtx(t)
	s, err := c.session(ctx)
	if err != nil {
		t.Fatal(err)
	}
	died := make(chanWaiter, 1)
	c.mu.Lock()
	c.waiting[1<<40] = muxExchange{w: died, want: msgAck}
	c.mu.Unlock()
	if _, err := s.conn.Write([]byte{0, 0, 0, 1, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := (<-died).err; !errors.As(err, &re) || !strings.HasPrefix(re.Msg, "short frame") {
		t.Fatalf("session died with %v, want the server's short-frame error", err)
	}
	if _, err := c.GetTag(ctx, testKey); err != nil {
		t.Fatalf("GetTag after a connection-level error: %v", err)
	}
}

// TestTCPDialRetryTimeout pins the client dial policy: refused dials
// are retried on the backoff schedule and then surface the dial error,
// and the operation context cuts both the dial and the backoff sleep
// short.
func TestTCPDialRetryTimeout(t *testing.T) {
	checkNoLeaks(t)
	// A dead address: grab an ephemeral port, then close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	ctx := testCtx(t)
	c := TCPMuxConn(0, dead, WithDialRetry(3, Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond}))
	defer c.Close()
	start := time.Now()
	if _, err := c.GetTag(ctx, testKey); err == nil {
		t.Fatal("GetTag against a dead address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("retries against a refused address took %v", elapsed)
	}

	// Cancellation aborts the inter-attempt backoff immediately.
	slow := TCPMuxConn(0, dead, WithDialRetry(100, Backoff{Base: time.Hour}))
	defer slow.Close()
	cctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start = time.Now()
	if _, err := slow.GetTag(cctx, testKey); err == nil {
		t.Fatal("GetTag under a cancelled context succeeded")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v to cut the backoff short", elapsed)
	}

	// And a write still completes when one address in the cluster is
	// dead: the fault budget absorbs the failed dials.
	codec, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	conns, _ := startTCPCluster(t, 5)
	conns[0] = TCPMuxConn(0, dead, WithDialRetry(1, Backoff{Base: time.Millisecond}))
	w := mustWriter(t, "w1", codec, conns)
	if _, err := w.Write(testCtx(t), testKey, []byte("around the dead address")); err != nil {
		t.Fatalf("Write with one dead address: %v", err)
	}
}

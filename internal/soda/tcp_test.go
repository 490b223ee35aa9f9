package soda

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

func startTCPServers(t testing.TB, n int) ([]string, []*NetServer) {
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

// TestTCPClientsFollowTheEpoch runs MuxConns past the seed epoch: every
// server of a TCP cluster flips to epoch 1 (same [5,3]) under a written
// key. A writer on a view that never flips is NACKed with the stale epoch,
// naming the server that refused it; a write and a read on the shared view,
// parked on the NACK, complete once a Config over conns stamped with epoch 1
// is installed, and the pre-flip value reads back through the new conns.
func TestTCPClientsFollowTheEpoch(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	addrs, servers := startTCPServers(t, 5)
	conns0 := TCPMuxConns(addrs)
	defer CloseConns(conns0)
	view, err := NewConfigView(&Config{Codec: codec, Conns: conns0, F: -1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := view.Writer("w")
	if err != nil {
		t.Fatal(err)
	}
	r, err := view.Reader("r")
	if err != nil {
		t.Fatal(err)
	}
	// A conn with no session when the parked write's pass runs is not
	// asked once two NACKs have failed the write: an F=0 write first, so
	// every conn has answered and holds its session.
	if _, err := mustWriterOn(t, "warm", &Config{Codec: codec, Conns: conns0, F: 0}).Write(ctx, testKey+"/warm", []byte("warm-up")); err != nil {
		t.Fatalf("warm-up write: %v", err)
	}
	v0 := []byte("written at epoch 0 over sockets")
	tag0, err := w.Write(ctx, testKey, v0)
	if err != nil {
		t.Fatalf("Write at epoch 0: %v", err)
	}

	nacks := func() (n uint64, per []uint64) {
		for _, ns := range servers {
			per = append(per, ns.core.MetricsSnapshot().EpochNacks)
			n += per[len(per)-1]
		}
		return n, per
	}
	for i, ns := range servers {
		for _, op := range []ReconfigOp{ReconfigSeal, ReconfigActivate} {
			if _, err := ns.core.Reconfig(op, 1, 5, 3); err != nil {
				t.Fatalf("server %d: %v", i, err)
			}
		}
	}
	_, err = mustWriter(t, "w-old", codec, conns0).Write(ctx, testKey, []byte("from the past"))
	var se *StaleEpochError
	if !errors.Is(err, ErrStaleEpoch) || !errors.As(err, &se) || se.Want != 1 || se.ServerEpoch != 1 {
		t.Fatalf("epoch-0 writer on a view that never flips = %v, want the stale-epoch NACK wanting epoch 1", err)
	}
	if se.Server < 0 || se.Server >= len(servers) {
		t.Fatalf("stale-epoch NACK names server %d, want the index of the one that sent it", se.Server)
	}

	// The view's clients, still on the epoch-0 conns, park on the NACK: the
	// write's get-tag pass asks all five servers, the read fails on its
	// second refusal.
	before, perBefore := nacks()
	wErr, rErr := make(chan error, 1), make(chan error, 1)
	v1 := []byte("parked on the NACK")
	go func() {
		_, err := w.Write(ctx, testKey+"/parked", v1)
		wErr <- err
	}()
	// awaitNacks is waitFor, saying how many NACKs came, and which servers
	// sent none, if too few did.
	awaitNacks := func(what string, want uint64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			n, per := nacks()
			if n >= before+want {
				return
			}
			if time.Now().After(deadline) {
				var silent []int
				for i := range per {
					if per[i] == perBefore[i] {
						silent = append(silent, i)
					}
				}
				t.Fatalf("timed out waiting for %s: %d of %d NACKs came, none from servers %v", what, n-before, want, silent)
			}
		}
	}
	awaitNacks("the write NACKed by every server", 5)
	go func() {
		res, err := r.Read(ctx, testKey)
		if err == nil && (res.Tag != tag0 || !bytes.Equal(res.Value, v0)) {
			err = fmt.Errorf("read %v %q, want %v %q", res.Tag, res.Value, tag0, v0)
		}
		rErr <- err
	}()
	awaitNacks("the read NACKed", 7)
	select {
	case err := <-wErr:
		t.Fatalf("Write NACKed with the view at epoch 0 returned %v", err)
	case err := <-rErr:
		t.Fatalf("Read NACKed with the view at epoch 0 returned %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	conns1 := TCPMuxConnsAt(1, addrs)
	defer CloseConns(conns1)
	if err := view.Install(&Config{Codec: codec, Conns: conns1, F: -1}); err != nil {
		t.Fatal(err)
	}
	if err := <-wErr; err != nil {
		t.Fatalf("parked Write after the install: %v", err)
	}
	if err := <-rErr; err != nil {
		t.Fatalf("parked Read after the install: %v", err)
	}
	res, err := r.Read(ctx, testKey+"/parked")
	if err != nil || !bytes.Equal(res.Value, v1) {
		t.Fatalf("Read of the parked write at epoch 1 = %q, %v", res.Value, err)
	}
	if got := view.Current().Epoch(); got != 1 {
		t.Fatalf("view at epoch %d", got)
	}
}

// TestTCPRepairRPCs runs one script of blocking exchanges through the
// conns of both transports — the in-process loopback and a NetServer over
// MuxConns — and requires the same result from each at every step: the
// repair messages return what the server holds and enforce the tag floor,
// and a seal then an activation move which exchanges each epoch admits,
// StaleEpochError fields, Server included, alike. The loopback admits
// its blocking exchanges by the message table the NetServer dispatches
// through, so the table alone decides both.
func TestTCPRepairRPCs(t *testing.T) {
	checkNoLeaks(t)
	var first []string
	for _, tc := range []struct {
		name  string
		conns func(t *testing.T) (at0, at1 Conn) // one server, stamping epochs 0 and 1
	}{
		{"loopback", func(t *testing.T) (Conn, Conn) {
			lb := NewLoopback(1)
			return lb.ConnsAt(SeedEpoch, 1)[0], lb.ConnsAt(1, 1)[0]
		}},
		{"mux", func(t *testing.T) (Conn, Conn) {
			addrs, _ := startTCPServers(t, 1)
			at0, at1 := TCPMuxConnsAt(SeedEpoch, addrs), TCPMuxConnsAt(1, addrs)
			t.Cleanup(func() { CloseConns(at0); CloseConns(at1) })
			return at0[0], at1[0]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			at0, at1 := tc.conns(t)
			got := repairRPCScript(t, testCtx(t), at0, at1)
			if first == nil {
				first = got
				return
			}
			for i := range got {
				if got[i] != first[i] {
					t.Errorf("step %d: %s, where loopback gave %s", i, got[i], first[i])
				}
			}
		})
	}
}

// repairRPCScript drives one server through conns stamping epochs 0 and 1,
// checks every result and returns them, one line a step.
func repairRPCScript(t *testing.T, ctx context.Context, at0, at1 Conn) []string {
	t.Helper()
	show := func(vals ...any) string {
		for i, v := range vals {
			if se, ok := v.(*StaleEpochError); ok {
				vals[i] = fmt.Sprintf("%+v", *se)
			}
		}
		return fmt.Sprint(vals...)
	}
	var lines []string
	step := func(what, got, want string) {
		t.Helper()
		if want != "" && got != want {
			t.Errorf("%s = %s, want %s", what, got, want)
		}
		lines = append(lines, what+": "+got)
	}
	getElem := func(c Conn) string {
		tag, elem, vlen, err := c.GetElem(ctx, testKey)
		return show(tag, elem, vlen, err)
	}
	keys := func(c Conn) string {
		keys, err := c.Keys(ctx)
		return show(keys, err)
	}
	getTag := func(c Conn) string {
		tag, err := c.GetTag(ctx, testKey)
		return show(tag, err)
	}
	repairPut := func(c Conn, tag Tag, elem []byte) string {
		ok, err := c.RepairPut(ctx, testKey, tag, elem, len(elem))
		return show(ok, err)
	}
	reconfig := func(op ReconfigOp) string {
		st, err := at0.Reconfig(ctx, op, 1, 1, 1)
		return show(st, err)
	}
	none := error(nil)
	t5, t6, t7 := Tag{TS: 5, Writer: "w"}, Tag{TS: 6, Writer: "w"}, Tag{TS: 7, Writer: "w"}
	sealed := &StaleEpochError{Server: 0, ServerEpoch: 0, Want: 1, Sealed: true}

	// Empty register: zero tag, no element, no keys.
	step("GetElem on an empty server", getElem(at0), show(Tag{}, []byte(nil), 0, none))
	step("Keys on an empty server", keys(at0), show([]string(nil), none))

	if err := at0.PutData(ctx, testKey, t5, []byte{1, 2, 3}, 9); err != nil {
		t.Fatalf("PutData: %v", err)
	}
	step("GetTag", getTag(at0), show(t5, none))
	step("GetElem", getElem(at0), show(t5, []byte{1, 2, 3}, 9, none))
	step("Keys", keys(at0), show([]string{testKey}, none))

	// Install below the current tag: rejected, state unchanged; at or
	// above: installed.
	step("RepairPut below current", repairPut(at0, Tag{TS: 4, Writer: "w"}, []byte{7}), show(false, none))
	step("GetElem after a refused repair", getElem(at0), show(t5, []byte{1, 2, 3}, 9, none))
	step("RepairPut above current", repairPut(at0, t6, []byte{9, 9}), show(true, none))
	step("GetElem after repair", getElem(at0), show(t6, []byte{9, 9}, 2, none))

	// Sealed for epoch 1: client exchanges are NACKed at either epoch,
	// donor reads are served at the sealed one, and repair installs only
	// at the pending one.
	step("Reconfig seal", reconfig(ReconfigSeal), "")
	step("GetTag at 0, sealed", getTag(at0), show(Tag{}, sealed))
	step("GetElem at 0, sealed", getElem(at0), show(t6, []byte{9, 9}, 2, none))
	step("Keys at 0, sealed", keys(at0), show([]string{testKey}, none))
	step("RepairPut at 0, sealed", repairPut(at0, t7, []byte{4}), show(false, sealed))
	step("RepairPut at 1, sealed", repairPut(at1, t7, []byte{4}), show(true, none))
	step("GetTag at 1, sealed", getTag(at1), show(Tag{}, sealed))

	// Active at epoch 1: served at 1, NACKed at 0.
	step("Reconfig activate", reconfig(ReconfigActivate), "")
	step("GetTag at 1, active", getTag(at1), show(t7, none))
	step("GetTag at 0, active", getTag(at0), show(Tag{}, &StaleEpochError{Server: 0, ServerEpoch: 1, Want: 1}))
	return lines
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
	c := testMuxConn(0, addrs[0])
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

// TestTCPServerCutsOffAClientThatNeverReads: a client that pipelines
// requests and never reads the answers holds its connection's writer in a
// socket write for no longer than writeStall. The write fails, the
// connection closes, and the read loop and every registration on the
// connection go with it.
func TestTCPServerCutsOffAClientThatNeverReads(t *testing.T) {
	checkNoLeaks(t)
	defer func(d time.Duration) { writeStall = d }(writeStall)
	writeStall = 200 * time.Millisecond
	addrs, servers := startTCPServers(t, 1)
	servers[0].core.PutData(testKey, Tag{TS: 1, Writer: "w"}, make([]byte, 1<<20), 1<<20)
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// 16 MiB of answers: far more than the two sockets' buffers hold.
	var reqs []byte
	for id := uint64(1); id <= 16; id++ {
		reqs = appendFrame(reqs, &request{typ: msgGetElem, id: id, epoch: SeedEpoch, key: testKey})
	}
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the server to close the connection of a client that never reads", func() bool { return servers[0].numConns() == 0 })
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
	c := testMuxConn(0, dead, withDialRetry(3, backoff{base: time.Millisecond, max: 4 * time.Millisecond}))
	defer c.Close()
	start := time.Now()
	if _, err := c.GetTag(ctx, testKey); err == nil {
		t.Fatal("GetTag against a dead address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("retries against a refused address took %v", elapsed)
	}

	// Cancellation aborts the inter-attempt backoff immediately.
	slow := testMuxConn(0, dead, withDialRetry(100, backoff{base: time.Hour}))
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
	cl := on("sockets", 0).cluster(t, 5, 3)
	conns := cl.conns()
	conns[0] = testMuxConn(0, dead, withDialRetry(1, backoff{base: time.Millisecond}))
	w := mustWriter(t, "w1", cl.codec, conns)
	if _, err := w.Write(testCtx(t), testKey, []byte("around the dead address")); err != nil {
		t.Fatalf("Write with one dead address: %v", err)
	}
}

// numConns returns the number of client connections currently open —
// how tests prove the mux transport really multiplexes instead of
// dialing.
func (ns *NetServer) numConns() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return len(ns.conns)
}

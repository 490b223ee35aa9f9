package soda

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// TCP transport, server side.
//
// The server speaks the multiplexed wire protocol: one connection
// carries any number of concurrent request/response exchanges routed
// by request id, and any number of key-scoped relay streams (get-data
// registrations), each identified by the request id that opened it.
// All outbound frames for a connection funnel through one connWriter
// goroutine with a bounded queue: responses and relay deliveries are
// batched into a single flush whenever the queue has more than one
// frame waiting, which is what makes relay fan-out cheap under load.
//
// MuxConn (mux.go) is the client: one persistent pipelined connection
// per server, whose requests go through a connWriter of their own.

// NetServer serves one SODA server over TCP with the wire.go framing.
type NetServer struct {
	core *Server
	ln   net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ListenAndServe starts serving core on addr (use "127.0.0.1:0" for
// an ephemeral port) and returns once the listener is live.
func ListenAndServe(core *Server, addr string) (*NetServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ns := &NetServer{core: core, ln: ln, conns: make(map[net.Conn]struct{})}
	ns.wg.Add(1)
	go ns.acceptLoop()
	return ns, nil
}

// Addr returns the listener's address, for building client conns.
func (ns *NetServer) Addr() string { return ns.ln.Addr().String() }

// Close stops the listener, disconnects every client (unregistering
// their readers), and waits for the handlers to finish. The state
// machine itself survives — a NetServer can model a server that
// crashes and later recovers with its storage intact.
func (ns *NetServer) Close() error {
	ns.mu.Lock()
	ns.closed = true
	err := ns.ln.Close()
	for c := range ns.conns {
		c.Close()
	}
	ns.mu.Unlock()
	ns.wg.Wait()
	return err
}

func (ns *NetServer) acceptLoop() {
	defer ns.wg.Done()
	for {
		conn, err := ns.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ns.mu.Lock()
		if ns.closed {
			ns.mu.Unlock()
			conn.Close()
			return
		}
		ns.conns[conn] = struct{}{}
		ns.wg.Add(1)
		ns.mu.Unlock()
		go ns.handle(conn)
	}
}

// outQueueDepth bounds how many undelivered outbound frames one end of a
// connection may queue. Unary responses block the connection's read
// loop when it fills (backpressure on that client's own pipelining);
// relay deliveries never block — overflow means the reader is not
// draining, and the stream's whole connection is killed rather than
// stalling the put-data path that triggered the relay. A MuxConn refuses
// the caller and keeps a leg waiting.
const outQueueDepth = 4096

// netStream is one live get-data registration on a connection, keyed by
// the request id that opened it: the core's registrant for it.
type netStream struct {
	sc       *netConn
	id       uint64
	key, rid string
}

// deliver relays on the stream's id. It runs on whichever goroutine
// performs a put-data and must never block on this connection, so it
// try-sends and kills the connection on overflow — a reader that stopped
// draining is indistinguishable from dead. Each frame carries the
// delivery's own epoch: a relayed element belongs to the configuration the
// server held it under.
func (st *netStream) deliver(d Delivery) {
	st.trySend(frame(&response{typ: msgData, id: st.id, epoch: d.Epoch, tag: d.Tag, vlen: d.VLen, initial: d.Initial, elem: d.Elem}))
}

// end closes a stream the core dropped. An epoch flip ends every stream on
// the connection with one cause, and the first of its ends NACKs them all
// at once on request id 0, which fails every read streaming on the client's
// session with the typed error that makes it re-register under the new
// configuration: one frame per connection per flip, however many streams
// it sweeps. Any other end is silent.
func (st *netStream) end(cause error) {
	sc := st.sc
	se, stale := cause.(*StaleEpochError)
	sc.mu.Lock()
	if sc.subs[st.id] == st {
		delete(sc.subs, st.id)
	}
	first := stale && sc.nacked != se
	if first {
		sc.nacked = se
	}
	sc.mu.Unlock()
	if first {
		st.trySend(nackFrame(0, se))
	}
}

func (st *netStream) trySend(bp *[]byte) {
	if !st.sc.w.trySend(bp) {
		putFrame(bp)
		st.sc.core.metrics.unkeyed().RelayDrops.Add(1)
		st.sc.w.kill()
	}
}

// netConn is the server side of one client connection: the outbound
// queue, the relay streams open on it, and the request and response the
// read loop is currently serving (reused frame to frame, so the table's
// indirect call costs no allocation).
type netConn struct {
	core *Server
	w    *connWriter

	mu     sync.Mutex // guards subs and nacked
	subs   map[uint64]*netStream
	nacked *StaleEpochError // the last flip whose sweep this connection NACKed

	req  request
	resp response
}

// frame encodes resp as one length-prefixed frame in a pooled buffer for
// the connWriter.
func frame(resp *response) *[]byte {
	bp := getFrame()
	*bp = appendResponse(append(*bp, 0, 0, 0, 0), resp)
	binary.BigEndian.PutUint32(*bp, uint32(len(*bp)-4))
	return bp
}

// reject answers a malformed-but-framed request with an explicit error
// and keeps the connection alive: the framing is still in sync, so one
// bad request must not kill the other exchanges multiplexed on this
// connection.
func (sc *netConn) reject(id uint64, msg string) bool {
	return sc.w.send(frame(&response{typ: msgError, id: id, epoch: epochNone, msg: msg}))
}

// nack answers a request whose configuration epoch the state machine
// refused; the connection survives — the client refetches its config
// and retries.
func (sc *netConn) nack(id uint64, se *StaleEpochError) bool {
	return sc.w.send(nackFrame(id, se))
}

func nackFrame(id uint64, se *StaleEpochError) *[]byte {
	return frame(&response{typ: msgEpochNack, id: id, epoch: se.ServerEpoch, want: se.Want, sealed: se.Sealed})
}

func (ns *NetServer) handle(conn net.Conn) {
	defer ns.wg.Done()
	// A failed write fails the read loop too, whose teardown stops the writer.
	sc := &netConn{core: ns.core, w: newConnWriter(conn, outQueueDepth, func(error) { conn.Close() }), subs: make(map[uint64]*netStream)}
	ns.wg.Add(1)
	go func() {
		defer ns.wg.Done()
		sc.w.run()
	}()
	defer func() {
		sc.mu.Lock()
		for _, st := range sc.subs {
			ns.core.Unregister(st.key, st.rid)
		}
		sc.mu.Unlock()
		sc.w.shutdown() // drains queued frames, then closes conn
		ns.mu.Lock()
		delete(ns.conns, conn)
		ns.mu.Unlock()
	}()

	br := bufio.NewReader(conn)
	var buf []byte
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			return
		}
		buf = payload
		if !sc.serve(payload) {
			return
		}
	}
}

// serve answers one inbound frame, the same way whatever its type:
// decode it, look its row up in the message table, check its epoch
// under the row's admission class, run it, reply. It reports false
// when the connection is finished.
func (sc *netConn) serve(payload []byte) bool {
	if len(payload) < headerLen {
		// Not even a header: connection-level error, then close — there
		// is no request id to answer on.
		sc.reject(0, fmt.Sprintf("short frame: %d bytes", len(payload)))
		return false
	}
	req, resp := &sc.req, &sc.resp
	*req = request{}
	err := decodeRequest(payload, req)
	h := rpcFor(req.typ)
	if h == nil {
		// A type byte from a future protocol version (or garbage): tell
		// the peer explicitly instead of a silent close, so a
		// version-skewed client degrades into a legible *RemoteError
		// rather than a mystery EOF. The framing is still in sync, so the
		// connection survives.
		return sc.reject(req.id, fmt.Sprintf("unknown message type %#x", req.typ))
	}
	if err != nil {
		return sc.reject(req.id, "malformed "+msgNames[req.typ]+": "+err.Error())
	}
	if se := h.admit(sc.core, req.epoch); se != nil {
		return sc.nack(req.id, se)
	}
	switch req.typ {
	case msgGetData:
		return sc.openStream(req)
	case msgReaderDone:
		sc.closeStream(req.id)
		return true
	}
	*resp = response{typ: h.resp, id: req.id}
	if err := h.serve(sc.core, req, resp); err != nil {
		return sc.reject(req.id, err.Error())
	}
	// Responses carry the server's active epoch at reply time.
	resp.epoch = sc.core.EpochStatus().Epoch
	bp := frame(resp)
	*resp = response{} // an idle connection must not pin the element or key list it last sent
	return sc.w.send(bp)
}

// openStream serves an admitted get-data: register the reader and relay
// to it on the request's id until reader-done, an epoch flip, or the
// end of the connection.
func (sc *netConn) openStream(req *request) bool {
	st := &netStream{sc: sc, id: req.id, key: req.key, rid: req.reader}
	sc.mu.Lock()
	_, dup := sc.subs[st.id]
	if !dup {
		sc.subs[st.id] = st
	}
	sc.mu.Unlock()
	if dup {
		return sc.reject(st.id, "get-data request id already streaming")
	}
	initial := sc.core.register(st.key, st.rid, st)
	// A flip publishes its epoch state before its sweep, so one that landed
	// between the admission check and the registration shows here, and
	// whichever of the two removes the registration NACKs it, once.
	if se := sc.core.admit(opClient, req.epoch); se != nil {
		if !sc.core.unregister(st.key, st.rid, false) {
			return true
		}
		sc.mu.Lock()
		delete(sc.subs, st.id)
		sc.mu.Unlock()
		return sc.nack(st.id, se)
	}
	st.deliver(initial)
	return true
}

// closeStream serves reader-done. One for an unknown request id (a
// stream this server never saw, or one already torn down) is ignored:
// tear-down is idempotent.
func (sc *netConn) closeStream(id uint64) {
	sc.mu.Lock()
	if st, ok := sc.subs[id]; ok {
		sc.core.Unregister(st.key, st.rid)
		delete(sc.subs, id)
	}
	sc.mu.Unlock()
}

// writeStall bounds how long one socket write may sit in a full socket
// buffer. A peer that stopped reading would otherwise pin a connWriter in
// conn.Write — and, once its queue is full, whoever queues behind it —
// forever, whatever the callers' contexts say. A var only so the
// stalled-peer tests can shorten it.
var writeStall = 10 * time.Second

// connWriter owns one end's writes to a connection, a NetServer's or a
// MuxConn session's: every outbound frame, length-prefixed, is queued here
// and written by one goroutine through a bufio.Writer that is flushed only
// when the queue goes momentarily empty. Frames queued while a write is on
// the wire — relays, pipelined responses, requests from concurrent callers
// and legs — therefore leave together in one syscall. The first write that
// fails or stalls calls fail; every frame after it is dropped.
type connWriter struct {
	conn    net.Conn
	ch      chan *[]byte
	done    chan struct{} // closed by shutdown: stop accepting, drain, exit
	stopped sync.Once
	fail    func(error)
	rearm   time.Time // when the write deadline next needs pushing out; run loop only
}

func newConnWriter(conn net.Conn, depth int, fail func(error)) *connWriter {
	return &connWriter{conn: conn, ch: make(chan *[]byte, depth), done: make(chan struct{}), fail: fail}
}

// send queues a frame, blocking while the queue is full. It reports
// false when the writer has shut down (the frame is recycled).
func (w *connWriter) send(bp *[]byte) bool {
	select {
	case w.ch <- bp:
		return true
	case <-w.done:
		putFrame(bp)
		return false
	}
}

// trySend queues a frame without blocking; false means the queue is
// full or the writer is gone, and the frame is still the caller's.
func (w *connWriter) trySend(bp *[]byte) bool {
	select {
	case <-w.done:
		return false
	default:
	}
	select {
	case w.ch <- bp:
		return true
	default:
		return false
	}
}

// wait returns once the queue has had room, or the writer has shut down,
// for a goroutine that may only trySend: it queues a nil frame, which the
// writer skips.
func (w *connWriter) wait() {
	select {
	case w.ch <- nil:
	case <-w.done:
	}
}

// shutdown stops the writer: queued frames are still drained and
// flushed (a reader-done race must not eat the last responses), then
// the connection closes.
func (w *connWriter) shutdown() {
	w.stopped.Do(func() { close(w.done) })
}

// kill abandons the connection immediately — the relay-overflow path.
// Closing the conn fails the read loop, whose teardown runs shutdown.
func (w *connWriter) kill() {
	w.conn.Close()
}

// Write is the bufio.Writer's sink. The deadline is pushed out lazily, once
// per half period, so a write starts with writeStall/2 to writeStall left.
func (w *connWriter) Write(p []byte) (int, error) {
	if now := time.Now(); now.After(w.rearm) {
		w.conn.SetWriteDeadline(now.Add(writeStall))
		w.rearm = now.Add(writeStall / 2)
	}
	return w.conn.Write(p)
}

// run is the writer goroutine: drain, write, and flush exactly when
// the queue goes empty — the per-connection batching. A failed write's
// error sticks in bw.
func (w *connWriter) run() {
	bw := bufio.NewWriter(w)
	failed := false
	check := func(err error) {
		if err != nil && !failed {
			failed = true
			w.fail(err)
		}
	}
	emit := func(bp *[]byte) {
		if bp != nil { // nil holds a place for wait
			_, err := bw.Write(*bp)
			check(err)
			putFrame(bp)
		}
	}
	flush := func() {
		if bw.Buffered() > 0 {
			check(bw.Flush())
		}
	}
	for {
		select {
		case bp := <-w.ch:
			emit(bp)
		default:
			// Queue momentarily empty: the batch is as big as it is
			// going to get, push it to the wire.
			flush()
			select {
			case bp := <-w.ch:
				emit(bp)
			case <-w.done:
				// Drain what racing senders managed to queue, then go.
				for {
					select {
					case bp := <-w.ch:
						emit(bp)
					default:
						flush()
						w.conn.Close()
						return
					}
				}
			}
		}
	}
}

// dialPolicy is how the TCP client dials: a per-attempt deadline — a dial that has not completed
// in timeout is as dead as a refused one; without the cap, a
// blackholed server would pin a quorum goroutine until the caller's
// whole context expired — and bounded retry with backoff so a server
// mid-restart is not instantly written off.
type dialPolicy struct {
	timeout  time.Duration
	attempts int
	backoff  backoff
}

// dial connects with the per-attempt deadline and bounded retry. The
// context always wins: cancellation aborts both an in-flight dial
// (DialContext honors it) and any backoff sleep, so a hung dial can
// never stall a quorum past its caller's cancellation.
func (p dialPolicy) dial(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: p.timeout}
	var conn net.Conn
	err := retry(ctx, p.attempts, p.backoff, func() error {
		var err error
		conn, err = d.DialContext(ctx, "tcp", addr)
		return err
	})
	return conn, err
}

// stampStale fills the server index into a StaleEpochError decoded
// from the wire (the frame only knows the connection, not the shard).
func stampStale(err error, idx int) error {
	if err == nil {
		return nil // before se, which escapes: every answered frame comes here
	}
	var se *StaleEpochError
	if errors.As(err, &se) && se.Server == -1 {
		se.Server = idx
	}
	return err
}

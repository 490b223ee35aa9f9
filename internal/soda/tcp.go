package soda

import (
	"bufio"
	"context"
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
// per server.

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

// Core exposes the state machine being served — the handle a process
// supervisor needs to Sync, SnapshotNow, or Close a durable server
// around the transport's lifecycle.
func (ns *NetServer) Core() *Server { return ns.core }

// NumConns returns the number of client connections currently open —
// how tests prove the mux transport really multiplexes instead of
// dialing.
func (ns *NetServer) NumConns() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return len(ns.conns)
}

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

// outQueueDepth bounds how many undelivered outbound frames one
// connection may queue. Unary responses block the connection's read
// loop when it fills (backpressure on that client's own pipelining);
// relay deliveries never block — overflow means the reader is not
// draining, and the stream's whole connection is killed rather than
// stalling the put-data path that triggered the relay.
const outQueueDepth = 4096

// streamSub is one live get-data registration on a connection, keyed
// by the request id that opened it.
type streamSub struct {
	key string
	rid string
}

// netConn is the server side of one client connection: the outbound
// queue, the relay streams open on it, and the request and response the
// read loop is currently serving (reused frame to frame, so the table's
// indirect call costs no allocation).
type netConn struct {
	core *Server
	w    *connWriter

	mu   sync.Mutex // guards subs
	subs map[uint64]streamSub

	req  request
	resp response
}

// frame encodes resp into a pooled buffer for the connWriter.
func frame(resp *response) *[]byte {
	bp := getFrame()
	*bp = appendResponse(*bp, resp)
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
	return sc.w.send(frame(&response{typ: msgEpochNack, id: id, epoch: se.ServerEpoch, want: se.Want, sealed: se.Sealed}))
}

// watchEpochs is a per-connection goroutine that kills relay streams
// when the server's configuration epoch moves: every open get-data
// stream gets an epoch NACK on its own request id (so the client's
// read fails with a typed StaleEpochError and re-registers under the
// new epoch) and its registration is dropped. The status-compare loop
// re-checks after each sweep, so back-to-back transitions cannot slip
// between a wakeup and re-arming the change channel.
func (sc *netConn) watchEpochs(stop <-chan struct{}) {
	var last EpochStatus
	for {
		ch := sc.core.EpochChanged()
		st := sc.core.EpochStatus()
		if st != last {
			want := st.Epoch
			if st.Sealed {
				want = st.Pending
			}
			sc.mu.Lock()
			for id, sub := range sc.subs {
				// Forced: the handler may still be copying the initial element.
				sc.core.unregister(sub.key, sub.rid, true)
				sc.w.trySend(frame(&response{typ: msgEpochNack, id: id, epoch: st.Epoch, want: want, sealed: st.Sealed}))
				delete(sc.subs, id)
			}
			sc.mu.Unlock()
			last = st
			continue
		}
		select {
		case <-ch:
		case <-stop:
			return
		}
	}
}

func (ns *NetServer) handle(conn net.Conn) {
	defer ns.wg.Done()
	sc := &netConn{core: ns.core, w: newConnWriter(conn, outQueueDepth), subs: make(map[uint64]streamSub)}
	ns.wg.Add(1)
	go func() {
		defer ns.wg.Done()
		sc.w.run()
	}()
	stopWatch := make(chan struct{})
	ns.wg.Add(1)
	go func() {
		defer ns.wg.Done()
		sc.watchEpochs(stopWatch)
	}()
	defer func() {
		close(stopWatch)
		sc.mu.Lock()
		for _, sub := range sc.subs {
			ns.core.Unregister(sub.key, sub.rid)
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
	if h.class != opExempt {
		if se := sc.core.Admit(h.class, req.epoch); se != nil {
			return sc.nack(req.id, se)
		}
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
	id, key, rid := req.id, req.key, req.reader
	sc.mu.Lock()
	_, dup := sc.subs[id]
	if !dup {
		sc.subs[id] = streamSub{key: key, rid: rid}
	}
	sc.mu.Unlock()
	if dup {
		return sc.reject(id, "get-data request id already streaming")
	}
	// The relay sink runs on whichever goroutine performs a put-data; it
	// must never block on this connection, so it try-sends and kills the
	// connection on overflow — a reader that stopped draining is
	// indistinguishable from dead. Each frame carries the delivery's own
	// epoch: a relayed element belongs to the configuration the server
	// held it under.
	sink := func(d Delivery) {
		bp := frame(&response{typ: msgData, id: id, epoch: d.Epoch, tag: d.Tag, vlen: d.VLen, initial: d.Initial, elem: d.Elem})
		if !sc.w.trySend(bp) {
			sc.core.Metrics().relayDrops.Add(1)
			sc.w.kill()
		}
	}
	initial := sc.core.Register(key, rid, sink)
	// A flip that lands between the admission check and the registration
	// would leave a stream the epoch watcher already swept; re-checking
	// after Register closes the race.
	if se := sc.core.Admit(opClient, req.epoch); se != nil {
		sc.core.Unregister(key, rid)
		sc.mu.Lock()
		delete(sc.subs, id)
		sc.mu.Unlock()
		return sc.nack(id, se)
	}
	sink(initial)
	return true
}

// closeStream serves reader-done. One for an unknown request id (a
// stream this server never saw, or one already torn down) is ignored:
// tear-down is idempotent.
func (sc *netConn) closeStream(id uint64) {
	sc.mu.Lock()
	if sub, ok := sc.subs[id]; ok {
		sc.core.Unregister(sub.key, sub.rid)
		delete(sc.subs, id)
	}
	sc.mu.Unlock()
}

// connWriter owns a connection's write side: every outbound frame —
// unary responses, relay deliveries, error frames — is queued here and
// written by one goroutine through a bufio.Writer that is flushed only
// when the queue goes momentarily empty. Back-to-back relays and
// pipelined responses therefore coalesce into one syscall.
type connWriter struct {
	conn    net.Conn
	ch      chan *[]byte
	done    chan struct{} // closed by shutdown: stop accepting, drain, exit
	stopped sync.Once
	flushes int // run-loop only; exposed for the batching test
}

func newConnWriter(conn net.Conn, depth int) *connWriter {
	return &connWriter{conn: conn, ch: make(chan *[]byte, depth), done: make(chan struct{})}
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
// full or the writer is gone.
func (w *connWriter) trySend(bp *[]byte) bool {
	select {
	case <-w.done:
		putFrame(bp)
		return false
	default:
	}
	select {
	case w.ch <- bp:
		return true
	default:
		putFrame(bp)
		return false
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

// run is the writer goroutine: drain, write, and flush exactly when
// the queue goes empty — the per-connection batching.
func (w *connWriter) run() {
	bw := bufio.NewWriter(w.conn)
	failed := false
	emit := func(bp *[]byte) {
		if !failed && writeFrame(bw, *bp) != nil {
			failed = true
			w.conn.Close() // fail the read loop too
		}
		putFrame(bp)
	}
	flush := func() {
		if !failed && bw.Flush() != nil {
			failed = true
			w.conn.Close()
		}
		w.flushes++
	}
	for {
		select {
		case bp := <-w.ch:
			emit(bp)
		default:
			// Queue momentarily empty: the batch is as big as it is
			// going to get, push it to the wire.
			if bw.Buffered() > 0 {
				flush()
			}
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
						if bw.Buffered() > 0 {
							flush()
						}
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
	backoff  Backoff
}

const (
	defaultDialTimeout  = 2 * time.Second
	defaultDialAttempts = 3
)

func defaultDialPolicy() dialPolicy {
	return dialPolicy{timeout: defaultDialTimeout, attempts: defaultDialAttempts}
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

// tcpOpts is the assembled client-conn configuration: the dial policy
// plus the configuration epoch the conn stamps on every frame.
type tcpOpts struct {
	policy dialPolicy
	epoch  uint64
}

func defaultTCPOpts() tcpOpts { return tcpOpts{policy: defaultDialPolicy()} }

// TCPOption configures a client-side TCP conn.
type TCPOption func(*tcpOpts)

// WithDialTimeout caps each dial attempt; the effective deadline is
// the earlier of this and the operation context's.
func WithDialTimeout(d time.Duration) TCPOption {
	return func(o *tcpOpts) { o.policy.timeout = d }
}

// WithDialRetry sets how many times an operation attempts the dial
// (minimum 1) and the backoff schedule between attempts.
func WithDialRetry(attempts int, b Backoff) TCPOption {
	return func(o *tcpOpts) {
		if attempts < 1 {
			attempts = 1
		}
		o.policy.attempts = attempts
		o.policy.backoff = b
	}
}

// WithConnEpoch stamps the conn with a configuration epoch: every
// frame it sends carries the epoch, and the servers NACK anything
// that does not match their own. A conn set built for one Config is
// therefore single-epoch by construction — the heart of the
// no-cross-epoch-quorum guarantee.
func WithConnEpoch(epoch uint64) TCPOption {
	return func(o *tcpOpts) { o.epoch = epoch }
}

// stampStale fills the server index into a StaleEpochError decoded
// from the wire (the frame only knows the connection, not the shard).
func stampStale(err error, idx int) error {
	var se *StaleEpochError
	if errors.As(err, &se) && se.Server == -1 {
		se.Server = idx
	}
	return err
}

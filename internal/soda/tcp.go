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

// TCP transport, server side plus the dial-per-op client.
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
// Two client transports implement Conn over this server: MuxConn
// (mux.go) — one persistent pipelined connection, the fast path — and
// tcpConn below, which dials per operation. The dialing client is kept
// deliberately: it is the "before" in the transport benchmark and a
// conservative fallback.

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

// watchEpochs is a per-connection goroutine that kills relay streams
// when the server's configuration epoch moves: every open get-data
// stream gets an epoch NACK on its own request id (so the client's
// read fails with a typed StaleEpochError and re-registers under the
// new epoch) and its registration is dropped. The status-compare loop
// re-checks after each sweep, so back-to-back transitions cannot slip
// between a wakeup and re-arming the change channel.
func (ns *NetServer) watchEpochs(w *connWriter, subMu *sync.Mutex, subs map[uint64]streamSub, stop <-chan struct{}) {
	var last EpochStatus
	for {
		ch := ns.core.EpochChanged()
		st := ns.core.EpochStatus()
		if st != last {
			want := st.Epoch
			if st.Sealed {
				want = st.Pending
			}
			subMu.Lock()
			for req, sub := range subs {
				// Forced: the handler may still be copying the initial element.
				ns.core.unregister(sub.key, sub.rid, true)
				bp := getFrame()
				*bp = appendEpochNack(*bp, req, st, want)
				w.trySend(bp)
				delete(subs, req)
			}
			subMu.Unlock()
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
	w := newConnWriter(conn, outQueueDepth)
	ns.wg.Add(1)
	go func() {
		defer ns.wg.Done()
		w.run()
	}()

	var subMu sync.Mutex
	subs := make(map[uint64]streamSub)
	stopWatch := make(chan struct{})
	ns.wg.Add(1)
	go func() {
		defer ns.wg.Done()
		ns.watchEpochs(w, &subMu, subs, stopWatch)
	}()
	defer func() {
		close(stopWatch)
		subMu.Lock()
		for _, sub := range subs {
			ns.core.Unregister(sub.key, sub.rid)
		}
		subMu.Unlock()
		w.shutdown() // drains queued frames, then closes conn
		ns.mu.Lock()
		delete(ns.conns, conn)
		ns.mu.Unlock()
	}()

	// reject answers a malformed-but-framed request with an explicit
	// error and keeps the connection alive: the framing is still in
	// sync, so one bad request must not kill the other exchanges
	// multiplexed on this connection.
	reject := func(req uint64, msg string) bool {
		bp := getFrame()
		*bp = appendError(*bp, req, msg)
		return w.send(bp)
	}
	// nack answers a request whose configuration epoch the state
	// machine refused; the connection survives — the client refetches
	// its config and retries.
	nack := func(req uint64, se *StaleEpochError) bool {
		bp := getFrame()
		*bp = appendEpochNack(*bp, req, EpochStatus{Epoch: se.ServerEpoch, Sealed: se.Sealed}, se.Want)
		return w.send(bp)
	}
	// epoch responses carry the server's active epoch at reply time.
	cur := func() uint64 { return ns.core.EpochStatus().Epoch }

	br := bufio.NewReader(conn)
	var buf []byte
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			return
		}
		buf = payload
		typ, req, ok := peekHeader(payload)
		if !ok {
			// Not even a header: connection-level error, then close —
			// there is no request id to answer on.
			bp := getFrame()
			*bp = appendError(*bp, 0, fmt.Sprintf("short frame: %d bytes", len(payload)))
			w.send(bp)
			return
		}
		switch typ {
		case msgGetTag:
			_, epoch, key, err := decodeGetTag(payload)
			if err != nil {
				if !reject(req, "malformed get-tag: "+err.Error()) {
					return
				}
				continue
			}
			if se := ns.core.Admit(opClient, epoch); se != nil {
				if !nack(req, se) {
					return
				}
				continue
			}
			bp := getFrame()
			*bp = appendTagResp(*bp, req, cur(), ns.core.GetTag(key))
			if !w.send(bp) {
				return
			}
		case msgPutData:
			_, epoch, key, t, elem, vlen, err := decodePutData(payload)
			if err != nil {
				if !reject(req, "malformed put-data: "+err.Error()) {
					return
				}
				continue
			}
			if se := ns.core.Admit(opClient, epoch); se != nil {
				if !nack(req, se) {
					return
				}
				continue
			}
			ns.core.PutData(key, t, elem, vlen)
			bp := getFrame()
			*bp = appendAck(*bp, req, cur())
			if !w.send(bp) {
				return
			}
		case msgGetElem:
			_, epoch, key, err := decodeGetElem(payload)
			if err != nil {
				if !reject(req, "malformed get-elem: "+err.Error()) {
					return
				}
				continue
			}
			if se := ns.core.Admit(opDonor, epoch); se != nil {
				if !nack(req, se) {
					return
				}
				continue
			}
			t, elem, vlen := ns.core.getElem(key)
			bp := getFrame()
			*bp = appendElemResp(*bp, req, cur(), t, elem, vlen)
			if !w.send(bp) {
				return
			}
		case msgRepairPut:
			_, epoch, key, t, elem, vlen, err := decodeRepairPut(payload)
			if err != nil {
				if !reject(req, "malformed repair-put: "+err.Error()) {
					return
				}
				continue
			}
			if se := ns.core.Admit(opRepair, epoch); se != nil {
				if !nack(req, se) {
					return
				}
				continue
			}
			accepted := ns.core.RepairPut(key, t, elem, vlen)
			bp := getFrame()
			*bp = appendRepairResp(*bp, req, cur(), accepted)
			if !w.send(bp) {
				return
			}
		case msgKeys:
			_, epoch, err := decodeKeysReq(payload)
			if err != nil {
				if !reject(req, "malformed keys: "+err.Error()) {
					return
				}
				continue
			}
			if se := ns.core.Admit(opDonor, epoch); se != nil {
				if !nack(req, se) {
					return
				}
				continue
			}
			bp := getFrame()
			*bp = appendKeysResp(*bp, req, cur(), ns.core.Keys())
			if !w.send(bp) {
				return
			}
		case msgReconfig:
			_, op, target, rn, rk, err := decodeReconfig(payload)
			if err != nil {
				if !reject(req, "malformed reconfig: "+err.Error()) {
					return
				}
				continue
			}
			st, rerr := ns.core.Reconfig(op, target, rn, rk)
			if rerr != nil {
				if !reject(req, rerr.Error()) {
					return
				}
				continue
			}
			bp := getFrame()
			*bp = appendReconfigResp(*bp, req, st)
			if !w.send(bp) {
				return
			}
		case msgGetData:
			_, epoch, key, rid, err := decodeGetData(payload)
			if err != nil {
				if !reject(req, "malformed get-data: "+err.Error()) {
					return
				}
				continue
			}
			if se := ns.core.Admit(opClient, epoch); se != nil {
				if !nack(req, se) {
					return
				}
				continue
			}
			subMu.Lock()
			_, dup := subs[req]
			if !dup {
				subs[req] = streamSub{key: key, rid: rid}
			}
			subMu.Unlock()
			if dup {
				if !reject(req, "get-data request id already streaming") {
					return
				}
				continue
			}
			// The relay sink runs on whichever goroutine performs a
			// put-data; it must never block on this connection, so it
			// try-sends and kills the connection on overflow — a reader
			// that stopped draining is indistinguishable from dead.
			streamReq := req
			sink := func(d Delivery) {
				bp := getFrame()
				*bp = appendData(*bp, streamReq, d)
				if !w.trySend(bp) {
					ns.core.Metrics().relayDrops.Add(1)
					w.kill()
				}
			}
			initial := ns.core.Register(key, rid, sink)
			// A flip that lands between the admission check and the
			// registration would leave a stream the epoch watcher already
			// swept; re-checking after Register closes the race.
			if se := ns.core.Admit(opClient, epoch); se != nil {
				ns.core.Unregister(key, rid)
				subMu.Lock()
				delete(subs, req)
				subMu.Unlock()
				if !nack(req, se) {
					return
				}
				continue
			}
			sink(initial)
		case msgReaderDone:
			if _, err := decodeReaderDone(payload); err != nil {
				if !reject(req, "malformed reader-done: "+err.Error()) {
					return
				}
				continue
			}
			// A reader-done for an unknown request id (a stream this
			// server never saw, or one already torn down) is ignored:
			// tear-down is idempotent.
			subMu.Lock()
			if sub, ok := subs[req]; ok {
				ns.core.Unregister(sub.key, sub.rid)
				delete(subs, req)
			}
			subMu.Unlock()
		default:
			// A type byte from a future protocol version (or garbage):
			// tell the peer explicitly instead of a silent close, so a
			// version-skewed client degrades into a legible
			// *RemoteError rather than a mystery EOF. The framing is
			// still in sync, so the connection survives.
			if !reject(req, fmt.Sprintf("unknown message type %#x", typ)) {
				return
			}
		}
	}
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

// dialPolicy is the shared dial behavior of both TCP client
// transports: a per-attempt deadline — a dial that has not completed
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

// tcpOpts is the assembled client-conn configuration shared by the
// dialing and multiplexed transports: the dial policy plus the
// configuration epoch the conn stamps on every frame.
type tcpOpts struct {
	policy dialPolicy
	epoch  uint64
}

func defaultTCPOpts() tcpOpts { return tcpOpts{policy: defaultDialPolicy()} }

// TCPOption configures a client-side TCP conn (dialing or mux).
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

// tcpConn is the dial-per-operation client Conn for one server
// address. Every operation opens a fresh connection and uses request
// id 1 on it. MuxConn is the production path; this one survives as
// the benchmark baseline and a zero-shared-state fallback.
type tcpConn struct {
	idx  int
	addr string
	opts tcpOpts
}

// TCPConn returns a Conn that dials addr for each operation, acting
// for the server at shard index idx.
func TCPConn(idx int, addr string, opts ...TCPOption) Conn {
	c := &tcpConn{idx: idx, addr: addr, opts: defaultTCPOpts()}
	for _, opt := range opts {
		opt(&c.opts)
	}
	return c
}

// TCPConns builds the dial-per-op conn set for a cluster from its
// address list, in shard-index order.
func TCPConns(addrs []string, opts ...TCPOption) []Conn {
	conns := make([]Conn, len(addrs))
	for i, a := range addrs {
		conns[i] = TCPConn(i, a, opts...)
	}
	return conns
}

func (c *tcpConn) Index() int { return c.idx }

// dialReq is the request id a dial-per-op exchange uses: the
// connection carries exactly one.
const dialReq uint64 = 1

// unary performs one request/response exchange on a fresh connection,
// verifying the response echoes the request id.
func (c *tcpConn) unary(ctx context.Context, req []byte) ([]byte, error) {
	conn, err := c.opts.policy.dial(ctx, c.addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(0, 1)) })
	defer stop()
	if err := writeFrame(conn, req); err != nil {
		return nil, err
	}
	payload, err := readFrame(bufio.NewReader(conn), nil)
	if err != nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	return payload, err
}

// checkReq verifies a unary response was for our exchange. On a
// one-request connection any other id means the server is broken.
func checkReq(req uint64, name string) error {
	if req != dialReq {
		return &FrameError{Want: name, Msg: fmt.Sprintf("response for request %d, want %d", req, dialReq)}
	}
	return nil
}

func (c *tcpConn) GetTag(ctx context.Context, key string) (Tag, error) {
	bp := getFrame()
	*bp = appendGetTag(*bp, dialReq, c.opts.epoch, key)
	payload, err := c.unary(ctx, *bp)
	putFrame(bp)
	if err != nil {
		return Tag{}, err
	}
	req, t, err := decodeTagResp(payload)
	if err != nil {
		return Tag{}, stampStale(err, c.idx)
	}
	return t, checkReq(req, "tag-resp")
}

func (c *tcpConn) PutData(ctx context.Context, key string, t Tag, elem []byte, vlen int) error {
	bp := getFrame()
	*bp = appendPutData(*bp, dialReq, c.opts.epoch, key, t, elem, vlen)
	payload, err := c.unary(ctx, *bp)
	putFrame(bp)
	if err != nil {
		return err
	}
	req, err := decodeAck(payload)
	if err != nil {
		return stampStale(err, c.idx)
	}
	return checkReq(req, "ack")
}

func (c *tcpConn) GetElem(ctx context.Context, key string) (Tag, []byte, int, error) {
	bp := getFrame()
	*bp = appendGetElem(*bp, dialReq, c.opts.epoch, key)
	payload, err := c.unary(ctx, *bp)
	putFrame(bp)
	if err != nil {
		return Tag{}, nil, 0, err
	}
	req, t, elem, vlen, err := decodeElemResp(payload)
	if err != nil {
		return Tag{}, nil, 0, stampStale(err, c.idx)
	}
	return t, elem, vlen, checkReq(req, "elem-resp")
}

func (c *tcpConn) RepairPut(ctx context.Context, key string, t Tag, elem []byte, vlen int) (bool, error) {
	bp := getFrame()
	*bp = appendRepairPut(*bp, dialReq, c.opts.epoch, key, t, elem, vlen)
	payload, err := c.unary(ctx, *bp)
	putFrame(bp)
	if err != nil {
		return false, err
	}
	req, accepted, err := decodeRepairResp(payload)
	if err != nil {
		return false, stampStale(err, c.idx)
	}
	return accepted, checkReq(req, "repair-resp")
}

func (c *tcpConn) Keys(ctx context.Context) ([]string, error) {
	bp := getFrame()
	*bp = appendKeysReq(*bp, dialReq, c.opts.epoch)
	payload, err := c.unary(ctx, *bp)
	putFrame(bp)
	if err != nil {
		return nil, err
	}
	req, keys, err := decodeKeysResp(payload)
	if err != nil {
		return nil, stampStale(err, c.idx)
	}
	return keys, checkReq(req, "keys-resp")
}

// Reconfig drives the server's epoch state machine on behalf of a
// reconfiguration coordinator. Reconfig frames are not themselves
// epoch-checked: they are what moves the epoch.
func (c *tcpConn) Reconfig(ctx context.Context, op ReconfigOp, target uint64, n, k int) (EpochStatus, error) {
	bp := getFrame()
	*bp = appendReconfig(*bp, dialReq, op, target, n, k)
	payload, err := c.unary(ctx, *bp)
	putFrame(bp)
	if err != nil {
		return EpochStatus{}, err
	}
	req, st, err := decodeReconfigResp(payload)
	if err != nil {
		return EpochStatus{}, err
	}
	return st, checkReq(req, "reconfig-resp")
}

func (c *tcpConn) GetData(ctx context.Context, key, readerID string, deliver func(Delivery)) error {
	conn, err := c.opts.policy.dial(ctx, c.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	// On cancellation, tell the server the reader is done (best
	// effort) and tear the stream down; the blocked readFrame below
	// then fails and the nil return reports a clean unsubscribe. The
	// mutex keeps the reader-done frame from interleaving with the
	// registration frame if cancellation lands mid-write.
	var wmu sync.Mutex
	stop := context.AfterFunc(ctx, func() {
		wmu.Lock()
		conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		bp := getFrame()
		*bp = appendReaderDone(*bp, dialReq, c.opts.epoch)
		writeFrame(conn, *bp)
		putFrame(bp)
		wmu.Unlock()
		conn.Close()
	})
	defer stop()
	bp := getFrame()
	*bp = appendGetData(*bp, dialReq, c.opts.epoch, key, readerID)
	wmu.Lock()
	err = writeFrame(conn, *bp)
	wmu.Unlock()
	putFrame(bp)
	if err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	var buf []byte
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			if ctx.Err() != nil {
				return nil // our own cancellation
			}
			return err
		}
		buf = payload // reuse: decodeData copies the element out
		_, d, err := decodeData(payload)
		if err != nil {
			return stampStale(err, c.idx)
		}
		d.Server = c.idx
		deliver(d)
	}
}

package soda

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MuxConn is the persistent multiplexed TCP client: one long-lived
// connection per server carrying every concurrent exchange — get-tag,
// put-data, get-elem, repair-put, keys — pipelined and routed back by
// request id, plus any number of key-scoped relay streams. A demux
// pump (readLoop) hands each inbound frame to the exchange waiting
// under its request id; responses for unknown ids are dropped on the
// floor, which makes late responses to cancelled requests harmless.
//
// The connection is established lazily and re-established on demand
// after a failure. The conn owns the dial, one at a time, under a context
// only Close cancels: an exchange, the one that started it included,
// waits for it only as long as its own context allows. A connection
// failure fails every in-flight exchange on it — the per-server error
// the quorum layer already knows how to charge.
var errConnClosed = errors.New("soda: mux conn closed")

// muxSession is one live connection generation: the connection, the
// writer that owns its write side, and the pump (readLoop) reading it.
type muxSession struct {
	conn net.Conn
	w    *connWriter
	// Guarded by the MuxConn's mu. err is what the session died of, set by
	// teardown. sent counts the bytes queued to w, answered how many of
	// them the server is known to have read: w writes in queue order and
	// TCP delivers in order, so an answer to one request vouches for every
	// byte queued before it.
	err            error
	sent, answered int64
}

// callerSendMax bounds sent-answered for a frame queued by the goroutine
// that called Write or Read (send with no session): how much a peer that
// stopped reading may absorb from callers before their exchanges with it
// go on legs. Within it, what no answer vouches for fits the two kernels'
// buffers. Linux gives a TCP socket 16 KiB of send buffer before any
// autotuning (the default of net.ipv4.tcp_wmem; the BSDs'
// net.inet.tcp.sendspace is 32 KiB or more), on top of the peer's receive
// buffer; half the smaller figure leaves the kernel's own per-segment
// bookkeeping its share.
const callerSendMax = 8 << 10

// doneFlush is how long a reader-done waits for a frame to ride with
// before the conn queues it on its own.
const doneFlush = time.Millisecond

// dialAttempt is one dial of the conn's: dial runs it and publishes its
// outcome by closing done; every session() call waits on done.
type dialAttempt struct {
	done chan struct{}
	sess *muxSession
	err  error
}

// muxExchange is one request awaiting its answer, completed exactly once
// through w by whoever takes it out of the conn's table: the pump, with the
// server's answer or the typed error an error or epoch-nack frame stands
// for; teardown, with what the session died of. A get-data stays
// registered through its deliveries, which go to deliver, until a frame
// of any other type ends it.
type muxExchange struct {
	w       waiter
	deliver func(Delivery) // a get-data's relay sink, else nil
	want    byte           // the response type that answers it
	mark    int64          // the session's sent once the request was queued
}

// muxAnswer is what the exchange of a goroutine that parks for it came to.
type muxAnswer struct {
	resp response
	err  error
}

// chanWaiter is that goroutine's waiter, and its own stepOp; cap 1, so the
// one answer never blocks whoever brings it.
type chanWaiter chan muxAnswer

func (w chanWaiter) answer(_ int, resp *response, err error) { w <- muxAnswer{*resp, err} }

func (w chanWaiter) take(byte) waiter { return w }

// MuxConn implements Conn over one persistent multiplexed connection.
type MuxConn struct {
	rpcConn
	addr   string
	policy dialPolicy
	life   context.Context // what the dial runs under: Close cancels it
	end    context.CancelFunc

	reqSeq atomic.Uint64

	mu       sync.Mutex
	sess     *muxSession
	dialing  *dialAttempt
	closed   bool
	waiting  map[uint64]muxExchange // every exchange in flight on sess, by request id
	dones    []uint64               // ended streams whose reader-done is still to be queued
	flusher  *time.Timer            // queues dones when no request comes by to carry them
	flushing bool                   // flusher is armed
}

// newMuxConn returns the multiplexed Conn for the server at shard
// index idx on addr, stamping epoch on every frame. Connections are
// dialed on first use.
func newMuxConn(idx int, addr string, epoch uint64) *MuxConn {
	c := &MuxConn{
		addr:    addr,
		policy:  dialPolicy{timeout: 2 * time.Second, attempts: 3},
		waiting: make(map[uint64]muxExchange),
	}
	c.life, c.end = context.WithCancel(context.Background())
	c.rpcConn = rpcConn{idx: idx, epoch: epoch, t: c}
	return c
}

// TCPMuxConns builds the multiplexed conn set for a cluster from its
// address list, in shard-index order, stamped with SeedEpoch.
func TCPMuxConns(addrs []string) []Conn { return TCPMuxConnsAt(SeedEpoch, addrs) }

// TCPMuxConnsAt builds the conn set for one epoch's Config: every frame
// it sends carries epoch, and the servers NACK anything that does not
// match their own, so an operation's quorum can only ever carry its own
// config's epoch — as Loopback.ConnsAt does for a loopback.
func TCPMuxConnsAt(epoch uint64, addrs []string) []Conn {
	conns := make([]Conn, len(addrs))
	for i, a := range addrs {
		conns[i] = newMuxConn(i, a, epoch)
	}
	return conns
}

// CloseConns closes every MuxConn in a conn set (other Conn
// implementations hold no persistent state and are skipped).
func CloseConns(conns []Conn) {
	for _, c := range conns {
		if mc, ok := c.(*MuxConn); ok {
			mc.Close()
		}
	}
}

// Close tears down the connection and fails in-flight exchanges;
// subsequent operations error instead of redialing.
func (c *MuxConn) Close() error {
	c.mu.Lock()
	c.closed = true
	s := c.sess
	if c.flusher != nil {
		c.flusher.Stop()
	}
	c.mu.Unlock()
	c.end()
	if s != nil {
		c.teardown(s, errConnClosed)
	}
	return nil
}

// session returns the live connection, starting the conn's dial if none
// is up or under way, and waits for that dial no longer than ctx allows.
func (c *MuxConn) session(ctx context.Context) (*muxSession, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errConnClosed
	}
	if s := c.sess; s != nil {
		c.mu.Unlock()
		return s, nil
	}
	att := c.dialing
	if att == nil {
		att = &dialAttempt{done: make(chan struct{})}
		c.dialing = att
		go c.dial(att)
	}
	c.mu.Unlock()
	select {
	case <-att.done:
		return att.sess, att.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// dial runs att under the conn's life, which no caller's context ends.
func (c *MuxConn) dial(att *dialAttempt) {
	conn, err := c.policy.dial(c.life, c.addr)
	c.mu.Lock()
	c.dialing = nil
	switch {
	case err == nil && !c.closed:
		att.sess = c.open(conn)
	case err == nil:
		conn.Close()
		fallthrough
	case c.closed:
		err = errConnClosed
	}
	att.err = err
	c.mu.Unlock()
	close(att.done)
}

// open makes conn the live session and starts its writer and pump, either
// of which tears it down on failure; mu is held, so not before it is live.
func (c *MuxConn) open(conn net.Conn) *muxSession {
	s := &muxSession{conn: conn}
	s.w = newConnWriter(conn, outQueueDepth, func(err error) { c.teardown(s, err) })
	c.sess = s
	go s.w.run()
	go c.readLoop(s)
	return s
}

// teardown ends a session — once, however many find it broken — and
// completes every exchange registered on it with err; its writer recycles
// what it still holds.
func (c *MuxConn) teardown(s *muxSession, err error) {
	c.mu.Lock()
	var lost map[uint64]muxExchange
	if c.sess == s {
		c.sess, s.err = nil, err
		lost, c.waiting = c.waiting, make(map[uint64]muxExchange)
		c.dones = c.dones[:0] // the server's conn-close cleanup unregisters every stream at once
	}
	c.mu.Unlock()
	s.conn.Close()
	s.w.shutdown()
	for _, e := range lost {
		e.w.answer(c.idx, &response{}, err)
	}
}

// appendFrame appends req as one length-prefixed frame.
func appendFrame(b []byte, req *request) []byte {
	at := len(b)
	b = appendRequest(append(b, 0, 0, 0, 0), req)
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}

// send queues req, with the reader-dones waiting for a frame to ride, and
// registers op.take's waiter for its answer in one critical section: the
// pump never meets an answer to an exchange not yet registered, and sent
// is counted in queue order. Given the session a leg has dialed, it waits
// outside mu for room in a full queue, until the session dies. Given none
// it runs on the goroutine that called Write or Read, which never parks: it
// queues only if a session is up, callerSendMax holds and the queue has
// room — else errNotNow. An oversize frame fails only its own exchange.
// After an error nothing is taken or queued; after nil, the waiter is
// completed exactly once, a failed or stalled write included, which tears
// the session down under everything on it.
func (c *MuxConn) send(s *muxSession, req *request, op stepOp, deliver func(Delivery)) error {
	req.id = c.reqSeq.Add(1)
	bp := getFrame()
	*bp = appendFrame(*bp, req)
	if n := len(*bp) - 4; n > maxFrame {
		putFrame(bp)
		return fmt.Errorf("%w: %d byte frame exceeds %d", ErrFrame, n, maxFrame)
	}
	leg := s != nil
	for {
		var err error
		c.mu.Lock()
		switch {
		case leg && c.sess != s:
			err = s.err
		case !leg && (c.sess == nil || c.sess.sent-c.sess.answered+int64(len(*bp)) > callerSendMax):
			err = errNotNow
		case c.queue(c.sess, bp):
			s = c.sess
			c.waiting[req.id] = muxExchange{w: op.take(req.typ), deliver: deliver, want: rpcs[req.typ].resp, mark: s.sent}
			c.mu.Unlock()
			return nil
		case !leg:
			err = errNotNow // the queue is full
		}
		c.mu.Unlock()
		if err != nil {
			putFrame(bp)
			return err
		}
		s.w.wait()
	}
}

// queue hands bp, with the waiting reader-dones appended, to s's writer and
// counts it as sent; mu is held. A full queue leaves bp and the dones be.
func (c *MuxConn) queue(s *muxSession, bp *[]byte) bool {
	n := len(*bp)
	for _, id := range c.dones {
		*bp = appendFrame(*bp, &request{typ: msgReaderDone, id: id, epoch: c.epoch})
	}
	size := int64(len(*bp))
	if !s.w.trySend(bp) {
		*bp = (*bp)[:n]
		return false
	}
	c.dones = c.dones[:0]
	s.sent += size
	return true
}

// drop takes an exchange back from the client's side: a cancelled call, a
// stream its reader is done with. It reports whether the exchange was
// still registered — then nothing will complete its waiter, and that falls
// to the caller. A dropped stream owes the server a reader-done, so that
// the registration ends now and not with the connection: it goes out with
// the next frame to this server, or after doneFlush on its own.
func (c *MuxConn) drop(id uint64, stream bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.waiting[id]; !ok {
		return false
	}
	delete(c.waiting, id)
	if stream {
		c.dones = append(c.dones, id)
		if !c.flushing && !c.closed {
			c.flushing = true
			if c.flusher == nil {
				c.flusher = time.AfterFunc(doneFlush, c.flushDones)
			} else {
				c.flusher.Reset(doneFlush)
			}
		}
	}
	return true
}

// flushDones is the flusher: it queues the reader-dones no frame came by
// to carry. Best effort — a full queue leaves them to the legs waiting for
// room, and a dead session's server ends every registration itself.
func (c *MuxConn) flushDones() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushing = false
	if s := c.sess; s != nil && len(c.dones) > 0 {
		bp := getFrame()
		if !c.queue(s, bp) {
			putFrame(bp)
		}
	}
}

// readLoop is the demux pump: it decodes every inbound frame (the buffer
// is reused; the decoder copies elements out) and hands it to the exchange
// registered under its request id — a delivery to a stream's sink, any
// other frame to the waiter, as the end of the exchange. A frame on request
// id 0 is about the whole session: an error tears it down, an epoch-nack
// ends every stream on it.
func (c *MuxConn) readLoop(s *muxSession) {
	br := bufio.NewReader(s.conn)
	var buf []byte
	var resp response
	for {
		payload, err := readFrame(br, buf)
		if err != nil {
			c.teardown(s, err)
			return
		}
		typ, id, _, _, err := header(payload, "response")
		if err != nil {
			c.teardown(s, err)
			return
		}
		buf = payload
		if typ == msgError && id == 0 {
			// Connection-level error: the server could not even parse a
			// header on this connection; nothing multiplexed on it can
			// be trusted to complete.
			c.teardown(s, decodeResponse(payload, msgError, &response{}))
			return
		}
		if typ == msgEpochNack && id == 0 {
			// An epoch flip swept every registration this connection held.
			c.endStreams(s, stampStale(decodeResponse(payload, msgEpochNack, &response{}), c.idx))
			continue
		}
		c.mu.Lock()
		e, ok := c.waiting[id]
		if ok {
			if typ != msgData {
				delete(c.waiting, id)
			}
			s.answered = max(s.answered, e.mark)
		}
		c.mu.Unlock()
		if !ok || (typ == msgData && e.deliver == nil) {
			continue // a response for a cancelled or unknown exchange
		}
		resp = response{}
		err = stampStale(decodeResponse(payload, e.want, &resp), c.idx)
		switch {
		case typ != msgData:
			// An error or epoch-nack frame has decoded to the typed error it
			// stands for; on a stream it is the NACK of an epoch flip that
			// has already swept the registration.
			e.w.answer(c.idx, &resp, err)
		case err != nil:
			c.teardown(s, err)
			return
		default:
			e.deliver(Delivery{Server: c.idx, Tag: resp.tag, Elem: resp.elem, VLen: resp.vlen, Initial: resp.initial, Epoch: resp.epoch})
		}
	}
}

// endStreams ends every stream on s with err, the error of an epoch-nack on
// request id 0: each leaves the table and its waiter is answered. The server
// had read every one it swept, and one it had yet to read it will refuse, as
// its epoch is the flipped one's; a later NACK on its own id finds no
// waiter. Unary exchanges are left to their own answers.
func (c *MuxConn) endStreams(s *muxSession, err error) {
	var ended []waiter
	c.mu.Lock()
	if c.sess == s {
		for id, e := range c.waiting {
			if e.deliver != nil {
				delete(c.waiting, id)
				ended = append(ended, e.w)
			}
		}
	}
	c.mu.Unlock()
	for _, w := range ended {
		w.answer(c.idx, &response{}, err)
	}
}

// stream sends req on a leg, dialing if need be, and registers op's waiter
// for its answer and deliver, if any, for its deliveries. A context that
// died while dialing opens nothing: a registration we would at once have to
// tear down. Its sub then names no exchange.
func (c *MuxConn) stream(ctx context.Context, req *request, op stepOp, deliver func(Delivery)) (sub, error) {
	s, err := c.session(ctx)
	if err != nil {
		return sub{}, err
	}
	if ctx.Err() != nil {
		return sub{c: c}, nil
	}
	if err := c.send(s, req, op, deliver); err != nil {
		return sub{}, err
	}
	return sub{c: c, id: req.id}, nil
}

// call is every unary exchange: a stream with no sink, parked on until the
// pump brings the response the message table pairs with the request's type.
func (c *MuxConn) call(ctx context.Context, req *request, resp *response) error {
	ch := make(chanWaiter, 1)
	s, err := c.stream(ctx, req, ch, nil)
	if err != nil {
		return err
	}
	select {
	case a := <-ch:
		*resp = a.resp
		return a.err
	case <-ctx.Done():
		c.drop(s.id, false)
		return ctx.Err()
	}
}

// The three client exchanges as a Writer or Reader steps them (stepper):
// queued now if that takes no waiting, to be answered on the pump, or not
// taken, with nothing queued.
func (c *MuxConn) step(req *request, op stepOp, deliver func(Delivery)) error {
	if c.send(nil, req, op, deliver) != nil {
		return errNotNow // the leg meets the refusal, if it was one, itself
	}
	return errTaken
}

func (c *MuxConn) getTagStep(key string, op stepOp) (Tag, error) {
	return Tag{}, c.step(&request{typ: msgGetTag, epoch: c.epoch, key: key}, op, nil)
}

// putDataStep borrows elem for the call: the frame carries a copy. An
// element that would change hands (see handoff) is far past callerSendMax.
func (c *MuxConn) putDataStep(key string, t Tag, elem []byte, vlen int, op stepOp) error {
	if len(elem) >= callerSendMax {
		return errNotNow
	}
	return c.step(&request{typ: msgPutData, epoch: c.epoch, key: key, tag: t, elem: elem, vlen: vlen}, op, nil)
}

// getDataStep names the stream by its request id, for endData.
func (c *MuxConn) getDataStep(key, readerID string, op stepOp, deliver func(Delivery)) (sub, error) {
	req := request{typ: msgGetData, epoch: c.epoch, key: key, reader: readerID}
	err := c.step(&req, op, deliver)
	return sub{c: c, id: req.id}, err
}

// endData drops the stream; its reader-done rides the conn's next frame.
func (c *MuxConn) endData(s sub, _, _ string) bool { return c.drop(s.id, true) }

func (c *MuxConn) PutData(ctx context.Context, key string, t Tag, elem []byte, vlen int) error {
	var resp response
	err := c.call(ctx, &request{typ: msgPutData, epoch: c.epoch, key: key, tag: t, elem: elem, vlen: vlen}, &resp)
	if handoff(len(elem)) {
		// The conn's since the call began, and the exchange is over: the
		// frame carried a copy, if it was sent at all.
		putElem(elem)
	}
	return err
}

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
// after a failure; concurrent operations needing a connection share
// one dial (singleflight) instead of stampeding the server. A
// connection failure fails every in-flight exchange on it — the
// per-server error the quorum layer already knows how to charge.
var errConnClosed = errors.New("soda: mux conn closed")

// muxSession is one live connection generation.
type muxSession struct {
	conn net.Conn
	// rearm is when the connection's write deadline next needs pushing
	// out (see write); guarded by the owning MuxConn's wmu.
	rearm time.Time
	// Guarded by the MuxConn's mu. err is what the session died of, set by
	// teardown. sent counts the bytes written to conn, answered how many of
	// them the server is known to have read: TCP delivers in order, so an
	// answer to one request vouches for every byte written before it.
	err            error
	sent, answered int64
}

// callerSendMax bounds sent-answered for a frame that is written by a
// goroutine which may not wait for the socket (send with no session). What
// is written and not yet vouched for is all that can still sit in the two
// kernels' buffers, and a write parks only on a full send buffer. Linux
// gives a TCP socket 16 KiB of one before any autotuning (the default of
// net.ipv4.tcp_wmem; the BSDs' net.inet.tcp.sendspace is 32 KiB or more),
// on top of the peer's receive buffer; half the smaller figure leaves the
// kernel's own per-segment bookkeeping its share.
const callerSendMax = 8 << 10

// doneFlush is how long a reader-done waits for a frame to ride with
// before the conn writes it on its own.
const doneFlush = time.Millisecond

// dialAttempt is the singleflight cell concurrent session() calls
// share: the winner dials and publishes, the rest wait on done.
type dialAttempt struct {
	done chan struct{}
	sess *muxSession
	err  error
}

// muxWaiter is what an exchange is completed through, exactly once, by
// whoever takes it out of the conn's table: the pump, with the server's
// answer decoded into resp (lent for the call) or the typed error an error
// or epoch-nack frame stands for; teardown, with what the session died of
// and an empty resp. It runs on that goroutine and must not park.
type muxWaiter interface {
	answer(c *MuxConn, resp *response, err error)
}

// muxExchange is one request awaiting its answer. A get-data stays
// registered through its deliveries, which go to deliver, until a frame
// of any other type ends it.
type muxExchange struct {
	w       muxWaiter
	deliver func(Delivery) // a get-data's relay sink, else nil
	want    byte           // the response type that answers it
	mark    int64          // the session's sent once the request was written
}

// muxAnswer is what the exchange of a goroutine that parks for it came to.
type muxAnswer struct {
	resp response
	err  error
}

// chanWaiter is that goroutine's waiter; cap 1, so the one answer never
// blocks whoever brings it.
type chanWaiter chan muxAnswer

func (w chanWaiter) answer(_ *MuxConn, resp *response, err error) { w <- muxAnswer{*resp, err} }

// MuxConn implements Conn over one persistent multiplexed connection.
type MuxConn struct {
	idx  int
	addr string
	opts tcpOpts

	reqSeq atomic.Uint64
	wmu    sync.Mutex // serializes frame writes to the live connection

	mu       sync.Mutex
	sess     *muxSession
	dialing  *dialAttempt
	closed   bool
	waiting  map[uint64]muxExchange // every exchange in flight on sess, by request id
	dones    []uint64               // ended streams whose reader-done is still to be written
	flusher  *time.Timer            // writes dones when no request comes by to carry them
	flushing bool                   // flusher is armed
}

// TCPMuxConn returns the multiplexed Conn for the server at shard
// index idx on addr. Connections are dialed on first use.
func TCPMuxConn(idx int, addr string, opts ...TCPOption) *MuxConn {
	c := &MuxConn{
		idx:     idx,
		addr:    addr,
		opts:    defaultTCPOpts(),
		waiting: make(map[uint64]muxExchange),
	}
	for _, opt := range opts {
		opt(&c.opts)
	}
	return c
}

// TCPMuxConns builds the multiplexed conn set for a cluster from its
// address list, in shard-index order.
func TCPMuxConns(addrs []string, opts ...TCPOption) []Conn {
	conns := make([]Conn, len(addrs))
	for i, a := range addrs {
		conns[i] = TCPMuxConn(i, a, opts...)
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

func (c *MuxConn) Index() int { return c.idx }

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
	if s != nil {
		c.teardown(s, errConnClosed)
	}
	return nil
}

// session returns the live connection, dialing (once, shared) if
// needed.
func (c *MuxConn) session(ctx context.Context) (*muxSession, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, errConnClosed
		}
		if c.sess != nil {
			s := c.sess
			c.mu.Unlock()
			return s, nil
		}
		att := c.dialing
		if att == nil {
			att = &dialAttempt{done: make(chan struct{})}
			c.dialing = att
			c.mu.Unlock()
			conn, err := c.opts.policy.dial(ctx, c.addr)
			c.mu.Lock()
			c.dialing = nil
			if err == nil && c.closed {
				err = errConnClosed
				conn.Close()
				conn = nil
			}
			if err != nil {
				c.mu.Unlock()
				att.err = err
				close(att.done)
				return nil, err
			}
			s := &muxSession{conn: conn}
			c.sess = s
			c.mu.Unlock()
			att.sess = s
			close(att.done)
			go c.readLoop(s)
			return s, nil
		}
		c.mu.Unlock()
		select {
		case <-att.done:
			if att.sess != nil {
				return att.sess, nil
			}
			return nil, att.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// teardown ends a session — once, however many find it broken — and
// completes every exchange registered on it with err.
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
	for _, e := range lost {
		e.w.answer(c, &response{}, err)
	}
}

// appendFrame appends req as one length-prefixed frame.
func appendFrame(b []byte, req *request) []byte {
	at := len(b)
	b = appendRequest(append(b, 0, 0, 0, 0), req)
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}

// writeStall bounds how long one frame write may sit in a full socket
// buffer. A peer that accepted the connection and then stopped reading
// would otherwise block conn.Write — and, behind wmu, every later
// exchange to that server — forever, whatever the callers' contexts
// say. A var only so the stalled-peer test can shorten it.
var writeStall = 10 * time.Second

// send registers w for req's answer and writes req, and with it the
// reader-dones that were waiting for a frame to ride, in one conn.Write.
// Given the session a leg has dialed, it takes its turn at the connection
// like any writer. Given none it runs on the goroutine that called Write or
// Read, which may not wait for a socket: it sends only if a session is up,
// nobody else is writing, and callerSendMax holds — else errNotNow. An
// oversize frame is refused and fails only its own exchange. After an
// error nothing is registered and not a byte written; after nil, w is
// completed exactly once, a failed write included — a stalled one too —
// which tears the (now desynced) session down under everything on it.
func (c *MuxConn) send(s *muxSession, req *request, w muxWaiter, deliver func(Delivery)) error {
	req.id = c.reqSeq.Add(1)
	bp := getFrame()
	*bp = appendFrame(*bp, req)
	var err error
	switch n := len(*bp) - 4; {
	case n > maxFrame:
		err = fmt.Errorf("%w: %d byte frame exceeds %d", ErrFrame, n, maxFrame)
	case s != nil:
		c.wmu.Lock()
	case !c.wmu.TryLock():
		err = errNotNow
	}
	if err != nil {
		putFrame(bp)
		return err
	}
	c.mu.Lock()
	if s == nil {
		if s = c.sess; s == nil || s.sent-s.answered+int64(len(*bp)) > callerSendMax {
			err = errNotNow
		}
	} else if c.sess != s {
		err = s.err
	}
	if err != nil {
		c.mu.Unlock()
		c.wmu.Unlock()
		putFrame(bp)
		return err
	}
	c.carry(s, bp)
	c.waiting[req.id] = muxExchange{w: w, deliver: deliver, want: rpcs[req.typ].resp, mark: s.sent}
	c.mu.Unlock()
	c.write(s, bp)
	return nil
}

// carry appends the waiting reader-dones to bp and counts all of bp as
// sent. Both locks are held.
func (c *MuxConn) carry(s *muxSession, bp *[]byte) {
	for _, id := range c.dones {
		*bp = appendFrame(*bp, &request{typ: msgReaderDone, id: id, epoch: c.opts.epoch})
	}
	c.dones = c.dones[:0]
	s.sent += int64(len(*bp))
}

// write puts bp on the wire, recycles it and gives up wmu, which the
// caller took.
func (c *MuxConn) write(s *muxSession, bp *[]byte) {
	// The deadline is pushed out lazily, once per half period instead of
	// once per frame, so a write always starts with between writeStall/2
	// and writeStall left on it.
	if now := time.Now(); now.After(s.rearm) {
		s.conn.SetWriteDeadline(now.Add(writeStall))
		s.rearm = now.Add(writeStall / 2)
	}
	_, err := s.conn.Write(*bp)
	c.wmu.Unlock()
	putFrame(bp)
	if err != nil {
		c.teardown(s, err)
	}
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

// flushDones is the flusher: it writes the reader-dones no frame came by
// to carry. Best effort — a failed write kills the session, and the
// server's cleanup behind it ends every registration.
func (c *MuxConn) flushDones() {
	c.mu.Lock()
	c.flushing = false
	carried := len(c.dones) == 0
	c.mu.Unlock()
	if carried {
		return // the usual case, and no reason to take the lock a caller may be trying
	}
	c.wmu.Lock()
	c.mu.Lock()
	s := c.sess
	if s == nil || len(c.dones) == 0 {
		c.mu.Unlock()
		c.wmu.Unlock()
		return
	}
	bp := getFrame()
	c.carry(s, bp)
	c.mu.Unlock()
	c.write(s, bp)
}

// readLoop is the demux pump: it decodes every inbound frame (the buffer
// is reused; the decoder copies elements out) and hands it to the exchange
// registered under its request id — a delivery to a stream's sink, any
// other frame to the waiter, as the end of the exchange.
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
			e.w.answer(c, &resp, err)
		case err != nil:
			c.teardown(s, err)
			return
		default:
			e.deliver(Delivery{Server: c.idx, Tag: resp.tag, Elem: resp.elem, VLen: resp.vlen, Initial: resp.initial, Epoch: resp.epoch})
		}
	}
}

// call is every unary Conn method: one exchange on a leg, which parks
// until the pump brings the response the message table pairs with the
// request's type.
func (c *MuxConn) call(ctx context.Context, req *request, resp *response) error {
	s, err := c.session(ctx)
	if err != nil {
		return err
	}
	ch := make(chanWaiter, 1)
	if err := c.send(s, req, ch, nil); err != nil {
		return err
	}
	select {
	case a := <-ch:
		*resp = a.resp
		return a.err
	case <-ctx.Done():
		c.drop(req.id, false)
		return ctx.Err()
	}
}

// The three client exchanges also come in the form a Writer or Reader
// calls on its own goroutine: sent now, if that takes no waiting (send),
// and answered on the pump, through w. A nil *MuxConn — a client's entry
// for a conn that is not one (muxConnsOf) — never sends; false means
// nothing happened and the exchange is owed a leg.

func (c *MuxConn) getTagStart(key string, w muxWaiter) bool {
	return c != nil && c.send(nil, &request{typ: msgGetTag, epoch: c.opts.epoch, key: key}, w, nil) == nil
}

// putDataStart borrows elem for the call: the frame carries a copy. An
// element that would change hands (see handoff) is far past callerSendMax.
func (c *MuxConn) putDataStart(key string, t Tag, elem []byte, vlen int, w muxWaiter) bool {
	return c != nil && len(elem) < callerSendMax &&
		c.send(nil, &request{typ: msgPutData, epoch: c.opts.epoch, key: key, tag: t, elem: elem, vlen: vlen}, w, nil) == nil
}

// getDataStart returns the stream's id, for drop: the reader ends it.
func (c *MuxConn) getDataStart(key, readerID string, w muxWaiter, deliver func(Delivery)) (uint64, bool) {
	if c == nil {
		return 0, false
	}
	req := request{typ: msgGetData, epoch: c.opts.epoch, key: key, reader: readerID}
	sent := c.send(nil, &req, w, deliver) == nil
	return req.id, sent
}

func (c *MuxConn) GetTag(ctx context.Context, key string) (Tag, error) {
	var resp response
	err := c.call(ctx, &request{typ: msgGetTag, epoch: c.opts.epoch, key: key}, &resp)
	return resp.tag, err
}

func (c *MuxConn) PutData(ctx context.Context, key string, t Tag, elem []byte, vlen int) error {
	var resp response
	err := c.call(ctx, &request{typ: msgPutData, epoch: c.opts.epoch, key: key, tag: t, elem: elem, vlen: vlen}, &resp)
	if handoff(len(elem)) {
		// The conn's since the call began, and the exchange is over: the
		// frame carried a copy, if it was sent at all.
		putElem(elem)
	}
	return err
}

func (c *MuxConn) GetElem(ctx context.Context, key string) (Tag, []byte, int, error) {
	var resp response
	err := c.call(ctx, &request{typ: msgGetElem, epoch: c.opts.epoch, key: key}, &resp)
	return resp.tag, resp.elem, resp.vlen, err
}

func (c *MuxConn) RepairPut(ctx context.Context, key string, t Tag, elem []byte, vlen int) (bool, error) {
	var resp response
	err := c.call(ctx, &request{typ: msgRepairPut, epoch: c.opts.epoch, key: key, tag: t, elem: elem, vlen: vlen}, &resp)
	return resp.accepted, err
}

func (c *MuxConn) Keys(ctx context.Context) ([]string, error) {
	var resp response
	err := c.call(ctx, &request{typ: msgKeys, epoch: c.opts.epoch}, &resp)
	return resp.keys, err
}

// Reconfig drives the server's epoch state machine on behalf of a
// reconfiguration coordinator. Reconfig frames are not themselves
// epoch-checked: they are what moves the epoch.
func (c *MuxConn) Reconfig(ctx context.Context, op ReconfigOp, target uint64, n, k int) (EpochStatus, error) {
	var resp response
	err := c.call(ctx, &request{typ: msgReconfig, epoch: epochNone, op: op, target: target, n: n, k: k}, &resp)
	return resp.status, err
}

// GetData opens a key-scoped relay stream on a leg: register the sink
// under a fresh request id and let the pump feed it until the caller
// cancels (clean unsubscribe, nil), the server NACKs the stream's epoch
// (the typed error, so the read retries under the new configuration) or
// the connection dies (server lost).
func (c *MuxConn) GetData(ctx context.Context, key, readerID string, deliver func(Delivery)) error {
	s, err := c.session(ctx)
	if err != nil {
		return err
	}
	// A context that died between session setup and here must not open a
	// server-side registration we would immediately have to tear down.
	if err := ctx.Err(); err != nil {
		return nil
	}
	req := request{typ: msgGetData, epoch: c.opts.epoch, key: key, reader: readerID}
	ch := make(chanWaiter, 1)
	if err := c.send(s, &req, ch, deliver); err != nil {
		return err
	}
	select {
	case a := <-ch:
		return a.err
	case <-ctx.Done():
		c.drop(req.id, true)
		return nil
	}
}

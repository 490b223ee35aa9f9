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
// pump (readLoop) routes each inbound frame to the exchange that owns
// its request id; responses for unknown ids are dropped on the floor,
// which makes late responses to cancelled requests harmless.
//
// The connection is established lazily and re-established on demand
// after a failure; concurrent operations needing a connection share
// one dial (singleflight) instead of stampeding the server. A
// connection failure fails every in-flight exchange on it — the
// per-server error the quorum layer already knows how to charge.
var errConnClosed = errors.New("soda: mux conn closed")

// muxSession is one live connection generation. err is set exactly
// once, before done closes, so any goroutine that observed done may
// read it.
type muxSession struct {
	conn net.Conn
	done chan struct{}
	err  error
	once sync.Once
	// rearm is when the connection's write deadline next needs pushing
	// out (see writeBuf); guarded by the owning MuxConn's wmu.
	rearm time.Time
}

func (s *muxSession) fail(err error) {
	s.once.Do(func() {
		s.err = err
		close(s.done)
	})
	s.conn.Close()
}

// dialAttempt is the singleflight cell concurrent session() calls
// share: the winner dials and publishes, the rest wait on done.
type dialAttempt struct {
	done chan struct{}
	sess *muxSession
	err  error
}

// muxStream is one live get-data stream on the connection: the relay
// sink plus an error slot the demux pump fails it through when the
// server NACKs the stream's epoch mid-flight.
type muxStream struct {
	deliver func(Delivery)
	errc    chan error // cap 1; at most one terminal error per stream
}

// MuxConn implements Conn over one persistent multiplexed connection.
type MuxConn struct {
	idx  int
	addr string
	opts tcpOpts

	reqSeq atomic.Uint64
	wmu    sync.Mutex // serializes frame writes to the live connection

	mu      sync.Mutex
	sess    *muxSession
	dialing *dialAttempt
	closed  bool
	pending map[uint64]chan []byte // unary waiters by request id
	streams map[uint64]*muxStream  // get-data streams by request id
}

// TCPMuxConn returns the multiplexed Conn for the server at shard
// index idx on addr. Connections are dialed on first use.
func TCPMuxConn(idx int, addr string, opts ...TCPOption) *MuxConn {
	c := &MuxConn{
		idx:     idx,
		addr:    addr,
		opts:    defaultTCPOpts(),
		pending: make(map[uint64]chan []byte),
		streams: make(map[uint64]*muxStream),
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
			s := &muxSession{conn: conn, done: make(chan struct{})}
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

// teardown fails a session and clears every exchange registered on it.
// Waiters wake via the session's done channel and read its error.
func (c *MuxConn) teardown(s *muxSession, err error) {
	c.mu.Lock()
	if c.sess == s {
		c.sess = nil
		c.pending = make(map[uint64]chan []byte)
		c.streams = make(map[uint64]*muxStream)
	}
	c.mu.Unlock()
	s.fail(err)
}

// frameForSend starts a pooled frame with room for the length prefix,
// so the whole frame goes out in one conn.Write.
func frameForSend() *[]byte {
	bp := getFrame()
	*bp = append(*bp, 0, 0, 0, 0)
	return bp
}

// writeStall bounds how long one frame write may sit in a full socket
// buffer. A peer that accepted the connection and then stopped reading
// would otherwise block conn.Write — and, behind wmu, every later
// exchange to that server — forever, whatever the callers' contexts
// say. A var only so the stalled-peer test can shorten it.
var writeStall = 10 * time.Second

// writeBuf finishes and writes a frame built by frameForSend,
// recycling the buffer. An oversize frame is refused before a byte is
// written and fails only its own exchange; a failed write — a stalled
// one included — tears the (now desynced) session down.
func (c *MuxConn) writeBuf(s *muxSession, bp *[]byte) error {
	p := *bp
	if len(p)-4 > maxFrame {
		putFrame(bp)
		return fmt.Errorf("%w: %d byte frame exceeds %d", ErrFrame, len(p)-4, maxFrame)
	}
	binary.BigEndian.PutUint32(p[:4], uint32(len(p)-4))
	c.wmu.Lock()
	// The deadline is pushed out lazily, once per half period instead of
	// once per frame, so a write always starts with between writeStall/2
	// and writeStall left on it.
	if now := time.Now(); now.After(s.rearm) {
		s.conn.SetWriteDeadline(now.Add(writeStall))
		s.rearm = now.Add(writeStall / 2)
	}
	//lint:ignore lockhold wmu is the connection's dedicated write-serialization lock: it guards exactly this Write and nothing else ever blocks on it
	_, err := s.conn.Write(p)
	c.wmu.Unlock()
	putFrame(bp)
	if err != nil {
		c.teardown(s, err)
	}
	return err
}

// readLoop is the demux pump: route every inbound frame by (type,
// request id). Stream deliveries are decoded here (the buffer is
// reused; the decoder copies elements out); unary responses are handed
// to their waiter whole.
func (c *MuxConn) readLoop(s *muxSession) {
	br := bufio.NewReader(s.conn)
	var buf []byte
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
		switch {
		case typ == msgError && id == 0:
			// Connection-level error: the server could not even parse a
			// header on this connection; nothing multiplexed on it can
			// be trusted to complete.
			c.teardown(s, decodeResponse(payload, msgError, &response{}))
			return
		case typ == msgData:
			var resp response
			if err := decodeResponse(payload, msgData, &resp); err != nil {
				c.teardown(s, err)
				return
			}
			c.mu.Lock()
			st := c.streams[id]
			c.mu.Unlock()
			if st != nil {
				st.deliver(Delivery{Server: c.idx, Tag: resp.tag, Elem: resp.elem, VLen: resp.vlen, Initial: resp.initial, Epoch: resp.epoch})
			}
		default:
			// A unary response goes to its waiter whole, whose decoder
			// surfaces an error or epoch-nack frame as the typed error. An
			// epoch NACK may instead kill a relay stream the server just
			// swept in an epoch flip.
			c.mu.Lock()
			ch := c.pending[id]
			delete(c.pending, id)
			var st *muxStream
			if typ == msgEpochNack {
				st = c.streams[id]
				delete(c.streams, id)
			}
			c.mu.Unlock()
			switch {
			case st != nil:
				select {
				case st.errc <- stampStale(decodeResponse(payload, msgData, &response{}), c.idx):
				default:
				}
			case ch != nil:
				ch <- payload // buffered; never blocks the pump
				buf = nil     // ownership moved to the waiter
			}
			// Otherwise: a response for a cancelled or unknown exchange.
		}
	}
}

// unary runs one request/response exchange: register a waiter under a
// fresh request id, send req, wait for the pump to route the response
// payload back.
func (c *MuxConn) unary(ctx context.Context, req *request) ([]byte, error) {
	s, err := c.session(ctx)
	if err != nil {
		return nil, err
	}
	req.id = c.reqSeq.Add(1)
	ch := make(chan []byte, 1)
	c.mu.Lock()
	if c.sess != s {
		c.mu.Unlock()
		select {
		case <-s.done:
			return nil, s.err
		default:
			return nil, errConnClosed
		}
	}
	c.pending[req.id] = ch
	c.mu.Unlock()
	bp := frameForSend()
	*bp = appendRequest(*bp, req)
	if err := c.writeBuf(s, bp); err != nil {
		c.mu.Lock()
		delete(c.pending, req.id)
		c.mu.Unlock()
		return nil, err
	}
	select {
	case payload := <-ch:
		return payload, nil
	case <-s.done:
		if len(ch) > 0 { // routed just before the session died
			return <-ch, nil
		}
		return nil, s.err
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, req.id)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// call is every unary Conn method: one exchange, answered by the
// response type the message table pairs with the request's.
func (c *MuxConn) call(ctx context.Context, req *request, resp *response) error {
	payload, err := c.unary(ctx, req)
	if err != nil {
		return err
	}
	return stampStale(decodeResponse(payload, rpcs[req.typ].resp, resp), c.idx)
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

// GetData opens a key-scoped relay stream: register the sink under a
// fresh request id and let the pump feed it until the caller cancels
// (clean unsubscribe, nil) or the connection dies (server lost,
// error). Cancellation sends a best-effort reader-done so the server
// drops the registration promptly instead of at connection teardown.
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
	req := c.reqSeq.Add(1)
	st := &muxStream{deliver: deliver, errc: make(chan error, 1)}
	c.mu.Lock()
	if c.sess != s {
		c.mu.Unlock()
		select {
		case <-s.done:
			return s.err
		default:
			return errConnClosed
		}
	}
	c.streams[req] = st
	c.mu.Unlock()
	bp := frameForSend()
	*bp = appendRequest(*bp, &request{typ: msgGetData, id: req, epoch: c.opts.epoch, key: key, reader: readerID})
	if err := c.writeBuf(s, bp); err != nil {
		c.mu.Lock()
		delete(c.streams, req)
		c.mu.Unlock()
		return err
	}
	select {
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.streams, req)
		c.mu.Unlock()
		// Best effort: when the write fails writeBuf kills the session,
		// and the server's conn-close cleanup unregisters every stream at
		// once instead of relaying to a reader that left.
		bp := frameForSend()
		*bp = appendRequest(*bp, &request{typ: msgReaderDone, id: req, epoch: c.opts.epoch})
		c.writeBuf(s, bp)
		return nil
	case err := <-st.errc:
		// The server NACKed the stream's epoch (pump already dropped the
		// registration on both ends); surface the typed error so the
		// read retries under the new configuration.
		return err
	case <-s.done:
		// Session death races the reader loop's stream sweep; deleting
		// here too keeps the map from briefly pinning the closure.
		c.mu.Lock()
		delete(c.streams, req)
		c.mu.Unlock()
		return s.err
	}
}

package soda

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrServerDown is what loopback conns return for a fail-stop-crashed
// server, standing in for a refused connection.
var ErrServerDown = errors.New("soda: server is down")

// Loopback is an in-process cluster of n SODA servers with
// synchronous, deterministic message delivery — every client call
// runs the server state machine on the calling goroutine, and every
// relay runs on the goroutine of the put that triggered it. A Writer or
// Reader takes that literally: these conns answer every step now, on the
// goroutine that called Write or Read, and a leg is sent only for what
// they do not take (see now). The caller then waits for each
// server's get-tag and registration in turn, register lock included,
// where a leg per server would have let n-f of them outrun a slow one:
// a hung server, not a stalled apply, is this transport's silent one. A
// put-data only tries the locks it takes — a durable server logs and
// syncs under the register lock — and leaves a busy server for later.
// Fault injection:
//
//   - Crash: fail-stop; the server's conns error immediately and its
//     registrations end with ErrServerDown.
//   - Corrupt: the server's storage rots; every element it serves or
//     relays first passes through a caller-supplied transform, which
//     is what the SODA_err read path exists to catch.
//   - Recover: a crashed or hung server reboots with what its disk
//     holds — nothing, on a memory loopback — for repair to heal.
//
// Tests also hang a server (its hung flag): a silent crash, where the
// server never answers and callers block until their context ends —
// the pure crash model the protocol's quorums are sized for. No program
// hangs one, so what sets the flag is a test helper.
//
// Loopback conns keep the Conn contract without a wire: the server
// copies a borrowed put's element into its register (a client's pooled
// encode buffer never aliases storage), takes a handed-off one as the
// register itself, and copies a get-elem out under the register lock.
// Only a Delivery's element is the server's own buffer, pinned by the
// registration (see register). Loopback is the substrate for
// deterministic protocol tests and the examples.
type Loopback struct {
	mu sync.Mutex // serializes the fault-injection mutators
	// servers holds atomic pointers so Recover can swap in a freshly
	// recovered state machine while conns keep reading lock-free.
	servers []atomic.Pointer[Server]
	// The fault state is read on every operation and every delivery, so
	// the hot path samples it with atomics; mu only orders the mutators
	// against each other.
	crashed   []atomic.Bool
	hung      []atomic.Bool
	corrupt   []atomic.Pointer[func([]byte) []byte]
	onDeliver atomic.Pointer[func(server int, key, readerID string, d Delivery)]
	admitted  func(server int) // test hook: a get-data passed admission and has yet to register
	// Durable clusters only: per-node state directories and the options
	// Recover re-opens them with.
	durDir  string
	durOpts []DurableOption
}

// NewLoopback builds an n-server in-process cluster.
func NewLoopback(n int) *Loopback {
	lb := newLoopbackShell(n)
	for i := range lb.servers {
		lb.servers[i].Store(NewServer(i))
	}
	return lb
}

// NewDurableLoopback builds an n-server cluster whose nodes persist
// their state under dir (one "node-<i>" subdirectory each), so
// PowerCut and Recover can exercise the WAL + snapshot machinery.
func NewDurableLoopback(n int, dir string, opts ...DurableOption) (*Loopback, error) {
	lb := newLoopbackShell(n)
	lb.durDir, lb.durOpts = dir, opts
	for i := range lb.servers {
		s, err := NewDurableServer(i, lb.nodeDir(i), opts...)
		if err != nil {
			lb.CloseServers()
			return nil, err
		}
		lb.servers[i].Store(s)
	}
	return lb, nil
}

func newLoopbackShell(n int) *Loopback {
	return &Loopback{
		servers: make([]atomic.Pointer[Server], n),
		crashed: make([]atomic.Bool, n),
		hung:    make([]atomic.Bool, n),
		corrupt: make([]atomic.Pointer[func([]byte) []byte], n),
	}
}

func (l *Loopback) nodeDir(i int) string {
	return filepath.Join(l.durDir, fmt.Sprintf("node-%d", i))
}

// Server exposes server i's state machine for inspection.
func (l *Loopback) Server(i int) *Server { return l.servers[i].Load() }

// Size returns the number of server endpoints in the loopback. A
// configuration may use any prefix of them: endpoints beyond the
// active config's n are standby nodes a grow-reconfiguration can
// bring in.
func (l *Loopback) Size() int { return len(l.servers) }

// Conns returns a fresh conn set for the cluster, stamped with epoch 0
// (the construction-time configuration).
func (l *Loopback) Conns() []Conn { return l.ConnsAt(SeedEpoch, len(l.servers)) }

// ConnsAt returns conns for the first n servers, each stamping the
// given configuration epoch on every operation — the conn set for one
// epoch's Config. Reconfiguration to a different member count builds a
// new conn set rather than mutating an old one, so an operation's
// quorum can only ever carry its own config's epoch.
func (l *Loopback) ConnsAt(epoch uint64, n int) []Conn {
	conns := make([]Conn, n)
	for i := range conns {
		c := &loopConn{lb: l}
		c.rpcConn = rpcConn{idx: i, epoch: epoch, t: c}
		conns[i] = c
	}
	return conns
}

// Crash fail-stops server i: future operations against it error, and
// its registered readers are dropped so it relays to nobody, each
// registration ending with ErrServerDown (the TCP analogue: the
// connection dies).
func (l *Loopback) Crash(i int) {
	l.mu.Lock()
	l.crashed[i].Store(true)
	l.mu.Unlock()
	l.servers[i].Load().dropAll(ErrServerDown)
}

// PowerCut crashes durable server i the unclean way: fail-stop like
// Crash, plus the WAL loses everything past its last fsync — exactly
// what the disk would hold after the cord is pulled. Every record is
// synced before its mutation applies, so nothing acknowledged is lost.
// Recover brings the node back from that disk state.
func (l *Loopback) PowerCut(i int) {
	l.Crash(i)
	if d := l.servers[i].Load().dur; d != nil {
		d.powerCut()
	}
}

// Recover replaces crashed server i with a fresh state machine holding
// what its disk holds: on a durable loopback the state rebuilt from its
// node directory (snapshot load + WAL replay), call it after PowerCut;
// on a memory one nothing, call it after Crash or a hang — the lost-disk
// fault, which donor repair heals. Restart, by contrast, keeps storage
// as the crash left it. The swapped-in server starts with no registered
// readers, like any rebooted node.
func (l *Loopback) Recover(i int) (*Server, error) {
	var s *Server
	if l.durDir == "" {
		s = NewServer(i)
	} else {
		var err error
		if s, err = NewDurableServer(i, l.nodeDir(i), l.durOpts...); err != nil {
			return nil, err
		}
	}
	l.mu.Lock()
	l.servers[i].Store(s)
	l.crashed[i].Store(false)
	l.hung[i].Store(false)
	l.mu.Unlock()
	return s, nil
}

// CloseServers cleanly shuts down every durable server (final fsync,
// files closed); memory-only clusters no-op.
func (l *Loopback) CloseServers() error {
	var first error
	for i := range l.servers {
		if s := l.servers[i].Load(); s != nil {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Restart rejoins a crashed or hung server i: future operations reach
// its state machine again, with storage exactly as the crash left it
// (possibly stale — repair's job) and no registered readers. A
// corruption transform installed with Corrupt survives the restart,
// modeling a bad disk that a reboot does not fix; clear it with
// Corrupt(i, nil) to model a disk swap. A restart that lost the disk
// entirely is Recover.
func (l *Loopback) Restart(i int) {
	l.mu.Lock()
	l.crashed[i].Store(false)
	l.hung[i].Store(false)
	l.mu.Unlock()
}

// Corrupt installs a storage-rot transform for server i: every
// element it serves from now on is passed through fn (on a copy — the
// underlying storage stays intact, modeling a bad disk sector or a
// bit-flipping NIC rather than a helpful repair).
func (l *Loopback) Corrupt(i int, fn func([]byte) []byte) {
	if fn == nil {
		l.corrupt[i].Store(nil)
		return
	}
	l.corrupt[i].Store(&fn)
}

// FlipByte is a ready-made Corrupt transform: XOR the byte at off.
func FlipByte(off int) func([]byte) []byte {
	return func(b []byte) []byte {
		if len(b) > 0 {
			b[off%len(b)] ^= 0x5A
		}
		return b
	}
}

// OnDeliver installs a hook invoked synchronously after each delivery
// to a reader, with no loopback locks held — tests use it to inject
// faults at exact protocol moments (for example, crash a server right
// after its initial response reaches a reader).
func (l *Loopback) OnDeliver(fn func(server int, key, readerID string, d Delivery)) {
	if fn == nil {
		l.onDeliver.Store(nil)
		return
	}
	l.onDeliver.Store(&fn)
}

// state samples the fault flags for server i.
func (l *Loopback) state(i int) (crashed, hung bool) {
	return l.crashed[i].Load(), l.hung[i].Load()
}

// transform applies server i's corruption, if any, to a copy of elem.
func (l *Loopback) transform(i int, elem []byte) []byte {
	if fn := l.corrupt[i].Load(); fn != nil && len(elem) > 0 {
		return (*fn)(slices.Clone(elem))
	}
	return elem
}

func (l *Loopback) hook() func(server int, key, readerID string, d Delivery) {
	if fn := l.onDeliver.Load(); fn != nil {
		return *fn
	}
	return nil
}

// loopConn is the in-process Conn for one server, stamped with the
// configuration epoch its operations present.
type loopConn struct {
	rpcConn
	lb *Loopback
}

// gate applies the fault flags: error when crashed, block forever
// when hung. A cancelled context is deliberately NOT checked: a
// quorum's straggler goroutines model messages already in flight, and
// in-flight messages still land. Tests that need a put to *miss* a
// server must crash it before the put begins, not rely on client-side
// cancellation to unsend it.
func (c *loopConn) gate(ctx context.Context) error {
	crashed, hung := c.lb.state(c.idx)
	if crashed {
		return ErrServerDown
	}
	if hung {
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

// call serves a blocking exchange from the message table: gate, admission
// under the row's class, the row's handler. A rotting server's element
// passes through its corruption: it lies to the Repairer exactly as it lies
// to readers, which is why repair cross-checks donors.
func (c *loopConn) call(ctx context.Context, req *request, resp *response) error {
	if err := c.gate(ctx); err != nil {
		return err
	}
	srv, row := c.lb.servers[c.idx].Load(), rpcs[req.typ]
	if nack := row.admit(srv, req.epoch); nack != nil {
		return nack
	}
	if err := row.serve(srv, req, resp); err != nil {
		return err
	}
	resp.elem = c.lb.transform(c.idx, resp.elem)
	return nil
}

// stream is subscribe behind gate, which parks for a hung server.
func (c *loopConn) stream(ctx context.Context, req *request, op stepOp, deliver func(Delivery)) (sub, error) {
	if err := c.gate(ctx); err != nil {
		return sub{}, err
	}
	return c.subscribe(req.key, req.reader, op, deliver)
}

// The three client exchanges as a Writer or Reader steps them (stepper):
// here a reply is a function return and a leg buys nothing, so a step is
// answered now, silent for a hung server, or not taken while a test hook is
// installed — hooks are handed the protocol's goroutines to crash, seal and
// park on, and the caller's is not one of them — and for a put-data to a
// durable server that would wait: for the key's register or the log, which
// someone else is in (two writers queueing there in step convoyed on every
// log), or for a device (wal.syncsWait: five such fsyncs overlap from five
// legs and add up from one goroutine).

// now is gate for the steps.
func (c *loopConn) now() error {
	crashed, hung := c.lb.state(c.idx)
	switch {
	case c.lb.onDeliver.Load() != nil || c.lb.admitted != nil:
		return errNotNow
	case crashed:
		return ErrServerDown
	case hung:
		return errSilent
	}
	return nil
}

func (c *loopConn) getTagStep(key string, _ stepOp) (Tag, error) {
	if err := c.now(); err != nil {
		return Tag{}, err
	}
	srv := c.lb.servers[c.idx].Load()
	if nack := srv.admit(opMint, c.epoch); nack != nil {
		return Tag{}, nack
	}
	return srv.GetTag(key), nil
}

func (c *loopConn) PutData(ctx context.Context, key string, t Tag, elem []byte, vlen int) error {
	if err := c.gate(ctx); err != nil {
		putElem(elem)
		return err
	}
	return c.put(c.lb.servers[c.idx].Load(), key, t, elem, vlen, true)
}

// putDataStep keeps PutData's ownership rule — a handed-off elem is the
// conn's whatever comes back — except under errNotNow, which leaves elem
// with the caller for the later visit, or the leg, that will send it. On a
// durable server it logs, syncs and applies on the calling goroutine when
// it finds the key's register and the log free and the log's syncs return
// from the page cache; else errNotNow, with nothing logged, applied or
// counted.
func (c *loopConn) putDataStep(key string, t Tag, elem []byte, vlen int, _ stepOp) error {
	if err := c.now(); err != nil {
		if err != errNotNow {
			putElem(elem)
		}
		return err
	}
	srv := c.lb.servers[c.idx].Load()
	if srv.dur != nil && srv.dur.wal.syncsWait() {
		return errNotNow
	}
	return c.put(srv, key, t, elem, vlen, false)
}

// put is the server side of a put-data that passed the fault flags: one
// Server.put, wait being its, and owned set for an elem that changes hands
// with the call (see handoff), which becomes the server's register as it
// is or is freed on the way out. A put the server could not take now never
// happened: it keeps its elem and is not counted.
func (c *loopConn) put(srv *Server, key string, t Tag, elem []byte, vlen int, wait bool) error {
	if nack := srv.admit(opClient, c.epoch); nack != nil {
		putElem(elem)
		return nack
	}
	_, err := srv.put(walOpPut, key, t, elem, vlen, wait, handoff(len(elem)))
	if err != errNotNow {
		srv.metrics.of(key).PutDatas.Add(1)
	}
	return err
}

// loopSink is the registrant of a registration a loopConn made: the
// reader's sink behind the server's corruption and the delivery hook, and
// the waiter the registration's end is reported through.
type loopSink struct {
	c        *loopConn
	key, rid string
	sink     func(Delivery)
	w        waiter
}

func (s *loopSink) deliver(d Delivery) {
	d.Elem = s.c.lb.transform(s.c.idx, d.Elem)
	s.sink(d)
	if fn := s.c.lb.hook(); fn != nil {
		fn(s.c.idx, s.key, s.rid, d)
	}
}

func (s *loopSink) end(cause error) { s.w.answer(s.c.idx, &response{}, cause) }

// subscribe is the half of GetData that cannot park: admission, the
// registration and the initial delivery, made before it returns. Every
// later relay reaches deliver from the goroutine of the put that caused it,
// until endData, or until the server ends the registration, which it
// reports through the waiter op.take gave — the one way a registration
// answered now ends under its reader, as a taken one does.
func (c *loopConn) subscribe(key, readerID string, op stepOp, deliver func(Delivery)) (sub, error) {
	srv := c.lb.servers[c.idx].Load()
	if nack := srv.admit(opClient, c.epoch); nack != nil {
		return sub{}, nack
	}
	if c.lb.admitted != nil {
		c.lb.admitted(c.idx)
	}
	to := &loopSink{c: c, key: key, rid: readerID, sink: deliver, w: op.take(msgGetData)}
	initial := srv.register(key, readerID, to)
	// A flip or a crash is published — the epoch state swapped, the flag
	// set — before its sweep, so one whose sweep this registration may have
	// missed shows here. Whoever removes the registration ends it: forced,
	// as a relay may have handed the reader an element already.
	var cause error = ErrServerDown
	if nack := srv.admit(opClient, c.epoch); nack != nil {
		cause = nack
	} else if !c.lb.crashed[c.idx].Load() {
		to.deliver(initial)
		return sub{c: c}, nil
	}
	if srv.unregister(key, readerID, true) {
		to.end(cause)
	}
	return sub{c: c}, nil
}

// getDataStep is subscribe behind the fault flags: stream's gate
// parks.
func (c *loopConn) getDataStep(key, readerID string, op stepOp, deliver func(Delivery)) (sub, error) {
	if err := c.now(); err != nil {
		return sub{}, err
	}
	return c.subscribe(key, readerID, op, deliver)
}

// endData is the reader done with every element the registration handed
// it.
func (c *loopConn) endData(_ sub, key, readerID string) bool {
	return c.lb.servers[c.idx].Load().unregister(key, readerID, false)
}

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
// Reader takes that literally: it asks each of these conns on the
// goroutine that called Write or Read, and sends a leg only for what that
// pass leaves owed (see errNotNow). The caller then waits for each
// server's get-tag and registration in turn, register lock included,
// where a leg per server would have let n-f of them outrun a slow one:
// Hang, not a stalled apply, is this transport's silent server. A
// put-data only tries the locks it takes — a durable server logs and
// syncs under the register lock — and leaves a busy server for later.
// Fault injection:
//
//   - Crash: fail-stop; the server's conns error immediately and its
//     registered readers stop hearing relays.
//   - Hang: silent crash; the server never answers, callers block
//     until their context ends. This is the pure crash model the
//     protocol's quorums are sized for.
//   - Corrupt: the server's storage rots; every element it serves or
//     relays first passes through a caller-supplied transform, which
//     is what the SODA_err read path exists to catch.
//
// Loopback conns keep the Conn contract without a wire: the server
// copies a borrowed put's element into its register (a client's pooled
// encode buffer never aliases storage), takes a handed-off one as the
// register itself, and copies a get-elem out under the register lock.
// Only a Delivery's element is the server's own buffer, pinned by the
// registration (see register). Loopback is the substrate for
// deterministic protocol tests and the sodademo binary.
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
	down      []atomic.Value // chan struct{}; closed by Crash, replaced by Restart
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
	lb := &Loopback{
		servers: make([]atomic.Pointer[Server], n),
		crashed: make([]atomic.Bool, n),
		hung:    make([]atomic.Bool, n),
		down:    make([]atomic.Value, n),
		corrupt: make([]atomic.Pointer[func([]byte) []byte], n),
	}
	for i := range lb.down {
		lb.down[i].Store(make(chan struct{}))
	}
	return lb
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
		conns[i] = &loopConn{lb: l, idx: i, epoch: epoch}
	}
	return conns
}

// Crash fail-stops server i: future operations against it error,
// in-flight get-data subscriptions end with ErrServerDown (the TCP
// analogue: the connection dies), and its registered readers are
// dropped so it relays to nobody.
func (l *Loopback) Crash(i int) {
	l.mu.Lock()
	if !l.crashed[i].Load() {
		l.crashed[i].Store(true)
		close(l.down[i].Load().(chan struct{}))
	}
	l.mu.Unlock()
	l.servers[i].Load().UnregisterAll()
}

// Hang silently crashes server i: it stops answering but connections
// do not fail. Its registered readers are likewise dropped.
func (l *Loopback) Hang(i int) {
	l.mu.Lock()
	l.hung[i].Store(true)
	l.mu.Unlock()
	l.servers[i].Load().UnregisterAll()
}

// PowerCut crashes durable server i the unclean way: fail-stop like
// Crash, plus the WAL loses everything past its last fsync — exactly
// what the disk would hold after the cord is pulled. Under FsyncAlways
// nothing acknowledged is lost; under FsyncNone the active segment's
// tail is. Recover brings the node back from that disk state.
func (l *Loopback) PowerCut(i int) {
	l.Crash(i)
	if d := l.servers[i].Load().dur; d != nil {
		d.powerCut()
	}
}

// Recover replaces crashed server i with a fresh state machine
// rebuilt from its node directory (snapshot load + WAL replay) — the
// durable alternative to Restart's "storage as the crash left it" and
// to Wipe + donor repair. The swapped-in server starts with no
// registered readers, like any rebooted node.
func (l *Loopback) Recover(i int) (*Server, error) {
	if l.durDir == "" {
		return nil, errors.New("soda: Recover on a non-durable loopback")
	}
	s, err := NewDurableServer(i, l.nodeDir(i), l.durOpts...)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.servers[i].Store(s)
	if l.crashed[i].Load() {
		l.down[i].Store(make(chan struct{}))
		l.crashed[i].Store(false)
	}
	l.hung[i].Store(false)
	l.mu.Unlock()
	return s, nil
}

// TearWALTail shears n bytes off the end of server i's last WAL
// segment, simulating a torn final write that a power cut left
// mid-record. Call it between PowerCut and Recover.
func (l *Loopback) TearWALTail(i int, n int64) error {
	if l.durDir == "" {
		return errors.New("soda: TearWALTail on a non-durable loopback")
	}
	return tearWALTail(l.nodeDir(i), n)
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
// Corrupt(i, nil) to model a disk swap. Combine with Server(i).Wipe()
// for a restart that lost the disk entirely.
func (l *Loopback) Restart(i int) {
	l.mu.Lock()
	if l.crashed[i].Load() {
		l.down[i].Store(make(chan struct{}))
		l.crashed[i].Store(false)
	}
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

// downCh samples server i's crash channel (Restart replaces it).
func (l *Loopback) downCh(i int) chan struct{} {
	return l.down[i].Load().(chan struct{})
}

// transform applies server i's corruption, if any, to a copy of the
// delivery's element.
func (l *Loopback) transform(i int, d Delivery) Delivery {
	if fn := l.corrupt[i].Load(); fn != nil && len(d.Elem) > 0 {
		d.Elem = (*fn)(slices.Clone(d.Elem))
	}
	return d
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
	lb    *Loopback
	idx   int
	epoch uint64
}

func (c *loopConn) Index() int { return c.idx }

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

// The three client exchanges also come in a form that never parks —
// getTagNow, putDataNow and subscribeNow — which a Writer or Reader asks
// on the calling goroutine (Writer.writeNow, Reader.Read): here a reply
// is a function return, and a leg buys nothing. Each answers, fails with
// the error its parking twin would return, or reports one of two things
// the twin would have slept through.
var (
	// errSilent: the server is hung. Its leg would never answer — gate
	// blocks until the context ends — so the pass counts nothing for it.
	errSilent = errors.New("soda: hung server answers nothing")
	// errNotNow: this exchange cannot be made here and now; nothing was
	// done, counted or consumed, and it is owed a leg. The conn is not the
	// loopback's own (a nil *loopConn). Or a test hook is installed: hooks
	// are handed the protocol's goroutines to crash, seal and park on, and
	// the caller's is not one of them. Or it is a put-data to a durable
	// server that would have to wait — for the key's register or the log,
	// which someone else is in (the writer comes back once before sending
	// the leg: queueing instead, two writers walking the servers in step
	// convoyed on every log), or for a device (wal.syncsWait: five such
	// fsyncs overlap from five legs and add up from one goroutine).
	errNotNow = errors.New("soda: exchange needs a leg")
)

// now is gate for the non-parking forms. A client holds a nil *loopConn
// for each conn that is not the loopback's own (loopConnsOf).
func (c *loopConn) now() error {
	if c == nil || c.lb.onDeliver.Load() != nil || c.lb.admitted != nil {
		return errNotNow
	}
	crashed, hung := c.lb.state(c.idx)
	if crashed {
		return ErrServerDown
	}
	if hung {
		return errSilent
	}
	return nil
}

func (c *loopConn) GetTag(ctx context.Context, key string) (Tag, error) {
	if err := c.gate(ctx); err != nil {
		return Tag{}, err
	}
	return c.getTag(key)
}

func (c *loopConn) getTagNow(key string) (Tag, error) {
	if err := c.now(); err != nil {
		return Tag{}, err
	}
	return c.getTag(key)
}

func (c *loopConn) getTag(key string) (Tag, error) {
	srv := c.lb.servers[c.idx].Load()
	if nack := srv.Admit(opClient, c.epoch); nack != nil {
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

// putDataNow keeps PutData's ownership rule — a handed-off elem is the
// conn's whatever comes back — except under errNotNow, which leaves elem
// with the caller for the later visit, or the leg, that will send it. On a
// durable server it logs, syncs and applies on the calling goroutine when
// it finds the key's register and the log free and the log's syncs return
// from the page cache; else errNotNow, with nothing logged, applied or
// counted.
func (c *loopConn) putDataNow(key string, t Tag, elem []byte, vlen int) error {
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

// put is the server side of a put-data that passed the fault flags, wait
// being Server.put's. An elem that changes hands with the call (see
// handoff) becomes the server's register as it is, or is freed on the way
// out; putElem ignores the borrowed ones. A put the server could not take
// now never happened: it keeps its elem and is not counted.
func (c *loopConn) put(srv *Server, key string, t Tag, elem []byte, vlen int, wait bool) error {
	if nack := srv.Admit(opClient, c.epoch); nack != nil {
		putElem(elem)
		return nack
	}
	var err error
	if handoff(len(elem)) {
		err = srv.putOwned(key, t, elem, vlen, wait)
	} else {
		_, err = srv.put(walOpPut, key, t, elem, vlen, wait) // the server copies what it keeps
	}
	if err != errNotNow {
		srv.metrics.of(key).putDatas.Add(1)
	}
	return err
}

// loopSub is one reader's live registration on one loopback server.
type loopSub struct {
	c             *loopConn
	srv           *Server
	key, readerID string
	down, flipped <-chan struct{}
}

// subscribe is the half of GetData that cannot park: admission, the
// registration, and the initial delivery, made before it returns. Every
// later relay reaches deliver from the goroutine of the put that caused
// it, until close.
func (c *loopConn) subscribe(key, readerID string, deliver func(Delivery)) (loopSub, error) {
	srv := c.lb.servers[c.idx].Load()
	// The stream dies when the server's epoch moves: the registration
	// was dropped by the transition, and the stale error is what makes
	// the reader re-register under the new configuration. The channel is
	// sampled before the admission check, so a flip that lands after the
	// check — before or after Register — closes the one this stream holds.
	flipped := srv.EpochChanged()
	if nack := srv.Admit(opClient, c.epoch); nack != nil {
		return loopSub{}, nack
	}
	if c.lb.admitted != nil {
		c.lb.admitted(c.idx)
	}
	wrap := func(d Delivery) {
		d = c.lb.transform(c.idx, d)
		deliver(d)
		if fn := c.lb.hook(); fn != nil {
			fn(c.idx, key, readerID, d)
		}
	}
	down := c.lb.downCh(c.idx)
	wrap(srv.Register(key, readerID, wrap))
	return loopSub{c: c, srv: srv, key: key, readerID: readerID, down: down, flipped: flipped}, nil
}

// subscribeNow is subscribe behind the fault flags, as getTagNow is
// getTag: GetData's own gate parks.
func (c *loopConn) subscribeNow(key, readerID string, deliver func(Delivery)) (loopSub, error) {
	if err := c.now(); err != nil {
		return loopSub{}, err
	}
	return c.subscribe(key, readerID, deliver)
}

// close ends the registration. Unforced, it is the reader saying it is
// done with every element it was handed; a stream that dies under its
// reader is forced, and leaves it holding them.
func (s loopSub) close(forced bool) { s.srv.unregister(s.key, s.readerID, forced) }

// await is the half of GetData that parks: it holds the registration open
// until ctx ends or the stream dies under it. The channels were sampled at
// registration, so a crash or a flip since is seen however late the call.
func (s loopSub) await(ctx context.Context) error {
	select {
	case <-ctx.Done():
		s.close(false)
		return nil
	case <-s.down:
		s.close(true)
		return ErrServerDown
	case <-s.flipped:
		s.close(true)
		if nack := s.srv.Admit(opClient, s.c.epoch); nack != nil {
			return nack
		}
		st := s.srv.EpochStatus()
		return &StaleEpochError{Server: s.c.idx, ServerEpoch: st.Epoch, Want: st.Epoch, Sealed: st.Sealed}
	}
}

func (c *loopConn) GetData(ctx context.Context, key, readerID string, deliver func(Delivery)) error {
	if err := c.gate(ctx); err != nil {
		return err
	}
	sub, err := c.subscribe(key, readerID, deliver)
	if err != nil {
		return err
	}
	return sub.await(ctx)
}

// GetElem serves the repair collection phase. The corruption transform
// applies here too: a rotting server lies to the Repairer exactly as
// it lies to readers, which is why repair cross-checks donors when the
// codec has error-location structure.
func (c *loopConn) GetElem(ctx context.Context, key string) (Tag, []byte, int, error) {
	if err := c.gate(ctx); err != nil {
		return Tag{}, nil, 0, err
	}
	srv := c.lb.servers[c.idx].Load()
	if nack := srv.Admit(opDonor, c.epoch); nack != nil {
		return Tag{}, nil, 0, nack
	}
	t, elem, vlen := srv.getElem(key)
	d := c.lb.transform(c.idx, Delivery{Server: c.idx, Tag: t, Elem: elem, VLen: vlen})
	return d.Tag, d.Elem, d.VLen, nil
}

func (c *loopConn) RepairPut(ctx context.Context, key string, t Tag, elem []byte, vlen int) (bool, error) {
	if err := c.gate(ctx); err != nil {
		return false, err
	}
	srv := c.lb.servers[c.idx].Load()
	if nack := srv.Admit(opRepair, c.epoch); nack != nil {
		return false, nack
	}
	return srv.repairPut(key, t, elem, vlen)
}

// Keys enumerates the server's written keys — the repair namespace.
func (c *loopConn) Keys(ctx context.Context) ([]string, error) {
	if err := c.gate(ctx); err != nil {
		return nil, err
	}
	srv := c.lb.servers[c.idx].Load()
	if nack := srv.Admit(opDonor, c.epoch); nack != nil {
		return nil, nack
	}
	return srv.Keys(), nil
}

// Reconfig forwards a coordinator seal/activate/status to the server.
// Epoch admission does not apply: reconfiguration is how epochs move.
func (c *loopConn) Reconfig(ctx context.Context, op ReconfigOp, target uint64, n, k int) (EpochStatus, error) {
	if err := c.gate(ctx); err != nil {
		return EpochStatus{}, err
	}
	return c.lb.servers[c.idx].Load().Reconfig(op, target, n, k)
}

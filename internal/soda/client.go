package soda

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

var (
	// ErrUnavailable is returned when more servers have failed than
	// the operation's fault budget f allows.
	ErrUnavailable = errors.New("soda: too many server failures")
)

// Conn is a client's handle to one server, implemented by the
// multiplexed TCP transport (mux.go) and the in-process loopback
// (loopback.go), which share every method but PutData (rpcConn, rpc.go).
// Every operation but Keys and Reconfig addresses one named register by key.
//
// The put contract: PutData borrows an elem below elemHandoffMin
// (64 KiB) for the call and never retains it; an elem of that size or
// more is the conn's from the call on, whatever the call returns — the
// caller must not read, write or re-send it, and a Conn that wraps
// another passes it through. RepairPut always borrows. A GetElem
// result is the caller's own copy, and a Delivery's Elem is read-only
// and valid until GetData returns.
//
// Every method may park, so a Writer or Reader calls one only from a
// goroutine of its own, one per server (a leg): n-f answers complete a
// phase however slow the rest are. Before that it steps each exchange on
// the calling goroutine through a conn that can (stepper, not part of
// Conn); one that cannot, a Conn that wraps another say, is owed a leg for
// everything.
type Conn interface {
	// Index returns the server's shard index in [0, n).
	Index() int
	// Epoch returns the configuration epoch the conn stamps on every
	// exchange.
	Epoch() uint64
	// GetTag asks for the server's highest stored tag under key.
	GetTag(ctx context.Context, key string) (Tag, error)
	// PutData stores one coded element under (key, tag); see the put
	// contract above for who owns elem afterwards.
	PutData(ctx context.Context, key string, t Tag, elem []byte, vlen int) error
	// GetData registers readerID with the server on key, delivers the
	// key's current state marked Initial, then every relayed put-data
	// until ctx is cancelled. It blocks for the lifetime of the
	// subscription and returns nil after a cancellation-driven
	// unregister; any other return means the server was lost.
	GetData(ctx context.Context, key, readerID string, deliver func(Delivery)) error
	// GetElem fetches the server's stored (tag, element, vlen) under
	// key — the repair collection phase. A never-written key returns
	// the zero tag with a nil element.
	GetElem(ctx context.Context, key string) (Tag, []byte, int, error)
	// RepairPut installs a repaired element under key, accepted only if
	// t is at least the key's current tag (repair never rolls a server
	// backwards). It reports whether the server installed it; false
	// means the server already holds something newer. elem is borrowed
	// at every size: callers retry with the same slice.
	RepairPut(ctx context.Context, key string, t Tag, elem []byte, vlen int) (bool, error)
	// Keys enumerates the keys the server holds written elements for —
	// the namespace a Repairer must heal.
	Keys(ctx context.Context) ([]string, error)
	// Reconfig drives the server's epoch state machine (status, seal,
	// activate) for a reconfiguration coordinator; it is not itself
	// epoch-checked.
	Reconfig(ctx context.Context, op ReconfigOp, target uint64, n, k int) (EpochStatus, error)
}

// validateConns checks that conns cover each shard index of an
// n-server cluster exactly once.
func validateConns(conns []Conn, n int) error {
	if len(conns) != n {
		return fmt.Errorf("%w: %d conns for an n=%d cluster", ErrConfig, len(conns), n)
	}
	seen := make([]bool, n)
	for _, c := range conns {
		i := c.Index()
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("%w: bad or duplicate server index %d", ErrConfig, i)
		}
		seen[i] = true
	}
	return nil
}

// liveConns filters conns through a membership view, returning the
// admitted conns and how many were quarantined. A nil view admits
// everyone.
func liveConns(conns []Conn, m *Membership) ([]Conn, int) {
	if m == nil {
		return conns, 0
	}
	live := make([]Conn, 0, len(conns))
	for _, c := range conns {
		if m.IsLive(c.Index()) {
			live = append(live, c)
		}
	}
	return live, len(conns) - len(live)
}

// stepper is the capability a Writer or Reader uses on its own goroutine,
// before it sends any leg: start this exchange for this operation, without
// parking. A step has four outcomes. Answered now: the result is the reply,
// or the error the blocking method would return (loopConn). Taken
// (errTaken): to be answered once, later, through the waiter op.take gave
// (MuxConn, from its pump). Not taken (errNotNow): nothing was done or
// consumed, and a leg is owed. Silent (errSilent): a hung server, counted as
// nothing. putDataStep keeps PutData's rule on elem, save that errNotNow
// leaves it with the caller. A get-data answered now or taken opens a
// registration, which takes a waiter either way: its server ends it through
// that waiter, once, unless the read ends it first with endData, which
// reports whether it did and so whether the waiter will never be answered.
type stepper interface {
	Conn
	getTagStep(key string, op stepOp) (Tag, error)
	putDataStep(key string, t Tag, elem []byte, vlen int, op stepOp) error
	getDataStep(key, readerID string, op stepOp, deliver func(Delivery)) (sub, error)
	endData(s sub, key, readerID string) bool
}

var (
	errTaken  = errors.New("soda: exchange taken, to be answered later")
	errNotNow = errors.New("soda: exchange needs a leg")
	errSilent = errors.New("soda: hung server answers nothing")
)

// stepOp is an operation as the conns it steps see it: a conn that takes an
// exchange calls take, once, just before sending it, for the waiter to
// answer it through, which holds the operation until then. So only an
// operation that has an exchange taken makes what a later answer needs.
// take may be called under the conn's locks, and must not park.
type stepOp interface {
	take(typ byte) waiter
}

// waiter completes a taken exchange, exactly once, on the goroutine that
// answers it, which it must not park: with the server's answer (resp is
// lent for the call), or the error that stands for it. A get-data's answer
// is the end of its stream.
type waiter interface {
	answer(server int, resp *response, err error)
}

// sub is a registration a read opened, as its conn hands it back for the
// read to keep and pass to endData; a MuxConn knows its streams by id.
type sub struct {
	c  stepper
	id uint64
}

// stepsOf resolves once, when a client is built, which of its conns are
// steppers, by server index; nil stands for one owed a leg for everything.
func stepsOf(conns []Conn) []stepper {
	steps := make([]stepper, len(conns))
	for _, c := range conns {
		steps[c.Index()], _ = c.(stepper)
	}
	return steps
}

// reportSuspect feeds an affirmative per-server failure into a shared
// membership view. Cancellation is not evidence — a straggler losing
// the quorum race, or the caller's own deadline, says nothing about
// the server — so only errors observed while the op's context was
// still live count.
func reportSuspect(m *Membership, opctx context.Context, server int, err error) {
	if m == nil || err == nil || opctx.Err() != nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	m.MarkSuspect(server, err)
}

// writeStripes stripes the writer's per-key serialization locks; must
// be a power of two.
const writeStripes = 64

// stripeOf hashes a key onto a lock stripe.
func stripeOf(key string) uint32 { return keyHash(key) & (writeStripes - 1) }

// encodeScratch is a reusable encode buffer for the put-data phase:
// one n*s backing array resliced into shards. It is refcounted across
// the quorum fan-out — straggler goroutines still hold the shards
// after the quorum completes, so the buffer returns to the pool only
// when the last per-server op finishes. For elements that change hands
// with their put-data (see handoff) shards are n independent buffers
// instead, each gone with its leg's PutData, and buf stays unused;
// inputs, outs and cold are Codec.encodeOwned's per-write views and
// flags, kept here so a large write allocates none of them.
type encodeScratch struct {
	buf    []byte
	shards [][]byte
	inputs [][]byte
	outs   [][]byte
	cold   []bool
	conns  []Conn // the write's live conns in the order its passes visit them, kept for the capacity
	refs   atomic.Int32
}

// release drops one quorum goroutine's hold; the last one pools the
// scratch.
func (sc *encodeScratch) release(pool *sync.Pool) {
	if sc.refs.Add(-1) == 0 {
		pool.Put(sc)
	}
}

// unsent frees the handed-off elements that no leg will pass to a conn:
// those of the servers not in sent. Small elements are views of buf and
// putElem ignores them.
func (sc *encodeScratch) unsent(sent []Conn) {
	for i, el := range sc.shards {
		if !slices.ContainsFunc(sent, func(c Conn) bool { return c.Index() == i }) {
			putElem(el)
		}
	}
}

// Writer performs SODA's two-phase writes against named registers. One
// Writer owns a writer id — the id must be unique across the cluster's
// writers, since tags are (ts, id) — and Write serializes itself per
// key (striped locks), so a Writer is safe for concurrent use across
// keys: two overlapping Writes of one key from one id would otherwise
// observe the same quorum maximum, mint the same tag for different
// values, and split the servers between two codewords of one version.
//
// A Writer runs each Write under its view's current Config and follows
// the view across epoch flips: a StaleEpochError (a server NACKing the
// epoch) waits for the view to advance and retries the whole two-phase
// write under the new geometry. Retrying whole operations is safe for
// the same reason writer crashes are: an interrupted write is a
// half-applied put the protocol already tolerates, and the retry mints
// a fresh, higher tag. On a view that never flips the error is returned.
type Writer struct {
	id      string
	view    *ConfigView
	at      atomic.Pointer[writerAt] // what the writer derived from the Config it last met
	meet    sync.Mutex               // serializes deriving the next one
	stripes [writeStripes]struct {
		sync.Mutex         // serializes Write's get-tag -> put-data pair per key
		op         writeOp // the write that holds it
	}
	// abandoned, when set, hears each minted tag a retried Write gives
	// up: the failed attempt may have installed elements under it on
	// fewer than a quorum of servers, migration can surface such a
	// half-applied put to readers, so history checkers record it.
	abandoned func(Tag, error)
}

// writerAt is what a Writer derives from one Config, once, when an
// operation first meets it: the conns and which of them step, the fault
// budget f, and the pools of state sized by n.
type writerAt struct {
	cfg     *Config
	codec   *Codec
	conns   []Conn
	steps   []stepper // see stepsOf
	f       int
	m       *Membership
	scratch sync.Pool // *encodeScratch
	calls   sync.Pool // *writeCall
}

// maxWriterID bounds writer ids: they travel inside every tag on the
// wire (uint16-length field) and live in every server's state, so
// they are required to be short.
const maxWriterID = 255

// NewWriter builds a writer with the given unique id on one cluster that
// never reconfigures, at the default f and with no membership view.
// (*ConfigView).Writer builds any other.
func NewWriter(id string, codec *Codec, conns []Conn) (*Writer, error) {
	v, err := fixedView(&Config{Codec: codec, Conns: conns, F: -1})
	if err != nil {
		return nil, err
	}
	return v.Writer(id)
}

// Writer builds a writer with the given unique id that follows the view.
func (v *ConfigView) Writer(id string) (*Writer, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: empty writer id", ErrConfig)
	}
	if len(id) > maxWriterID {
		return nil, fmt.Errorf("%w: writer id of %d bytes exceeds %d", ErrConfig, len(id), maxWriterID)
	}
	w := &Writer{id: id, view: v}
	if _, err := w.current(); err != nil {
		return nil, err
	}
	return w, nil
}

// current returns what the writer derived from the view's Config,
// deriving and checking it on first meeting: while the view stands
// still, an atomic load and a pointer compare.
func (w *Writer) current() (*writerAt, error) {
	if at := w.at.Load(); at != nil && at.cfg == w.view.Current() {
		return at, nil
	}
	w.meet.Lock()
	defer w.meet.Unlock()
	cfg := w.view.Current() // read under meet: the stored one only moves forward
	if at := w.at.Load(); at != nil && at.cfg == cfg {
		return at, nil
	}
	f, err := cfg.writerFaults()
	if err != nil {
		return nil, err
	}
	at := &writerAt{cfg: cfg, codec: cfg.Codec, conns: cfg.Conns, steps: stepsOf(cfg.Conns), f: f, m: cfg.Membership}
	w.at.Store(at)
	return at, nil
}

// writeTally is the quorum accounting of one write: what the servers
// have answered in each phase, and the two rules that read it. A write has
// one: its writeOp's while every answer comes on its own goroutine, its
// writeCall's, under the call's mutex, from the first exchange that leaves
// it. Each phase's thresholds (need successes, allowed+1 failures) sum past
// the server count, so at most one of them is ever crossed per phase.
type writeTally struct {
	tagMax   Tag   // running max of phase-0 tags
	oks      int   // phase-0 successes
	errs     int   // phase-0 failures
	acks     int   // phase-1 successes
	aerrs    int   // phase-1 failures
	firstErr error // first phase-0 failure
	ackErr   error // first phase-1 failure
	need     int   // successes that complete a phase
	allowed  int   // failures a phase absorbs
}

// gotTag records one server's get-tag answer and reports whether it is
// the one that resolves phase 0.
func (q *writeTally) gotTag(t Tag, err error) bool {
	if err != nil {
		if q.firstErr == nil {
			q.firstErr = err
		}
		q.errs++
		return q.errs == q.allowed+1
	}
	if q.tagMax.Less(t) {
		q.tagMax = t
	}
	q.oks++
	return q.oks == q.need
}

// gotAck records one server's put-data answer and reports whether it is
// the one that resolves phase 1.
func (q *writeTally) gotAck(err error) bool {
	if err != nil {
		if q.ackErr == nil {
			q.ackErr = err
		}
		q.aerrs++
		return q.aerrs == q.allowed+1
	}
	q.acks++
	return q.acks == q.need
}

// mintTag is the rule that ends phase 0: need tags fix the write's tag as
// the successor of their maximum, allowed+1 failures fail the write. A
// zero tag with a nil error means neither has happened yet.
func (q writeTally) mintTag(id string) (Tag, error) {
	switch {
	case q.oks >= q.need:
		return q.tagMax.Next(id), nil
	case q.errs > q.allowed:
		return Tag{}, fmt.Errorf("soda: get-tag: %w: %d of %d servers failed (need %d): %w",
			ErrUnavailable, q.errs, q.need+q.allowed, q.need, q.firstErr)
	}
	return Tag{}, nil
}

// acked is the rule that ends phase 1, in the same shape: done with a
// nil error on need acks, done with ErrUnavailable on allowed+1 failures.
func (q writeTally) acked(minted Tag) (bool, error) {
	switch {
	case q.acks >= q.need:
		return true, nil
	case q.aerrs > q.allowed:
		return true, fmt.Errorf("soda: put-data %v: %w: %d of %d servers failed (need %d): %w",
			minted, ErrUnavailable, q.aerrs, q.need+q.allowed, q.need, q.ackErr)
	}
	return false, nil
}

// writeCall is the pooled state of a Write some of whose exchanges are
// answered off its goroutine: on a leg — a goroutine that makes one
// exchange, a get-tag or a put-data, with one server; the spawn thunk is
// reused across writes — or by a conn that took the exchange, such as a
// MuxConn's pump. Either reports into the tally under wc.mu and nudges the
// cap-1 wake channel only when its answer resolves a phase, so the caller
// parks about once per phase instead of consuming 2n messages. The refcount
// covers the legs, the taken exchanges and the caller; the last one off
// drains the wake channel and pools the struct, so a straggler's nudge can
// never pollute a later write.
type writeCall struct {
	wake chan struct{} // condition nudge; cap 1, coalescing
	body func()        // reusable spawn thunk: go wc.body() allocates nothing
	idle *idleList     // where this call's legs leave from and park (see workerPool)
	refs atomic.Int32
	next atomic.Int32

	mu sync.Mutex
	writeTally

	// Per-call fields, set before the spawns and zeroed at pool time.
	at     *writerAt
	ctx    context.Context // the write's, cancelled when it returns
	cancel context.CancelFunc
	key    string
	conns  []Conn // the legs' conns, one claimed by each through next; len 2n
	tags   int    // conns[:tags] are get-tag legs, the rest put legs
	minted Tag    // the put legs' tag, set before they are sent
	sc     *encodeScratch
	vlen   int
}

// release drops one hold on the call; the last holder drains and pools
// it. Every nudge comes from a holder, so none can follow the drain.
func (wc *writeCall) release() {
	if n := wc.refs.Add(-1); n != 0 {
		if n < 0 {
			panic("soda: write call released by more holders than it had")
		}
		return
	}
	select {
	case <-wc.wake:
	default:
	}
	at := wc.at
	wc.at, wc.ctx, wc.cancel, wc.key, wc.sc = nil, nil, nil, "", nil
	clear(wc.conns)
	wc.writeTally = writeTally{} // drops the error values
	at.calls.Put(wc)
}

// signal nudges the caller; the cap-1 buffer coalesces concurrent
// nudges, and the caller re-reads the tally after every wake, so a
// dropped token can never lose an edge that happened before the send.
func (wc *writeCall) signal() {
	select {
	case wc.wake <- struct{}{}:
	default:
	}
}

// gotTagFrom and gotAckFrom count one server's answer, brought by its
// leg or by the conn that took the exchange.
func (wc *writeCall) gotTagFrom(server int, t Tag, err error) {
	reportSuspect(wc.at.m, wc.ctx, server, err)
	wc.mu.Lock()
	nudge := wc.gotTag(t, err)
	wc.mu.Unlock()
	if nudge {
		wc.signal()
	}
}

func (wc *writeCall) gotAckFrom(server int, err error) {
	reportSuspect(wc.at.m, wc.ctx, server, err)
	wc.mu.Lock()
	nudge := wc.gotAck(err)
	wc.mu.Unlock()
	if nudge {
		wc.signal()
	}
}

// tagReply and ackReply are a writeCall as the waiter of a taken get-tag
// and of a taken put-data; each exchange holds the call until it is
// answered.
type (
	tagReply writeCall
	ackReply writeCall
)

func (r *tagReply) answer(server int, resp *response, err error) {
	wc := (*writeCall)(r)
	defer wc.release()
	wc.gotTagFrom(server, resp.tag, err)
}

func (r *ackReply) answer(server int, _ *response, err error) {
	wc := (*writeCall)(r)
	defer wc.release()
	wc.gotAckFrom(server, err)
}

// writeOp is a write as its own goroutine runs it: the tally its passes
// count into, until an exchange leaves the goroutine and the call it checks
// out takes the tally over. It lives in its key's stripe, which only the
// write holding the stripe's lock touches, so passing it to the conns it
// steps (stepOp) costs no allocation.
type writeOp struct {
	at    *writerAt
	ctx   context.Context
	key   string
	sc    *encodeScratch
	vlen  int
	call  *writeCall // nil until an exchange leaves the goroutine
	tally writeTally // the write's until call is checked out
}

func (op *writeOp) take(typ byte) waiter {
	wc := op.called()
	wc.refs.Add(1)
	if typ == msgGetTag {
		return (*tagReply)(wc)
	}
	return (*ackReply)(wc)
}

// called returns the write's call, checking it out the first time: its
// legs get a context of their own, cancelled when the write returns.
func (op *writeOp) called() *writeCall {
	if op.call != nil {
		return op.call
	}
	at := op.at
	wc, _ := at.calls.Get().(*writeCall)
	if wc == nil {
		wc = &writeCall{
			wake:  make(chan struct{}, 1),
			idle:  spawnPool.list(),
			conns: make([]Conn, 2*len(at.conns)), // a get-tag leg and a put leg each
		}
		wc.body = wc.run
	}
	wc.next.Store(0)
	wc.ctx, wc.cancel = context.WithCancel(op.ctx)
	wc.at, wc.key, wc.tags, wc.minted, wc.sc, wc.vlen, wc.writeTally = at, op.key, 0, Tag{}, op.sc, op.vlen, op.tally
	wc.refs.Store(1)    // the caller
	op.sc.refs.Store(1) // the writer's own, beside its legs'
	op.call = wc
	return wc
}

// gotTag, gotAck and counted are how the write's goroutine counts into its
// one tally and reads it: the op's own, or from the call's checkout on, the
// call's, under the call's lock.
func (op *writeOp) gotTag(server int, t Tag, err error) {
	if op.call != nil {
		op.call.gotTagFrom(server, t, err)
		return
	}
	reportSuspect(op.at.m, op.ctx, server, err)
	op.tally.gotTag(t, err)
}

func (op *writeOp) gotAck(server int, err error) {
	if op.call != nil {
		op.call.gotAckFrom(server, err)
		return
	}
	reportSuspect(op.at.m, op.ctx, server, err)
	op.tally.gotAck(err)
}

func (op *writeOp) counted() writeTally {
	if wc := op.call; wc != nil {
		wc.mu.Lock()
		defer wc.mu.Unlock()
		return wc.writeTally
	}
	return op.tally
}

// park waits for a nudge from an answer off the goroutine, or returns
// ctx's error when it ends; with none off it, only ctx can end the wait.
func (op *writeOp) park() error {
	var wake chan struct{}
	if op.call != nil {
		wake = op.call.wake
	}
	select {
	case <-wake:
		return nil
	case <-op.ctx.Done():
		return op.ctx.Err()
	}
}

// legs sends each of conns a leg: before the tag is minted one that asks
// its get-tag, after one that gives it its put-data under minted. A write
// sends at most one batch of each, get-tags first.
func (op *writeOp) legs(conns []Conn, minted Tag) {
	if len(conns) == 0 {
		return
	}
	wc := op.called()
	n := copy(wc.conns[wc.tags:], conns)
	if minted.IsZero() {
		wc.tags = n
	} else {
		wc.minted = minted
		wc.sc.refs.Add(int32(n)) // each holds the element buffers until its put-data is over
	}
	wc.refs.Add(int32(n))
	for range n {
		wc.idle.spawn(wc.body)
	}
}

// end frees the stripe for the next write, letting go of the call and the
// encode scratch, and reports whether every answer came on the goroutine.
func (op *writeOp) end() (inline bool) {
	at, sc, wc := op.at, op.sc, op.call
	*op = writeOp{}
	if wc == nil {
		at.scratch.Put(sc)
		return true
	}
	wc.cancel()
	wc.release()
	sc.release(&at.scratch)
	return false
}

// run is one leg of a write: one exchange with the server of the conn it
// claims, its get-tag or its put-data under the minted tag. Legs of a write
// are interchangeable: whichever starts first claims the next conn.
func (wc *writeCall) run() {
	defer wc.release()
	j := int(wc.next.Add(1)) - 1
	c := wc.conns[j]
	if j < wc.tags {
		t, err := c.GetTag(wc.ctx, wc.key)
		wc.gotTagFrom(c.Index(), t, err)
		return
	}
	err := c.PutData(wc.ctx, wc.key, wc.minted, wc.sc.shards[c.Index()], wc.vlen)
	wc.sc.release(&wc.at.scratch)
	wc.gotAckFrom(c.Index(), err)
}

// Write performs one atomic write of key: get-tag, then put-data,
// returning the tag the value was written under. It steps each exchange on
// its own goroutine, one pass per phase (stepper), and sends a leg for each
// one still owed, one exchange per leg. Once n-f tags have fixed the minted
// tag every live server is given its element, whether or not it was asked
// for a tag or has answered: per-server phases may overlap (one server can
// be receiving its element while a straggler is still answering get-tag);
// the protocol never needed the phases globally barriered, only the mint
// to follow n-f tags. A server whose get-tag failed is still given its
// put-data — the TCP transport redials on demand, so the second exchange
// can succeed where the first did not.
//
// On a put-data-phase failure the minted tag is returned alongside the
// error: the attempt may have installed elements under it on fewer
// than a quorum of servers (a half-applied put, the state a writer
// crash leaves), and callers that retry with a fresh tag — or audit
// histories — need to know which tag was abandoned. A zero tag with an
// error means the attempt never minted.
func (w *Writer) Write(ctx context.Context, key string, value []byte) (Tag, error) {
	if err := validateKey(key); err != nil {
		return Tag{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	for {
		at, err := w.current()
		if err != nil {
			return Tag{}, err
		}
		minted, inline, err := w.write(ctx, at, key, value)
		if inline && handoff(at.codec.shardSize(len(value))) {
			yieldAfterLargeInlineOp()
		}
		if err == nil {
			return minted, nil
		}
		if rerr := retryStale(ctx, w.view, at.cfg, err); rerr != nil {
			return minted, rerr
		}
		if !minted.IsZero() && w.abandoned != nil {
			w.abandoned(minted, err)
		}
	}
}

// yieldAfterLargeInlineOp is called by an operation that moved a
// handoff-sized value without parking once, after it has let go of
// everything it held. At GOMAXPROCS=2 the GC has no dedicated mark
// worker, only a fractional one that runs at scheduling points; an op on
// legs parks a dozen times, an inline one never, and with two such
// clients a concurrent mark phase lasts six times longer (267 -> 1587 ms
// of mark wall time over 6 s of loop-large, assist CPU 46 -> 111 ms),
// during which every 1 MiB read allocation stalls on assist credit
// (read p99 +16...+45 %). One yield per large op gives the worker its
// turn; on every op it would cost the small ones 10-25 % of their
// throughput, so it is tied to the bytes moved.
func yieldAfterLargeInlineOp() { runtime.Gosched() }

// write is Write under the key's stripe lock, held while it parks: two
// overlapping writes of one key from one writer would mint the same tag.
// inline reports that every answer came on the calling goroutine.
func (w *Writer) write(ctx context.Context, at *writerAt, key string, value []byte) (minted Tag, inline bool, err error) {
	stripe := &w.stripes[stripeOf(key)]
	stripe.Lock()
	defer stripe.Unlock()

	live, excluded := liveConns(at.conns, at.m)
	if excluded > at.f {
		return Tag{}, false, fmt.Errorf("soda: get-tag: %w: %d servers quarantined, fault budget f=%d", ErrUnavailable, excluded, at.f)
	}
	sc, _ := at.scratch.Get().(*encodeScratch)
	if sc == nil {
		sc = &encodeScratch{}
	}
	if err := at.codec.encodeValueInto(value, sc); err != nil {
		at.scratch.Put(sc)
		return Tag{}, false, err
	}
	if excluded > 0 {
		sc.unsent(live)
	}
	need := len(at.conns) - at.f
	op := &stripe.op
	*op = writeOp{at: at, ctx: ctx, key: key, sc: sc, vlen: len(value), tally: writeTally{need: need, allowed: len(live) - need}}
	defer func() { inline = op.end() }()
	alive := ctx.Err() == nil // the legs know what a dead context does to a write

	// Phase 0: every live conn is asked for its tag from here, save those
	// that cannot be, which go to the back: conns[:asked] were asked.
	conns := append(sc.conns[:0], live...)
	sc.conns = conns
	asked := 0
	for j, c := range conns {
		i := c.Index()
		t, err := Tag{}, errNotNow
		if s := at.steps[i]; alive && s != nil {
			t, err = s.getTagStep(key, op)
		}
		switch err {
		case errNotNow:
			continue
		case errTaken, errSilent:
		default:
			op.gotTag(i, t, err)
		}
		conns[asked], conns[j] = c, conns[asked]
		asked++
	}
	// The rest each get a get-tag leg unless the pass minted with nothing
	// taken: a choice that must not hang on when a pump's answers come in.
	// Every wake re-reads the tally: a coalesced or stale nudge costs a turn.
	minted, err = op.counted().mintTag(w.id)
	if err == nil && (minted.IsZero() || op.call != nil) {
		op.legs(conns[asked:], Tag{})
	}
	for minted.IsZero() && err == nil {
		if err = op.park(); err == nil {
			minted, err = op.counted().mintTag(w.id)
		}
	}
	if err != nil {
		for _, c := range conns {
			putElem(sc.shards[c.Index()]) // never sent: still the writer's
		}
		return Tag{}, false, err
	}

	// Phase 1: every live conn's put-data is sent from here, then once more
	// to those that did not take it. A put needs n-f acks in any order, so a
	// log another writer is in is one to come back to, not to queue on; two
	// writers that walk the servers in step collide on each, and the second
	// round finds the other gone (23 % of wal-small's writes needed a leg
	// without it, 3.6 % with it, as many with a third). What is not taken
	// twice gets a leg.
	puts := conns
	for visit := 0; visit < 2 && len(puts) > 0; visit++ {
		busy := puts[:0] // filters puts in place
		for _, c := range puts {
			i := c.Index()
			err := errNotNow
			if s := at.steps[i]; alive && s != nil {
				err = s.putDataStep(key, minted, sc.shards[i], len(value), op)
			}
			switch err {
			case errNotNow:
				busy = append(busy, c)
			case errTaken, errSilent:
			default:
				op.gotAck(i, err)
			}
		}
		puts = busy
	}
	op.legs(puts, minted)
	for {
		done, err := op.counted().acked(minted)
		if done {
			return minted, false, err
		}
		if err := op.park(); err != nil {
			return minted, false, err
		}
	}
}

// ReadResult is a completed read: the value, the tag it was written
// under (zero for a never-written register), and — on SODA_err reads
// — the ascending indices of servers whose elements were located as
// corrupt and should be quarantined.
type ReadResult struct {
	Tag     Tag
	Value   []byte
	Corrupt []int
}

// Reader performs SODA's relayed reads. Safe for concurrent use; each
// Read registers under a fresh reader id.
//
// A Reader runs each Read under its view's current Config and follows
// the view across epoch flips, as a Writer does: a fresh Read under the
// new epoch re-registers at every server (servers dropped the old
// registrations at the flip) and fixes a new target tag; atomicity
// carries over because migration preserved every completed write.
type Reader struct {
	ridPrefix string // id + process token, precomputed off the Read path
	view      *ConfigView
	at        atomic.Pointer[readerAt] // what the reader derived from the Config it last met
	meet      sync.Mutex               // serializes deriving the next one
}

// readerAt is what a Reader derives from one Config, once, when a read
// first meets it: the conns and which of them step, the budgets f and e,
// the membership view, and the pool of read states sized by n.
type readerAt struct {
	cfg    *Config
	codec  *Codec
	conns  []Conn
	steps  []stepper // see stepsOf
	f      int
	e      int
	m      *Membership
	states sync.Pool // *readState
}

// NewReader builds a reader with the given id prefix on one cluster that
// never reconfigures, at the default f, e = 0 and with no membership
// view. (*ConfigView).Reader builds any other.
func NewReader(id string, codec *Codec, conns []Conn) (*Reader, error) {
	v, err := fixedView(&Config{Codec: codec, Conns: conns, F: -1})
	if err != nil {
		return nil, err
	}
	return v.Reader(id)
}

// Reader builds a reader with the given id prefix that follows the view.
func (v *ConfigView) Reader(id string) (*Reader, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: empty reader id", ErrConfig)
	}
	r := &Reader{ridPrefix: id + "-" + procToken + "#", view: v}
	if len(r.ridPrefix)+20 > maxReaderID { // + a read's sequence number: see begin
		return nil, fmt.Errorf("%w: reader id of %d bytes makes registration ids longer than %d", ErrConfig, len(id), maxReaderID)
	}
	if _, err := r.current(); err != nil {
		return nil, err
	}
	return r, nil
}

// current is Writer.current for a reader.
func (r *Reader) current() (*readerAt, error) {
	if at := r.at.Load(); at != nil && at.cfg == r.view.Current() {
		return at, nil
	}
	r.meet.Lock()
	defer r.meet.Unlock()
	cfg := r.view.Current()
	if at := r.at.Load(); at != nil && at.cfg == cfg {
		return at, nil
	}
	f, err := cfg.readerFaults()
	if err != nil {
		return nil, err
	}
	at := &readerAt{cfg: cfg, codec: cfg.Codec, conns: cfg.Conns, steps: stepsOf(cfg.Conns),
		f: f, e: cfg.E, m: cfg.Membership}
	r.at.Store(at)
	return at, nil
}

// procToken plus the package-wide readSeq make registration ids
// unique across Reader instances and across processes, so readers
// that happen to share an id prefix cannot clobber each other's
// registrations at the servers.
var (
	procToken = func() string {
		var b [4]byte
		if _, err := cryptorand.Read(b[:]); err != nil {
			return "p" + strconv.Itoa(os.Getpid())
		}
		return hex.EncodeToString(b[:])
	}()
	readSeq atomic.Uint64
)

var (
	errQuarantined  = errors.New("quarantined")
	errStreamClosed = errors.New("server closed the data stream")
)

// Read performs one atomic read of key. It blocks until enough servers
// have responded (or relayed a concurrent write) to pin down a value,
// or until ctx is cancelled, under one registration id per Config. One
// pass on the calling goroutine steps a get-data to every conn, and stops
// at the server whose answer completes the read, which then ends what it
// opened. A read the pass leaves waiting keeps its registrations, whose
// servers report their end through the read's waiter, and sends a leg to
// each conn still owed its get-data. A hung server never delivers.
func (r *Reader) Read(ctx context.Context, key string) (ReadResult, error) {
	if err := validateKey(key); err != nil {
		return ReadResult{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	for {
		at, err := r.current()
		if err != nil {
			return ReadResult{}, err
		}
		res, err := r.read(ctx, at, key)
		if err == nil {
			return res, nil
		}
		if err := retryStale(ctx, r.view, at.cfg, err); err != nil {
			return ReadResult{}, err
		}
	}
}

// read is one attempt of Read, under one Config.
func (r *Reader) read(ctx context.Context, at *readerAt, key string) (ReadResult, error) {
	// The quarantine is the membership view's current suspects; a server
	// the Repairer readmitted before this Read started is contacted again.
	var quarantine []int
	if at.m != nil {
		quarantine = at.m.Suspects()
	}
	st := r.begin(at, key, quarantine)
	defer st.release()
	live := ctx.Err() == nil // the legs know what a dead context does to a read
	var done bool
	for i := 0; ; i++ { // finished is sampled once per conn and once after the last
		if done = st.isFinished(); done || i == len(at.conns) {
			break
		}
		c := at.conns[i]
		idx := c.Index()
		if slices.Contains(quarantine, idx) {
			continue
		}
		s, err := sub{}, errNotNow
		if step := at.steps[idx]; live && step != nil {
			s, err = step.getDataStep(key, st.rid, st, st.sink)
		}
		switch err {
		case nil, errTaken:
			st.subs = append(st.subs, s)
		case errNotNow:
			st.owed = append(st.owed, c)
		case errSilent:
		default:
			reportSuspect(at.m, ctx, idx, err)
			st.lose(idx, err)
		}
	}
	if done {
		st.end(st.subs)
		res, err := st.outcome()
		if err == nil && handoff(at.codec.shardSize(len(res.Value))) {
			yieldAfterLargeInlineOp()
		}
		return res, err
	}

	defer st.end(st.subs)
	if legs := len(st.owed); legs > 0 {
		// Their registrations end through this deferred cancel, once the
		// read has stopped touching delivered elements: unregistering is
		// what lets a loopback server overwrite the buffers it handed out.
		rctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		defer cancel()
		st.rctx = rctx
		st.refs.Add(int32(legs))
		for range legs {
			st.idle.spawn(st.body)
		}
	}

	select {
	case <-st.done:
		return st.outcome()
	case <-ctx.Done():
		st.mu.Lock()
		st.finished = true // waits out a decode in flight; later sinks go inert
		st.mu.Unlock()
		return ReadResult{}, ctx.Err()
	}
}

// begin checks out the state of one read, held by the caller: a fresh
// registration id, the generation-pinned sink, and the quarantined servers
// already counted as lost.
func (r *Reader) begin(at *readerAt, key string, quarantine []int) *readState {
	b := make([]byte, 0, len(r.ridPrefix)+20)
	rid := string(strconv.AppendUint(append(b, r.ridPrefix...), readSeq.Add(1), 10))
	st := at.getState()
	st.mu.Lock()
	st.key, st.rid = key, rid
	gen := st.gen
	// The sink is the one piece of this read the servers hold onto: a
	// relay snapshotting the sink set just before Unregister can still
	// invoke it after the read completed and the state was recycled, so
	// it is pinned to this read's generation and goes inert the moment
	// the state is pooled.
	st.sink = func(d Delivery) {
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.gen != gen {
			return
		}
		st.addLocked(d)
	}
	st.next.Store(0)
	st.refs.Store(1)
	st.mu.Unlock()
	for _, q := range quarantine {
		st.lose(q, errQuarantined)
	}
	return st
}

// take is the read as the waiter of a get-data a conn answered now or took:
// the registration holds the state until the read ends it (end) or its
// server does (answer).
func (st *readState) take(byte) waiter {
	st.refs.Add(1)
	return st
}

// answer is a registration ended under its read: NACKed in an epoch flip,
// refused, crashed or gone with its session — or, with a nil err, dropped
// by a server that went silent, which the read does not count as lost.
// Whatever it delivered stays usable.
func (st *readState) answer(server int, _ *response, err error) {
	defer st.release()
	if err != nil && !st.isFinished() {
		reportSuspect(st.at.m, context.Background(), server, err)
		st.lose(server, err)
	}
}

// end is the read done with registrations it opened and with what they
// delivered. One its conn still held gives up take's hold, never the last:
// the caller's is still out.
func (st *readState) end(subs []sub) {
	for _, s := range subs {
		if s.c.endData(s, st.key, st.rid) {
			st.refs.Add(-1)
		}
	}
}

// outcome is how a finished read ends its Read.
func (st *readState) outcome() (ReadResult, error) {
	st.mu.Lock()
	res, err := st.result, st.err
	st.mu.Unlock()
	if err != nil {
		return ReadResult{}, err
	}
	if m := st.at.m; m != nil {
		m.ReportRead(res)
	}
	return res, nil
}

// runConn is one server's leg of a read the pass left waiting: the get-data
// of a conn the pass could not ask.
func (st *readState) runConn() {
	defer st.release()
	c := st.owed[int(st.next.Add(1))-1]
	idx, err := c.Index(), c.GetData(st.rctx, st.key, st.rid, st.sink)
	if st.rctx.Err() == nil {
		// The subscription died while the read still wanted it: a
		// crashed or closing server. Anything it already delivered
		// stays usable.
		if err == nil {
			err = errStreamClosed
		}
		reportSuspect(st.at.m, st.rctx, idx, err)
		st.lose(idx, err)
	}
}

// getState checks a readState out of the Config's pool. The state is
// returned by the last of its holders (the caller plus one goroutine
// per subscription) via release, which also advances the generation so
// that straggler relay deliveries for the old read are dropped.
func (at *readerAt) getState() *readState {
	st, _ := at.states.Get().(*readState)
	if st == nil {
		n := len(at.conns)
		st = &readState{
			at:       at,
			initials: make([]Tag, n),
			hasInit:  make([]bool, n),
			lost:     make([]bool, n),
			done:     make(chan struct{}, 1),
			idle:     spawnPool.list(),
		}
		st.body = st.runConn
	}
	return st
}

// release drops one hold; the last holder resets the state and pools
// it.
func (st *readState) release() {
	if n := st.refs.Add(-1); n != 0 {
		if n < 0 {
			panic("soda: read state released by more holders than it had")
		}
		return
	}
	st.mu.Lock()
	st.gen++
	at := st.at
	for i := 0; i < st.nvers; i++ {
		b := &st.vers[i]
		clear(b.ts.elems)
		b.ts.count, b.ts.tried = 0, 0
		b.v = version{}
	}
	st.nvers = 0
	clear(st.hasInit)
	clear(st.lost)
	clear(st.initials)
	st.nInit, st.nLost = 0, 0
	st.tTargetSet, st.tTarget = false, Tag{}
	st.finished, st.result, st.err = false, ReadResult{}, nil
	st.rctx, st.key, st.rid, st.sink = nil, "", "", nil
	// Not the caller's to clear: a leg may start after Read has returned.
	clear(st.subs)
	clear(st.owed)
	st.subs, st.owed = st.subs[:0], st.owed[:0]
	select {
	case <-st.done: // unconsumed completion signal (caller left via ctx)
	default:
	}
	st.mu.Unlock()
	at.states.Put(st)
}

// version identifies one write as a read sees it: the tag plus the
// value length the delivering server claimed. Keying collected
// elements by the pair (rather than trusting the first server to
// report vlen for a tag) means a corrupt server lying about the
// length only pollutes its own bucket — the honest servers' elements
// still accumulate and decode.
type version struct {
	tag  Tag
	vlen int
}

// tagState accumulates the coded elements a read has collected for one
// version, indexed by server — a read touches every element slot, so
// flat arrays beat per-read maps on both allocation and access.
type tagState struct {
	elems [][]byte // server-indexed; nil = not yet delivered
	count int      // non-nil entries
	tried int      // element count at the last failed decode attempt
}

// versionBucket pairs a version with its element accumulator. The
// bucket list replaces a map because a read overwhelmingly sees one
// version (two or three under write concurrency): a linear scan is
// faster than hashing and the buckets recycle with the state.
type versionBucket struct {
	v  version
	ts tagState
}

// readState is the mutable heart of one Read: deliveries from all
// server subscriptions funnel into addLocked, which re-evaluates the
// completion rule. States are pooled per Config a Reader met; gen stamps each
// checkout so relay deliveries that outlive their read go inert
// instead of polluting the next one.
type readState struct {
	at *readerAt
	mu sync.Mutex

	gen  uint64       // checkout generation; advanced on pool return
	refs atomic.Int32 // caller + one per leg + one per registration the pass opened
	next atomic.Int32 // conn claim counter for the spawn thunk
	body func()       // reusable spawn thunk: go st.body() allocates nothing
	idle *idleList    // where this read's legs leave from and park (see workerPool)

	// Per-read wiring, set before the spawns, cleared at pool time.
	rctx context.Context // what the legs run under; a read without legs has none
	key  string
	rid  string
	sink func(Delivery)
	subs []sub  // the registrations the pass opened
	owed []Conn // the conns it could not ask: each needs a leg to run its get-data

	initials []Tag // server-indexed tag of the Initial delivery
	hasInit  []bool
	nInit    int
	lost     []bool // quarantined, crashed, or stream-dead servers
	nLost    int

	vers  []versionBucket
	nvers int

	tTargetSet bool
	tTarget    Tag

	finished bool
	result   ReadResult
	err      error
	done     chan struct{} // cap 1; finish sends once per generation
}

// isFinished samples finished for a caller outside the lock.
func (st *readState) isFinished() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.finished
}

func (st *readState) finish(res ReadResult, err error) {
	// mu held.
	if st.finished {
		return
	}
	st.finished = true
	st.result, st.err = res, err
	st.done <- struct{}{}
}

// bucket returns the accumulator for v, recycling a cleared bucket
// from a previous read when one is free.
func (st *readState) bucket(v version) *tagState {
	for i := 0; i < st.nvers; i++ {
		if st.vers[i].v == v {
			return &st.vers[i].ts
		}
	}
	if st.nvers == len(st.vers) {
		st.vers = append(st.vers, versionBucket{ts: tagState{elems: make([][]byte, len(st.at.conns))}})
	}
	b := &st.vers[st.nvers]
	b.v = v
	st.nvers++
	return &b.ts
}

// dropBucket clears bucket i and swaps it out of the live range,
// keeping its element array for reuse.
func (st *readState) dropBucket(i int) {
	b := &st.vers[i]
	clear(b.ts.elems)
	b.ts.count, b.ts.tried = 0, 0
	b.v = version{}
	st.nvers--
	if i != st.nvers {
		st.vers[i], st.vers[st.nvers] = st.vers[st.nvers], st.vers[i]
	}
}

// lose records a dead server (quarantined, crashed, or stream gone)
// and fails the read only once completion has become impossible.
// Deliveries already received from a now-dead server stay usable — a
// server that crashes after answering is the normal fault model — so
// the check reasons about what can still arrive, not a bare failure
// count.
func (st *readState) lose(server int, cause error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.finished || st.lost[server] {
		return
	}
	st.lost[server] = true
	st.nLost++
	n := len(st.at.conns)
	aliveNew := 0 // live servers that have not yet sent their initial
	for i := 0; i < n; i++ {
		if !st.hasInit[i] && !st.lost[i] {
			aliveNew++
		}
	}
	// The target tag needs initial responses from n-f distinct
	// servers; initials already in hand count even if their server
	// died since.
	if !st.tTargetSet && st.nInit+aliveNew < n-st.at.f {
		st.finish(ReadResult{}, fmt.Errorf("%w: server %d lost (%w); %d initial responses reachable, need %d",
			ErrUnavailable, server, cause, st.nInit+aliveNew, n-st.at.f))
		return
	}
	// Completion needs k+2e elements of one version. A future write
	// can still supply them through every live server; failing that,
	// an already-seen version can be completed by live servers that
	// have not contributed to it yet.
	need := st.at.codec.K() + 2*st.at.e
	if n-st.nLost >= need {
		return
	}
	achievable := 0
	for bi := 0; bi < st.nvers; bi++ {
		b := &st.vers[bi]
		if st.tTargetSet && b.v.tag.Less(st.tTarget) {
			continue
		}
		got := b.ts.count
		for i := 0; i < n; i++ {
			if b.ts.elems[i] == nil && !st.lost[i] {
				got++
			}
		}
		if got > achievable {
			achievable = got
		}
	}
	if achievable < need {
		st.finish(ReadResult{}, fmt.Errorf("%w: server %d lost (%w); at most %d elements of any version remain reachable, need %d",
			ErrUnavailable, server, cause, achievable, need))
	}
}

// addLocked folds one delivery into the read state and checks
// completion. Callers hold st.mu (the generation-checked sink, and
// tests driving the state machine directly take it via add).
func (st *readState) addLocked(d Delivery) {
	if st.finished || d.Server < 0 || d.Server >= len(st.at.conns) {
		return
	}
	if d.Initial && !st.hasInit[d.Server] {
		st.hasInit[d.Server] = true
		st.initials[d.Server] = d.Tag
		st.nInit++
	}
	// Accept only well-formed elements consistent with the claimed
	// value length (a malformed element is simply never counted, so
	// its server contributes nothing to this version), and only for
	// versions that can still complete the read: once t* is fixed,
	// deliveries below it are garbage the completion rule will never
	// touch, so they are dropped at the door instead of buffered.
	if !d.Tag.IsZero() && d.VLen > 0 && len(d.Elem) == st.at.codec.shardSize(d.VLen) &&
		!(st.tTargetSet && d.Tag.Less(st.tTarget)) {
		ts := st.bucket(version{tag: d.Tag, vlen: d.VLen})
		if ts.elems[d.Server] == nil {
			ts.elems[d.Server] = d.Elem
			ts.count++
		}
	}
	st.check()
}

// add is addLocked behind the lock.
func (st *readState) add(d Delivery) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.addLocked(d)
}

// check applies the completion rule: once initial responses from n-f
// servers fix tTarget (their maximum tag), the read completes with
// any tag >= tTarget holding k+2e coded elements that decode. A zero
// tTarget means the register was unwritten at every quorum server:
// the read returns the initial empty value.
func (st *readState) check() {
	// mu held.
	n := len(st.at.conns)
	if !st.tTargetSet {
		if st.nInit < n-st.at.f {
			return
		}
		for i := 0; i < n; i++ {
			if st.hasInit[i] && st.tTarget.Less(st.initials[i]) {
				st.tTarget = st.initials[i]
			}
		}
		st.tTargetSet = true
		// GC: every version bucket below t* is now unreachable by the
		// completion rule; free its element buffers. This is what keeps
		// a long-registered reader's memory bounded under a write storm
		// of old tags.
		for i := 0; i < st.nvers; {
			if st.vers[i].v.tag.Less(st.tTarget) {
				st.dropBucket(i)
			} else {
				i++
			}
		}
	}
	// Newest decodable version first: under write concurrency the
	// freshest one is the one to return. Selection is a repeated max
	// scan — the bucket list is one or two entries long, and a tried
	// bucket is never reselected until it grows.
	need := st.at.codec.K() + 2*st.at.e
	for {
		best := -1
		for i := 0; i < st.nvers; i++ {
			b := &st.vers[i]
			if b.ts.count < need || b.ts.count <= b.ts.tried {
				continue
			}
			if best == -1 || newerVersion(b.v, st.vers[best].v) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		b := &st.vers[best]
		if res, ok := st.decode(b.v, &b.ts); ok {
			st.finish(res, nil)
			return
		}
		b.ts.tried = b.ts.count
	}
	if st.tTarget.IsZero() {
		st.finish(ReadResult{}, nil)
	}
}

// newerVersion orders candidate versions for decode: higher tag first,
// then longer claimed value.
func newerVersion(a, b version) bool {
	if c := a.tag.Compare(b.tag); c != 0 {
		return c > 0
	}
	return a.vlen > b.vlen
}

// decode attempts to turn the elements collected for tag t into a
// value. With e == 0 it erasure-decodes from any k elements — taking
// the no-copy fast path when the k systematic data shards are all
// present, the common case for an uncorrupted cluster. With e > 0
// (SODA_err) it runs Verify when all n elements are present — the
// cheap all-healthy fast path — and otherwise the syndrome error
// decoder, which locates up to e corrupt servers; the guarantee holds
// because k+2e present elements leave at most n-k-2e erasures, inside
// the decoding radius. A failed decode (corruption beyond e) reports
// !ok and the read keeps waiting for more relays.
func (st *readState) decode(v version, ts *tagState) (ReadResult, bool) {
	codec := st.at.codec
	n, k := codec.N(), codec.K()
	if ts.count < k+2*st.at.e {
		return ReadResult{}, false
	}
	// With e == 0 nothing writes the delivered elements — the value is the
	// concatenation of the k data shards, any missing one reconstructed
	// into the result — so there are no defensive clones.
	shards, decodeValue := ts.elems, codec.DecodeValue
	var corrupt []int
	if st.at.e == 0 {
		if slices.ContainsFunc(shards[:k], func(el []byte) bool { return el == nil }) {
			decodeValue = codec.decodeDegraded
		}
	} else {
		// SODA_err clones: the error decoder repairs corrupt shards in
		// place, and delivered elements are read-only (over loopback the
		// servers' own buffers) and feed later decode tries.
		shards = make([][]byte, n)
		for i, el := range ts.elems {
			shards[i] = slices.Clone(el) // nil stays nil
		}
		healthy := false
		if ts.count == n {
			healthy, _ = codec.enc.Verify(shards) // the cheap all-healthy path
		}
		if !healthy {
			var err error
			if corrupt, err = codec.enc.DecodeErrors(shards); err != nil {
				return ReadResult{}, false
			}
		}
	}
	value, err := decodeValue(shards, v.vlen)
	if err != nil {
		return ReadResult{}, false
	}
	return ReadResult{Tag: v.tag, Value: value, Corrupt: corrupt}, true
}

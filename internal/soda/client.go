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
// (loopback.go). Every operation addresses one named register by key.
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
// phase however slow the rest are. Before it sends a leg it asks the conn
// itself, on the calling goroutine, for a form of the exchange that cannot
// park, and there are three cases. A loopback conn answers now: the reply
// is a function return (loopConnsOf). A MuxConn is sent now and answers on
// its pump: the frame is written there and then, if the session is up,
// nobody else is writing to it and what the server has not yet answered
// stays within callerSendMax, and the reply reaches the operation's tally
// from the conn's read loop (muxConnsOf, MuxConn.send). Everything else is
// owed a leg: a Conn that wraps another, a conn still dialing, contended
// or stalled, an element too large for the bound. None of this is part of
// Conn.
type Conn interface {
	// Index returns the server's shard index in [0, n).
	Index() int
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
}

// Reconfigurer is the optional Conn capability a reconfiguration
// coordinator needs: driving a server's epoch state machine (status,
// seal, activate). Both built-in transports implement it; a Conn that
// does not cannot be part of a live geometry flip.
type Reconfigurer interface {
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

// loopConnsOf resolves once, when a client is built, which of its conns
// are the loopback's own — the one conn that can answer an exchange
// without parking (loopConn.getTagNow, putDataNow, subscribeNow) — by
// server index; for a socket or a wrapper it holds nil, and a nil
// *loopConn answers errNotNow to everything.
func loopConnsOf(conns []Conn) []*loopConn {
	loops := make([]*loopConn, len(conns))
	for _, c := range conns {
		loops[c.Index()], _ = c.(*loopConn)
	}
	return loops
}

// muxConnsOf is the same resolution for the conns that are the socket
// transport's own, which can send an exchange from the calling goroutine
// and have it answered on the conn's pump (MuxConn.getTagStart,
// putDataStart, getDataStart); a nil *MuxConn never sends.
func muxConnsOf(conns []Conn) []*MuxConn {
	muxes := make([]*MuxConn, len(conns))
	for _, c := range conns {
		muxes[c.Index()], _ = c.(*MuxConn)
	}
	return muxes
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
	owed   []Conn // Writer.writeNow's list of conns that need a leg, kept for its capacity
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
type Writer struct {
	id      string
	codec   *Codec
	conns   []Conn
	loops   []*loopConn // see loopConnsOf
	muxes   []*MuxConn  // see muxConnsOf
	f       int
	m       *Membership
	locks   [writeStripes]sync.Mutex // serialize Write's get-tag -> put-data pair per key
	scratch sync.Pool                // *encodeScratch
	calls   sync.Pool                // *writeCall
}

// WriterOption configures a Writer.
type WriterOption func(*Writer) error

// WithWriterFaults sets the number of server crashes f the writer
// rides through: both phases wait on n-f servers. Default (n-k)/2,
// the paper's bound n >= k + 2f.
func WithWriterFaults(f int) WriterOption {
	return func(w *Writer) error {
		if f < 0 || f >= len(w.conns) {
			return fmt.Errorf("%w: writer faults f=%d with n=%d", ErrConfig, f, len(w.conns))
		}
		w.f = f
		return nil
	}
}

// WithWriterMembership shares a cluster Membership view with the
// writer: quarantined servers are excluded from both phases' quorum
// accounting — charged to the fault budget f rather than dialed — and
// automatically re-included once the Repairer readmits them. The
// writer also feeds the view: a server that affirmatively fails an RPC
// is marked Suspect for the repair loop to pick up. A nil view is no
// view: nobody is quarantined and nothing is fed.
func WithWriterMembership(m *Membership) WriterOption {
	return func(w *Writer) error {
		if m != nil && m.N() != len(w.conns) {
			return fmt.Errorf("%w: membership for n=%d, cluster has n=%d", ErrConfig, m.N(), len(w.conns))
		}
		w.m = m
		return nil
	}
}

// maxWriterID bounds writer ids: they travel inside every tag on the
// wire (uint16-length field) and live in every server's state, so
// they are required to be short.
const maxWriterID = 255

// NewWriter builds a writer with the given unique id.
func NewWriter(id string, codec *Codec, conns []Conn, opts ...WriterOption) (*Writer, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: empty writer id", ErrConfig)
	}
	if len(id) > maxWriterID {
		return nil, fmt.Errorf("%w: writer id of %d bytes exceeds %d", ErrConfig, len(id), maxWriterID)
	}
	if err := validateConns(conns, codec.N()); err != nil {
		return nil, err
	}
	w := &Writer{id: id, codec: codec, conns: conns, f: (codec.N() - codec.K()) / 2, loops: loopConnsOf(conns), muxes: muxConnsOf(conns)}
	for _, opt := range opts {
		if err := opt(w); err != nil {
			return nil, err
		}
	}
	if codec.N()-w.f < codec.K() {
		return nil, fmt.Errorf("%w: quorum n-f=%d < k=%d", ErrConfig, codec.N()-w.f, codec.K())
	}
	return w, nil
}

// writeTally is the quorum accounting of one write: what the servers
// have answered in each phase, and the two rules that read it. The
// inline pass keeps one on its stack; a writeCall holds one under its
// mutex for its legs. Each phase's thresholds (need successes, allowed+1
// failures) sum past the server count, so at most one of them is ever
// crossed per phase.
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
func (q *writeTally) mintTag(id string) (Tag, error) {
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
func (q *writeTally) acked(minted Tag) (bool, error) {
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
// answered off its goroutine: on a leg — a single goroutine per server runs
// both phases back to back, so a write costs n spawns, not 2n, and the
// channels and spawn thunk are reused across writes — or on a MuxConn's
// pump, for a frame the writer sent itself. Either reports into the tally
// under wc.mu and nudges the cap-1 wake channel only when its answer
// resolves a phase, so the caller parks about once per phase instead of
// consuming 2n messages. The refcount covers the legs, the exchanges out on
// a pump and the caller; the last one off drains the channels and pools the
// struct, so straggler sends can never pollute a later write.
type writeCall struct {
	wake chan struct{} // condition nudge; cap 1, coalescing
	mint chan Tag      // minted-tag handoff; cap n, one token per leg
	body func()        // reusable spawn thunk: go wc.body() allocates nothing
	idle *idleList     // where this call's legs leave from and park (see workerPool)
	refs atomic.Int32
	next atomic.Int32

	mu sync.Mutex
	writeTally

	// Per-call fields, set before the spawns and zeroed at pool time.
	w     *Writer
	ctx   context.Context
	key   string
	conns []Conn // the legs' conns, one claimed by each through next; len n
	full  int    // conns[:full] get a whole leg, get-tag first; the rest only the put-data
	sc    *encodeScratch
	vlen  int
}

// getCall checks out the state for what is left of a write whose tally
// so far is q.
func (w *Writer) getCall(ctx context.Context, key string, sc *encodeScratch, vlen int, q writeTally) *writeCall {
	wc, _ := w.calls.Get().(*writeCall)
	if wc == nil || cap(wc.mint) < len(w.conns) {
		wc = &writeCall{
			wake:  make(chan struct{}, 1),
			mint:  make(chan Tag, len(w.conns)),
			idle:  spawnPool.list(),
			conns: make([]Conn, len(w.conns)),
		}
		wc.body = wc.run
	}
	wc.next.Store(0)
	wc.writeTally = q
	wc.w, wc.ctx, wc.key, wc.full, wc.sc, wc.vlen = w, ctx, key, 0, sc, vlen
	wc.refs.Store(1) // the caller
	return wc
}

// release drops one hold on the call; the last holder drains and pools
// it.
func (wc *writeCall) release() {
	if n := wc.refs.Add(-1); n != 0 {
		if n < 0 {
			panic("soda: write call released by more holders than it had")
		}
		return
	}
	for {
		select {
		case <-wc.wake:
		case <-wc.mint:
		default:
			w := wc.w
			wc.w, wc.ctx, wc.key, wc.sc = nil, nil, "", nil
			clear(wc.conns)
			wc.writeTally = writeTally{} // drops the error values
			w.calls.Put(wc)
			return
		}
	}
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

// spawn starts n more legs, each holding the element buffers until its
// put-data is over; the call they hold already.
func (wc *writeCall) spawn(n int) {
	wc.sc.refs.Add(int32(n))
	for range n {
		wc.idle.spawn(wc.body)
	}
}

// gotTagFrom and gotAckFrom count one server's answer, brought by its
// leg or by its conn's pump.
func (wc *writeCall) gotTagFrom(server int, t Tag, err error) {
	reportSuspect(wc.w.m, wc.ctx, server, err)
	wc.mu.Lock()
	nudge := wc.gotTag(t, err)
	wc.mu.Unlock()
	if nudge {
		wc.signal()
	}
}

func (wc *writeCall) gotAckFrom(server int, err error) {
	reportSuspect(wc.w.m, wc.ctx, server, err)
	wc.mu.Lock()
	nudge := wc.gotAck(err)
	wc.mu.Unlock()
	if nudge {
		wc.signal()
	}
}

// tagReply and ackReply are a writeCall as the waiter of a get-tag and of
// a put-data the writer sent itself; each exchange holds the call until it
// is answered.
type (
	tagReply writeCall
	ackReply writeCall
)

func (r *tagReply) answer(c *MuxConn, resp *response, err error) {
	wc := (*writeCall)(r)
	defer wc.release()
	wc.gotTagFrom(c.idx, resp.tag, err)
}

func (r *ackReply) answer(c *MuxConn, _ *response, err error) {
	wc := (*writeCall)(r)
	defer wc.release()
	wc.gotAckFrom(c.idx, err)
}

// run is one server's leg of a write: report the server's tag, wait for
// the writer to mint, then deliver the coded element — or, for a conn
// whose get-tag has been asked already, only the last. A server whose
// get-tag failed still attempts put-data — the TCP transport redials on
// demand, so the second exchange can succeed where the first did not.
func (wc *writeCall) run() {
	defer wc.release()
	j := int(wc.next.Add(1)) - 1
	c := wc.conns[j]
	if j < wc.full {
		t, err := c.GetTag(wc.ctx, wc.key)
		wc.gotTagFrom(c.Index(), t, err)
	}
	// A straggler can find both channels ready — the write minted,
	// completed and cancelled while this leg was on its way here — and
	// select picks among ready cases at random: the minted tag wins, so
	// the put still lands.
	var minted Tag
	select {
	case minted = <-wc.mint:
	case <-wc.ctx.Done():
		select {
		case minted = <-wc.mint:
		default:
			putElem(wc.sc.shards[c.Index()]) // never sent: still this leg's
			wc.sc.release(&wc.w.scratch)
			return
		}
	}
	err := c.PutData(wc.ctx, wc.key, minted, wc.sc.shards[c.Index()], wc.vlen)
	wc.sc.release(&wc.w.scratch)
	wc.gotAckFrom(c.Index(), err)
}

// Write performs one atomic write of key: get-tag, then put-data,
// returning the tag the value was written under. It asks on its own
// goroutine whichever conns answer there (writeNow), writes the frames of
// those that answer on their pump, and sends a leg for each exchange still
// owed: one goroutine per conn runs get-tag and then, once n-f tags have
// fixed the minted tag, put-data. Per-server phases
// may overlap (one server can be receiving its element while a
// straggler is still answering get-tag); the protocol never needed
// the phases globally barriered, only the mint to follow n-f tags.
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
	minted, inline, err := w.write(ctx, key, value)
	if inline && handoff(w.codec.shardSize(len(value))) {
		yieldAfterLargeInlineOp()
	}
	return minted, err
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

// write is Write under the key's stripe lock. inline reports that no
// part of the write left the calling goroutine.
func (w *Writer) write(ctx context.Context, key string, value []byte) (minted Tag, inline bool, err error) {
	l := &w.locks[stripeOf(key)]
	l.Lock()
	defer l.Unlock()

	live, excluded, err := w.quorumConns()
	if err != nil {
		return Tag{}, false, fmt.Errorf("soda: get-tag: %w", err)
	}
	sc, _ := w.scratch.Get().(*encodeScratch)
	if sc == nil {
		sc = &encodeScratch{}
	}
	if err := w.codec.encodeValueInto(value, sc); err != nil {
		w.scratch.Put(sc)
		return Tag{}, false, err
	}
	if excluded > 0 {
		sc.unsent(live)
	}
	q := writeTally{need: len(w.conns) - w.f}
	q.allowed = len(live) - q.need
	owed := live              // the conns with an exchange of this write still to come
	alive := ctx.Err() == nil // the legs know what a dead context does to a write
	if alive {
		var done bool
		if minted, owed, done, err = w.writeNow(ctx, key, live, sc, len(value), &q); done {
			w.scratch.Put(sc)
			return minted, true, err
		}
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sc.refs.Store(1) // the writer's own hold: the frames it sends itself copy from sc
	defer sc.release(&w.scratch)
	wc := w.getCall(wctx, key, sc, len(value), q)
	defer wc.release()
	legs := 0 // conns listed in wc.conns, for a leg each

	// Phase 0: a get-tag to every owed conn — written here and answered on
	// the conn's pump where that takes no waiting, else a leg's — then park
	// until the tag quorum resolves. Every wake re-reads the tally, so
	// coalesced or stale nudges only cost a loop turn.
	puts := owed // the conns with no leg yet to send their put-data
	if minted.IsZero() {
		puts = sc.owed[:0]
		wc.refs.Add(int32(len(owed))) // an exchange each, on a pump or on a leg
		for _, c := range owed {
			if alive && w.muxes[c.Index()].getTagStart(key, (*tagReply)(wc)) {
				puts = append(puts, c)
			} else {
				wc.conns[legs] = c
				legs++
			}
		}
		sc.owed, wc.full = puts, legs
		wc.spawn(legs)
		for minted.IsZero() && err == nil {
			//lint:ignore lockhold the stripe lock serializes whole write ops by design (PR 5: concurrent same-writer tags must stay unique); parking under it is the point
			select {
			case <-wc.wake:
				wc.mu.Lock()
				minted, err = wc.mintTag(w.id)
				wc.mu.Unlock()
			case <-ctx.Done():
				err = ctx.Err()
			}
		}
		if err != nil {
			for _, c := range puts {
				putElem(sc.shards[c.Index()]) // never sent: still the writer's
			}
			return Tag{}, false, err
		}
	}
	// The put-datas, the same way, and every leg is told the tag.
	wc.refs.Add(int32(len(puts)))
	for _, c := range puts {
		if i := c.Index(); !alive || !w.muxes[i].putDataStart(key, minted, sc.shards[i], len(value), (*ackReply)(wc)) {
			wc.conns[legs] = c
			legs++
		}
	}
	for range legs { // before the new legs start: the tag is there when they look
		//lint:ignore lockhold mint sends ride the held stripe lock by design: one buffered slot per leg exists before the send, so this never blocks
		wc.mint <- minted
	}
	wc.spawn(legs - wc.full)

	// Phase 1: park until the ack quorum resolves. The tally is read
	// before the first park: acks counted before the legs started may
	// have resolved it already, and then no leg's answer is the one that
	// nudges.
	for {
		wc.mu.Lock()
		done, err := wc.acked(minted)
		wc.mu.Unlock()
		if done {
			return minted, false, err
		}
		//lint:ignore lockhold the stripe lock serializes whole write ops by design (PR 5); the ack-quorum park mirrors the phase-0 park above
		select {
		case <-wc.wake:
		case <-ctx.Done():
			return minted, false, ctx.Err()
		}
	}
}

// writeNow runs on the calling goroutine as much of a write as its conns
// answer there: each phase is a pass over live in index order (phase 1
// makes a second over the servers its first found busy), a server's
// answer going through the same tally and rules as a leg's. A hung server
// is a leg that never answers; if a phase cannot resolve without the hung
// ones the write waits out ctx, as its legs would have. It returns done
// when the write is over, minted tag and error being Write's. Otherwise
// legs are owed: with a zero tag the answers to be had there did not
// settle phase 0, nothing has happened and owed is live; with a minted
// one q holds the acks so far and owed are the conns whose put-data is
// still to be sent. Elements of conns not in owed are sent or freed.
func (w *Writer) writeNow(ctx context.Context, key string, live []Conn, sc *encodeScratch, vlen int, q *writeTally) (minted Tag, owed []Conn, done bool, err error) {
	missed := false
	for _, c := range live {
		i := c.Index()
		t, err := w.loops[i].getTagNow(key)
		switch err {
		case errNotNow:
			missed = true
			continue
		case errSilent:
			continue
		}
		reportSuspect(w.m, ctx, i, err)
		q.gotTag(t, err)
	}
	minted, err = q.mintTag(w.id)
	if minted.IsZero() {
		if err == nil {
			if missed {
				*q = writeTally{need: q.need, allowed: q.allowed}
				return Tag{}, live, false, nil
			}
			<-ctx.Done()
			err = ctx.Err()
		}
		for _, c := range live {
			putElem(sc.shards[c.Index()]) // never sent: still the writer's
		}
		return Tag{}, nil, true, err
	}
	// Phase 1 visits every server, then once more those that were busy
	// the first time — a put needs n-f acks in any order, so a log another
	// writer is in is one to come back to, not to queue on. One more visit
	// is what there is to gain: two writers that walk the servers in step
	// collide on each (23 % of wal-small's writes needed a leg without it
	// and write p99 was 39 us; 3.6 % and 29 us with it; the same with a
	// third), and the second round finds the other writer gone. What is
	// busy twice gets a leg.
	owed = live
	for pass := 0; pass < 2 && len(owed) > 0; pass++ {
		busy := sc.owed[:0] // pass 1 filters sc.owed in place
		for _, c := range owed {
			i := c.Index()
			err := w.loops[i].putDataNow(key, minted, sc.shards[i], vlen)
			switch err {
			case errNotNow:
				busy = append(busy, c)
				continue
			case errSilent:
				continue
			}
			reportSuspect(w.m, ctx, i, err)
			q.gotAck(err)
		}
		owed, sc.owed = busy, busy
	}
	if len(owed) > 0 {
		return minted, owed, false, nil
	}
	if done, err = q.acked(minted); !done {
		<-ctx.Done()
		err = ctx.Err()
	}
	return minted, nil, true, err
}

// quorumConns samples the membership view for one phase: the conns to
// contact, the number quarantined, and an ErrUnavailable when so many
// are quarantined that the n-f quorum cannot be met without them.
func (w *Writer) quorumConns() ([]Conn, int, error) {
	live, excluded := liveConns(w.conns, w.m)
	if excluded > w.f {
		return nil, excluded, fmt.Errorf("%w: %d servers quarantined, fault budget f=%d", ErrUnavailable, excluded, w.f)
	}
	return live, excluded, nil
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
type Reader struct {
	id         string
	ridPrefix  string // id + process token, precomputed off the Read path
	codec      *Codec
	conns      []Conn
	loops      []*loopConn // see loopConnsOf
	muxes      []*MuxConn  // see muxConnsOf
	f          int
	e          int
	quarantine []int
	m          *Membership
	states     sync.Pool // *readState
}

// ReaderOption configures a Reader.
type ReaderOption func(*Reader) error

// WithReaderFaults sets the number of silent or crashed servers f a
// read rides through: the target tag is fixed from the first n-f
// initial responses. Atomicity requires f < k — a read may adopt a
// tag held by only the k servers whose elements it decoded (a
// writer's half-applied put), and a later read's n-f initial quorum
// is guaranteed to intersect those k servers only when k > f; with
// f >= k, reads could go backwards. Default min((n-k)/2, k-1).
func WithReaderFaults(f int) ReaderOption {
	return func(r *Reader) error {
		if f < 0 || f >= len(r.conns) {
			return fmt.Errorf("%w: reader faults f=%d with n=%d", ErrConfig, f, len(r.conns))
		}
		if f >= r.codec.K() {
			return fmt.Errorf("%w: reader faults f=%d >= k=%d (a returned tag may live on only k servers; the next read's n-f quorum must still see one of them)",
				ErrConfig, f, r.codec.K())
		}
		r.f = f
		return nil
	}
}

// WithReadErrors turns on the SODA_err read path: the reader waits
// for k+2e coded elements of a matching tag, verifies them, and runs
// the rs error decoder to locate up to e silently corrupt servers,
// reported in ReadResult.Corrupt. Needs 2e <= n-k.
func WithReadErrors(e int) ReaderOption {
	return func(r *Reader) error {
		if e < 0 {
			return fmt.Errorf("%w: read errors e=%d", ErrConfig, e)
		}
		if e > 0 && r.codec.MaxReadErrors() < e {
			return fmt.Errorf("%w: e=%d corrupt servers exceeds the codec's radius %d (need 2e <= n-k)",
				ErrConfig, e, r.codec.MaxReadErrors())
		}
		r.e = e
		return nil
	}
}

// WithQuarantine excludes servers a previous SODA_err read located as
// corrupt: the read never contacts them, charging them to the fault
// budget f instead.
func WithQuarantine(servers ...int) ReaderOption {
	return func(r *Reader) error {
		for _, s := range servers {
			if s < 0 || s >= len(r.conns) {
				return fmt.Errorf("%w: quarantined server %d out of range", ErrConfig, s)
			}
		}
		r.quarantine = slices.Clone(servers)
		return nil
	}
}

// WithReaderMembership shares a cluster Membership view with the
// reader: each Read samples the view at invocation and excludes every
// quarantined server exactly like WithQuarantine (the two compose; the
// static list stays excluded regardless of the view). The reader also
// feeds the view — corrupt servers a SODA_err decode locates and
// servers whose delivery stream affirmatively dies are marked Suspect
// — closing the loop that keeps the Repairer supplied with work. A nil
// view is no view, as for WithWriterMembership.
func WithReaderMembership(m *Membership) ReaderOption {
	return func(r *Reader) error {
		if m != nil && m.N() != len(r.conns) {
			return fmt.Errorf("%w: membership for n=%d, cluster has n=%d", ErrConfig, m.N(), len(r.conns))
		}
		r.m = m
		return nil
	}
}

// NewReader builds a reader with the given id prefix.
func NewReader(id string, codec *Codec, conns []Conn, opts ...ReaderOption) (*Reader, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: empty reader id", ErrConfig)
	}
	if err := validateConns(conns, codec.N()); err != nil {
		return nil, err
	}
	f := (codec.N() - codec.K()) / 2
	if f > codec.K()-1 {
		f = codec.K() - 1 // see WithReaderFaults: atomicity needs f < k
	}
	r := &Reader{id: id, ridPrefix: id + "-" + procToken + "#", codec: codec, conns: conns, f: f, loops: loopConnsOf(conns), muxes: muxConnsOf(conns)}
	for _, opt := range opts {
		if err := opt(r); err != nil {
			return nil, err
		}
	}
	if need := codec.K() + 2*r.e; codec.N()-r.f < need {
		return nil, fmt.Errorf("%w: read quorum n-f=%d < k+2e=%d", ErrConfig, codec.N()-r.f, need)
	}
	return r, nil
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
// or until ctx is cancelled, under one registration id throughout. A pass
// on the calling goroutine registers with every conn that answers there,
// the initial delivery arriving through the same sink as on a leg, and
// stops at the server whose answer completes the read — which then closes
// what it opened and has started nothing; a MuxConn's get-data is written
// from there too and delivers from the conn's pump. A read the pass leaves
// waiting keeps its registrations and sends a leg to watch each loopback
// one, and one to each conn still owed its get-data. A hung server never
// delivers.
func (r *Reader) Read(ctx context.Context, key string) (ReadResult, error) {
	if err := validateKey(key); err != nil {
		return ReadResult{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	// The effective quarantine is the static list plus the membership
	// view's current suspects; a server the Repairer readmitted before
	// this Read started is contacted again.
	quarantine := r.quarantine
	if r.m != nil {
		quarantine = slices.Clone(quarantine)
		for _, s := range r.m.Suspects() {
			if !slices.Contains(quarantine, s) {
				quarantine = append(quarantine, s)
			}
		}
	}
	st := r.begin(key, quarantine)
	defer st.release()
	defer st.endStreams()
	live := ctx.Err() == nil // the legs know what a dead context does to a read
	var done bool
	for i := 0; ; i++ { // finished is sampled once per conn and once after the last
		if done = st.isFinished(); done || i == len(r.conns) {
			break
		}
		c := r.conns[i]
		idx := c.Index()
		if slices.Contains(quarantine, idx) {
			continue
		}
		sub, err := loopSub{}, errNotNow
		if live {
			sub, err = r.loops[idx].subscribeNow(key, st.rid, st.sink)
		}
		switch err {
		case nil:
			st.subs = append(st.subs, sub)
		case errNotNow:
			if !live || !st.stream(r.muxes[idx]) {
				st.owed = append(st.owed, c)
			}
		case errSilent:
		default:
			reportSuspect(r.m, ctx, idx, err)
			st.lose(idx, err)
		}
	}
	if done {
		// Unforced: the read is finished with every element it was handed.
		for _, sub := range st.subs {
			sub.close(false)
		}
		res, err := st.outcome()
		if err == nil && handoff(r.codec.shardSize(len(res.Value))) {
			yieldAfterLargeInlineOp()
		}
		return res, err
	}

	if legs := len(st.subs) + len(st.owed); legs > 0 {
		// Their registrations end only through this deferred cancel, once
		// the read has stopped touching delivered elements: unregistering is
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
func (r *Reader) begin(key string, quarantine []int) *readState {
	b := make([]byte, 0, len(r.ridPrefix)+20)
	rid := string(strconv.AppendUint(append(b, r.ridPrefix...), readSeq.Add(1), 10))
	st := r.getState()
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

// muxSub is one get-data a read sent on its own goroutine: the stream's
// conn and request id, by which the read ends it.
type muxSub struct {
	c  *MuxConn
	id uint64
}

// stream sends c's get-data from the calling goroutine, if c can without
// waiting (a nil c cannot). The stream delivers to the read's sink from
// the conn's pump and holds the state until one side ends it: the read,
// through endStreams, or the server or the session's death, through
// answer.
func (st *readState) stream(c *MuxConn) bool {
	st.refs.Add(1)
	id, sent := c.getDataStart(st.key, st.rid, st, st.sink)
	if !sent {
		st.refs.Add(-1)
		return false
	}
	st.streams = append(st.streams, muxSub{c, id})
	return true
}

// answer ends a stream under its read: NACKed in an epoch flip, refused,
// or gone with its session. Whatever it delivered stays usable.
func (st *readState) answer(c *MuxConn, _ *response, err error) {
	defer st.release()
	if !st.isFinished() {
		reportSuspect(st.r.m, context.Background(), c.idx, err)
		st.lose(c.idx, err)
	}
}

// endStreams is the read done with the streams it opened. Each one still
// registered is dropped, its reader-done left to ride the conn's next frame,
// and gives up its hold, which is never the last: the caller's is still out.
func (st *readState) endStreams() {
	var ended int32
	for _, s := range st.streams {
		if s.c.drop(s.id, true) {
			ended++
		}
	}
	if ended > 0 {
		st.refs.Add(-ended)
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
	if m := st.r.m; m != nil {
		m.ReportRead(res)
	}
	return res, nil
}

// runConn is one server's leg of a read the pass left waiting: the first
// len(subs) watch a registration it made, the rest make their own.
func (st *readState) runConn() {
	defer st.release()
	var idx int
	var err error
	if j := int(st.next.Add(1)) - 1; j < len(st.subs) {
		idx, err = st.subs[j].c.idx, st.subs[j].await(st.rctx)
	} else {
		c := st.owed[j-len(st.subs)]
		idx, err = c.Index(), c.GetData(st.rctx, st.key, st.rid, st.sink)
	}
	if st.rctx.Err() == nil {
		// The subscription died while the read still wanted it: a
		// crashed or closing server. Anything it already delivered
		// stays usable.
		if err == nil {
			err = errStreamClosed
		}
		reportSuspect(st.r.m, st.rctx, idx, err)
		st.lose(idx, err)
	}
}

// getState checks a readState out of the reader's pool. The state is
// returned by the last of its holders (the caller plus one goroutine
// per subscription) via release, which also advances the generation so
// that straggler relay deliveries for the old read are dropped.
func (r *Reader) getState() *readState {
	st, _ := r.states.Get().(*readState)
	if st == nil {
		n := len(r.conns)
		st = &readState{
			r:        r,
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
	r := st.r
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
	clear(st.streams)
	st.subs, st.owed, st.streams = st.subs[:0], st.owed[:0], st.streams[:0]
	select {
	case <-st.done: // unconsumed completion signal (caller left via ctx)
	default:
	}
	st.mu.Unlock()
	r.states.Put(st)
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
// completion rule. States are pooled per Reader; gen stamps each
// checkout so relay deliveries that outlive their read go inert
// instead of polluting the next one.
type readState struct {
	r  *Reader
	mu sync.Mutex

	gen  uint64       // checkout generation; advanced on pool return
	refs atomic.Int32 // caller + one per subscription goroutine
	next atomic.Int32 // conn claim counter for the spawn thunk
	body func()       // reusable spawn thunk: go st.body() allocates nothing
	idle *idleList    // where this read's legs leave from and park (see workerPool)

	// Per-read wiring, set before the spawns, cleared at pool time.
	rctx    context.Context // what the legs run under; a read without legs has none
	key     string
	rid     string
	sink    func(Delivery)
	subs    []loopSub // the registrations the pass made
	streams []muxSub  // the get-datas it sent, answered on their conns' pumps
	owed    []Conn    // the conns it could not ask: each needs a leg to run its get-data

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
		st.vers = append(st.vers, versionBucket{ts: tagState{elems: make([][]byte, len(st.r.conns))}})
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
	n := len(st.r.conns)
	aliveNew := 0 // live servers that have not yet sent their initial
	for i := 0; i < n; i++ {
		if !st.hasInit[i] && !st.lost[i] {
			aliveNew++
		}
	}
	// The target tag needs initial responses from n-f distinct
	// servers; initials already in hand count even if their server
	// died since.
	if !st.tTargetSet && st.nInit+aliveNew < n-st.r.f {
		st.finish(ReadResult{}, fmt.Errorf("%w: server %d lost (%w); %d initial responses reachable, need %d",
			ErrUnavailable, server, cause, st.nInit+aliveNew, n-st.r.f))
		return
	}
	// Completion needs k+2e elements of one version. A future write
	// can still supply them through every live server; failing that,
	// an already-seen version can be completed by live servers that
	// have not contributed to it yet.
	need := st.r.codec.K() + 2*st.r.e
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
	if st.finished || d.Server < 0 || d.Server >= len(st.r.conns) {
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
	if !d.Tag.IsZero() && d.VLen > 0 && len(d.Elem) == st.r.codec.shardSize(d.VLen) &&
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
	n := len(st.r.conns)
	if !st.tTargetSet {
		if st.nInit < n-st.r.f {
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
	need := st.r.codec.K() + 2*st.r.e
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
	codec := st.r.codec
	n, k := codec.N(), codec.K()
	if ts.count < k+2*st.r.e {
		return ReadResult{}, false
	}
	// With e == 0 nothing writes the delivered elements — the value is the
	// concatenation of the k data shards, any missing one reconstructed
	// into the result — so there are no defensive clones.
	shards, decodeValue := ts.elems, codec.DecodeValue
	var corrupt []int
	if st.r.e == 0 {
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

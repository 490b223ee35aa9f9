package soda

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Delivery is one (tag, coded element) message from a server to a
// reader: either the server's current state at registration time
// (Initial) or the relay of a put-data that arrived while the reader
// was registered. A server that has never been written delivers the
// zero Tag with a nil element. Epoch is the configuration epoch the
// server held the element under when it relayed it. Elem is read-only:
// from a Server it is the register's own buffer, pinned (see register).
type Delivery struct {
	Server  int
	Tag     Tag
	Elem    []byte
	VLen    int
	Initial bool
	Epoch   uint64
}

// registration is one registered reader: the relay sink plus the tag
// the server held when the reader arrived. Only puts with tag >= treq
// are relayed — older writes cannot be what this reader is waiting
// for, because its target tag is the maximum over a quorum of such
// registration tags.
type registration struct {
	reader string
	treq   Tag
	sink   func(Delivery)
}

// register is one named SODA register on a server: the coded element
// belonging to the highest tag seen for this key, plus the key's
// registered-reader set. The per-register mutex keeps unrelated keys
// off each other's critical sections. The reader set is a small slice,
// not a map: a key rarely has more than a handful of concurrent
// readers, every read registers and unregisters on every server, and
// at that cardinality a linear scan beats two string-map mutations per
// subscription — the slice's backing array recycles across reads where
// map buckets would churn.
//
// elem is the register's one stable buffer: store copies each new
// element into it. Readers are handed elem by reference, so the reader
// set is the pin — while it is non-empty a put installs a fresh buffer
// instead — and lent extends the pin to a buffer someone outside the
// set may still be reading (a relay in flight, a force-dropped reader).
// A handed-off element (adopt) replaces the buffer instead of being
// copied into it, and the same pin decides whether the old one may be
// reused.
type register struct {
	mu      sync.Mutex
	tag     Tag
	elem    []byte
	vlen    int
	lent    bool
	gone    bool // collect took it out of the namespace: see hold
	readers []registration
}

// store installs (t, elem, vlen), copying the borrowed elem: in place
// when nobody can be reading the buffer, else into a fresh one that
// replaces it. Caller holds r.mu.
func (r *register) store(t Tag, elem []byte, vlen int) {
	if len(r.readers) == 0 && !r.lent && len(elem) > 0 && cap(r.elem) >= len(elem) {
		r.elem = r.elem[:len(elem)]
		copy(r.elem, elem)
	} else {
		r.elem, r.lent = slices.Clone(elem), false
	}
	r.tag, r.vlen = t, vlen
}

// adopt installs (t, elem, vlen) with elem itself as the buffer, and
// returns the buffer it displaced when nobody can be reading that one —
// exactly when store would have written it in place — else nil. Caller
// holds r.mu and gives elem up.
func (r *register) adopt(t Tag, elem []byte, vlen int) (displaced []byte) {
	if len(r.readers) == 0 && !r.lent {
		displaced = r.elem
	}
	r.elem, r.lent = elem, false
	r.tag, r.vlen = t, vlen
	return displaced
}

// serverShardCount stripes the namespace map; must be a power of two.
const serverShardCount = 16

type serverShard struct {
	mu   sync.RWMutex
	regs map[string]*register
}

// Server is the SODA server state machine, independent of any
// transport. It stores a namespace of named registers — each exactly
// one coded element, the one belonging to the highest tag it has seen
// for that key, plus the key's registered-reader set, which is the
// entire per-server cost of the relay-based read protocol. The
// namespace is a sharded key→register map with striped locks and lazy
// register creation; registers that hold nothing and serve nobody are
// garbage-collected back out of it. All methods are safe for
// concurrent use; relay sinks are invoked outside all locks.
type Server struct {
	idx     int
	metrics Metrics
	dur     *durability // nil for a memory-only server
	shards  [serverShardCount]serverShard

	// Configuration-epoch state. epochSt is read lock-free on every
	// admission check and every get-data; transitions serialize on
	// epochMu and broadcast by closing the replaced state's changed
	// channel (the Membership.Changed pattern), so transports can tear
	// down relay streams the moment the geometry moves. moving is set
	// while a transition is between publishing its state and having
	// dropped the old state's readers.
	epochSt atomic.Pointer[epochState]
	epochMu sync.Mutex
	moving  atomic.Bool
}

// epochState is the server's view of the cluster configuration: the
// active epoch and its [n,k] geometry, plus — while sealed for a
// two-phase flip — the pending epoch and geometry being migrated to.
type epochState struct {
	epoch   uint64
	n, k    int // active geometry (0,0 until the first flip names one)
	sealed  bool
	pending uint64
	pn, pk  int // pending geometry, meaningful only while sealed

	// changed is closed when this state is replaced. It is published by
	// the same store as the state, so a channel sampled before an
	// admission check outlives the state that check saw. Not persisted.
	changed chan struct{}
}

// opClass buckets wire operations for epoch admission.
type opClass int

const (
	opClient opClass = iota // get-tag, put-data, get-data: full service only
	opDonor                 // get-elem, keys: served while sealed (migration donors)
	opRepair                // repair-put: active epoch, or pending epoch while sealed
	opExempt                // reconfig, reader-done: never put to Admit (one moves the epoch, one outlives it)
)

// NewServer returns the state machine for the server holding codeword
// shard idx.
func NewServer(idx int) *Server {
	s := &Server{idx: idx}
	s.epochSt.Store(&epochState{changed: make(chan struct{})})
	for i := range s.shards {
		s.shards[i].regs = make(map[string]*register)
	}
	return s
}

// Index returns the server's shard index in the code geometry.
func (s *Server) Index() int { return s.idx }

// Metrics returns the server's live counters (for transports that
// need to count, e.g. relay-queue drops).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// MetricsSnapshot returns the counters plus current namespace gauges.
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	snap := s.metrics.Snapshot()
	if s.dur != nil {
		snap.WALSyncNanos = uint64(s.dur.wal.syncNanos.Load())
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		snap.Registers += uint64(len(sh.regs))
		for _, r := range sh.regs {
			r.mu.Lock()
			snap.Registrations += uint64(len(r.readers))
			r.mu.Unlock()
		}
		sh.mu.RUnlock()
	}
	return snap
}

// EpochStatus reports the server's configuration-epoch state.
func (s *Server) EpochStatus() EpochStatus {
	st := s.epochSt.Load()
	return EpochStatus{Epoch: st.epoch, Pending: st.pending, Sealed: st.sealed, N: st.n, K: st.k}
}

// EpochChanged returns a channel closed at the server's next epoch
// transition (seal or activate). Callers re-arm by calling again. It
// takes no lock unless a transition is under way, which it waits out: a
// get-data admitted under the state this channel belongs to must not
// register while that state's transition is still dropping readers.
func (s *Server) EpochChanged() <-chan struct{} {
	st := s.epochSt.Load()
	if s.moving.Load() {
		s.epochMu.Lock() // held by the transition until it is done
		s.epochMu.Unlock()
	}
	return st.changed
}

// Admit checks a frame's configuration epoch against the server's
// state for the given operation class, returning the typed NACK the
// transport must send when they disagree. Client operations require
// the active epoch unsealed; donor reads (get-elem, keys) are served
// while sealed so migration can drain the frozen state; repair
// installs are accepted at the active epoch or, while sealed, at the
// pending epoch — that is the migration path laying down re-encoded
// elements before activation.
func (s *Server) Admit(class opClass, epoch uint64) *StaleEpochError {
	st := s.epochSt.Load()
	switch class {
	case opClient:
		if epoch == st.epoch && !st.sealed {
			return nil
		}
	case opDonor:
		if epoch == st.epoch {
			return nil
		}
	case opRepair:
		if (epoch == st.epoch && !st.sealed) || (st.sealed && epoch == st.pending) {
			return nil
		}
	}
	s.metrics.epochNacks.Add(1)
	want := st.epoch
	if st.sealed {
		want = st.pending
	}
	if epoch > want {
		// The client is ahead of us (it saw an activation we have not):
		// it should keep its epoch and retry once we catch up.
		want = epoch
	}
	return &StaleEpochError{Server: s.idx, ServerEpoch: st.epoch, Want: want, Sealed: st.sealed}
}

// Reconfig is the coordinator's entry point for the two-phase flip:
// seal the active epoch pending a target, then activate the target.
// Both transitions are idempotent (a coordinator retrying after a
// timeout or a node power-cut must be able to re-issue them), logged
// as WAL epoch records before they apply (synced regardless of fsync
// mode — a geometry change is too rare and too important to lose), and
// drop every reader registration so relay streams die with the old
// epoch instead of leaking cross-epoch deliveries. On a server whose
// WAL is closed (power cut, Close) a transition is refused with
// ErrServerDown and nothing changes.
func (s *Server) Reconfig(op ReconfigOp, target uint64, n, k int) (EpochStatus, error) {
	if op == ReconfigStatus {
		return s.EpochStatus(), nil
	}
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	st := s.epochSt.Load()
	switch op {
	case ReconfigSeal:
		if st.epoch >= target || (st.sealed && st.pending == target) {
			// Already sealed for (or past) the target: a retry, not a
			// conflict.
			return s.statusLocked(), nil
		}
		if st.sealed {
			return s.statusLocked(), fmt.Errorf("soda: server %d: seal for epoch %d conflicts with pending flip to %d", s.idx, target, st.pending)
		}
		next := &epochState{epoch: st.epoch, n: st.n, k: st.k, sealed: true, pending: target, pn: n, pk: k}
		if !s.transitionLocked(next) {
			return s.statusLocked(), ErrServerDown
		}
	case ReconfigActivate:
		if st.epoch >= target {
			return s.statusLocked(), nil
		}
		if !st.sealed || st.pending != target {
			return s.statusLocked(), fmt.Errorf("soda: server %d: activate epoch %d without matching seal (sealed=%v pending=%d)", s.idx, target, st.sealed, st.pending)
		}
		next := &epochState{epoch: target, n: n, k: k}
		if !s.transitionLocked(next) {
			return s.statusLocked(), ErrServerDown
		}
	default:
		return s.statusLocked(), fmt.Errorf("soda: server %d: unknown reconfig op %d", s.idx, op)
	}
	return s.statusLocked(), nil
}

func (s *Server) statusLocked() EpochStatus {
	st := s.epochSt.Load()
	return EpochStatus{Epoch: st.epoch, Pending: st.pending, Sealed: st.sealed, N: st.n, K: st.k}
}

// transitionLocked logs, applies, and broadcasts one epoch transition.
// Caller holds epochMu. It reports false, with nothing applied, when
// the WAL is closed under the server (power cut, Close): memory must not
// move to an epoch the disk will not remember.
func (s *Server) transitionLocked(next *epochState) bool {
	if s.dur != nil && !s.dur.logEpoch(next) {
		return false
	}
	s.moving.Store(true)
	defer s.moving.Store(false)
	next.changed = make(chan struct{})
	prev := s.epochSt.Swap(next)
	s.metrics.epochFlips.Add(1)
	// Registered readers belong to the configuration they registered
	// under; the flip hands them off by dropping them here so their
	// streams end and they re-register (min(treq, tag) semantics) under
	// the new epoch.
	s.UnregisterAll()
	close(prev.changed)
	return true
}

// installEpochState restores epoch state during recovery replay,
// without logging (the record being replayed is the log).
func (s *Server) installEpochState(next *epochState) {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	next.changed = s.epochSt.Load().changed // nobody is told: nothing is served yet
	s.epochSt.Store(next)
}

// shardOf hashes a key onto its stripe.
func (s *Server) shardOf(key string) *serverShard {
	return &s.shards[keyHash(key)&(serverShardCount-1)]
}

// keyHash is FNV-1a, inlined to keep every striped lookup — namespace
// shard, hot counters, writer lock — allocation-free.
func keyHash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// lookup returns the key's register, or nil when absent and create is
// false. Creation is lazy: a key costs nothing until first touched.
func (s *Server) lookup(key string, create bool) *register {
	sh := s.shardOf(key)
	sh.mu.RLock()
	r := sh.regs[key]
	sh.mu.RUnlock()
	if r != nil || !create {
		return r
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r = sh.regs[key]; r == nil {
		r = &register{}
		sh.regs[key] = r
	}
	return r
}

// hold returns key's register, created if need be, with its lock taken, or
// nil when wait is unset and the lock is not free. A register removed from
// the namespace since it was found is one no later operation can see: a put
// would be lost in it and a reader wait on it for ever, so hold looks again.
func (s *Server) hold(key string, wait bool) *register {
	for {
		r := s.lookup(key, true)
		if wait {
			r.mu.Lock()
		} else if !r.mu.TryLock() {
			return nil
		}
		if !r.gone {
			return r
		}
		r.mu.Unlock()
	}
}

// collect removes the register if it still holds nothing and serves
// nobody — the namespace GC that keeps touched-but-empty keys from
// accumulating. Lock order is shard then register, same as every
// other path.
func (s *Server) collect(key string) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.regs[key]
	if r == nil {
		return
	}
	r.mu.Lock()
	dead := r.tag == (Tag{}) && len(r.readers) == 0
	r.gone = dead
	r.mu.Unlock()
	if dead {
		delete(sh.regs, key)
		s.metrics.registerGCs.Add(1)
	}
}

// GetTag answers the writer's first phase: the highest tag stored
// under key. A never-written key is the zero tag and does not cost a
// register.
func (s *Server) GetTag(key string) Tag {
	s.metrics.of(key).getTags.Add(1)
	r := s.lookup(key, false)
	if r == nil {
		return Tag{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tag
}

// put is the body PutData and RepairPut share: accept (t, elem, vlen)
// iff t is above the key's tag — or, for a repair, equal to it — and
// relay it to every registered reader whose treq it satisfies (a
// rejected put-data still relays; a rejected repair does nothing).
// Sinks run after r.mu is released, on a server-owned copy: the stored
// buffer, marked lent because a sink can outlive its registration by
// one call, or a private clone. On a server whose WAL was closed under
// it (power cut, Close) an accepted put fails with ErrServerDown before
// it stores or relays anything: memory must not get ahead of a disk
// that can no longer follow. wait is how the caller takes the two things
// a put can queue on, the key's register lock and the log: parked behind
// their holders, or — a writer running its own put-data pass, which has
// other servers to visit meanwhile — not at all, and then a busy one
// answers errNotNow with nothing logged, stored or relayed.
func (s *Server) put(op byte, key string, t Tag, elem []byte, vlen int, wait bool) (bool, error) {
	r := s.hold(key, wait)
	if r == nil {
		return false, errNotNow
	}
	stored := r.tag.Less(t) || (op == walOpRepair && r.tag == t)
	if !stored && op == walOpRepair {
		r.mu.Unlock()
		return false, nil
	}
	if stored {
		// Log before apply, under the register lock: the WAL's per-key
		// record order is the apply order, and with FsyncAlways the
		// mutation is on disk before anyone can observe it applied.
		if s.dur != nil {
			if err := s.dur.logMutation(op, key, t, elem, vlen, wait); err != nil {
				r.mu.Unlock()
				return false, err
			}
		}
		r.store(t, elem, vlen)
	}
	var sinks []func(Delivery)
	for i := range r.readers {
		if !t.Less(r.readers[i].treq) {
			sinks = append(sinks, r.readers[i].sink)
		}
	}
	if len(sinks) == 0 {
		r.mu.Unlock()
		return stored, nil
	}
	own := r.elem
	if stored {
		r.lent = true
	} else {
		own = slices.Clone(elem)
	}
	r.mu.Unlock()
	s.relay(sinks, t, own, vlen)
	return stored, nil
}

// putOwned is put for a put-data whose elem the caller gives away (see
// handoff): storing is a pointer swap (register.adopt), and nothing is
// copied on any path. The buffer the swap displaces goes to the element
// free list if nobody can be reading it and is otherwise left to the
// GC, like the buffer a borrowed put replaces. A rejected elem is
// relayed as it is, or freed. wait is put's; errNotNow leaves elem the
// caller's.
func (s *Server) putOwned(key string, t Tag, elem []byte, vlen int, wait bool) error {
	r := s.hold(key, wait)
	if r == nil {
		return errNotNow
	}
	stored := r.tag.Less(t)
	var displaced []byte
	if stored {
		if s.dur != nil {
			if err := s.dur.logMutation(walOpPut, key, t, elem, vlen, wait); err != nil {
				r.mu.Unlock()
				if err != errNotNow {
					putElem(elem)
				}
				return err
			}
		}
		displaced = r.adopt(t, elem, vlen)
	}
	var sinks []func(Delivery)
	for i := range r.readers {
		if !t.Less(r.readers[i].treq) {
			sinks = append(sinks, r.readers[i].sink)
		}
	}
	if len(sinks) == 0 {
		r.mu.Unlock()
		// The buffer nobody holds once this put is done: the one the
		// register gave up, last written a whole write ago, or the
		// rejected elem, which its writer has only just filled.
		if stored {
			putDisplaced(displaced)
		} else {
			putElem(elem)
		}
		return nil
	}
	// elem goes out on the relay: lent if it is now the register's,
	// the sinks' to drop if it was rejected. Nothing is freed — a sink
	// implies a registered reader, so adopt displaced nothing.
	r.lent = r.lent || stored
	r.mu.Unlock()
	s.relay(sinks, t, elem, vlen)
	return nil
}

// relay hands (t, elem, vlen) to sinks, outside every lock.
func (s *Server) relay(sinks []func(Delivery), t Tag, elem []byte, vlen int) {
	s.metrics.relays.Add(uint64(len(sinks)))
	d := Delivery{Server: s.idx, Tag: t, Elem: elem, VLen: vlen, Epoch: s.epochSt.Load().epoch}
	for _, sink := range sinks {
		sink(d)
	}
}

// PutData answers the writer's second phase: store (t, elem) under key
// if t is new, and relay it to every reader registered on the key
// whose registration tag it satisfies — including readers that arrived
// after a newer write. elem is borrowed for the call: the server copies
// what it keeps.
func (s *Server) PutData(key string, t Tag, elem []byte, vlen int) {
	s.putData(key, t, elem, vlen)
}

// putData is PutData for the transports, which must not ack a put the
// server refused (ErrServerDown: its WAL is closed).
func (s *Server) putData(key string, t Tag, elem []byte, vlen int) error {
	s.metrics.of(key).putDatas.Add(1)
	_, err := s.put(walOpPut, key, t, elem, vlen, true)
	return err
}

// RepairPut answers the Repairer's install: accept (t, elem, vlen)
// under key iff t >= the key's current tag, reporting whether it was
// installed. The >= (vs PutData's strict >) is the point of the
// message: repair may lay down a fresh copy of the element the server
// already claims to hold, overwriting rotten storage, but it can never
// roll the server's tag backwards — that invariant is what keeps a
// previously returned tag's holder count from shrinking, which the
// reader's f < k atomicity argument depends on. An accepted repair
// relays to the key's registered readers exactly like a put-data, so a
// reader that registered while the server was catching up still sees
// the element it is waiting for. elem is borrowed, as in PutData.
func (s *Server) RepairPut(key string, t Tag, elem []byte, vlen int) bool {
	installed, _ := s.repairPut(key, t, elem, vlen)
	return installed
}

// repairPut is RepairPut for the transports; the error is putData's.
func (s *Server) repairPut(key string, t Tag, elem []byte, vlen int) (bool, error) {
	s.metrics.repairPuts.Add(1)
	// A zero-tag repair of an absent key installs the state the key
	// already has; succeed without materializing a register.
	installed, err := t == (Tag{}) && s.lookup(key, false) == nil, error(nil)
	if !installed {
		installed, err = s.put(walOpRepair, key, t, elem, vlen, true)
	}
	if installed {
		s.metrics.repairInstalls.Add(1)
	}
	return installed, err
}

// Wipe clears key's stored element, modeling a server that restarts
// after losing its disk: the key rejoins with the initial (zero-tag,
// empty) state and relies on repair to regenerate its coded element.
// Registrations are untouched — fail-stop transports already dropped
// them at crash time — and a register left with neither state nor
// readers is collected.
func (s *Server) Wipe(key string) {
	r := s.lookup(key, false)
	if r == nil {
		return
	}
	r.mu.Lock()
	if s.dur != nil && r.tag != (Tag{}) {
		s.dur.logMutation(walOpWipe, key, Tag{}, nil, 0, true)
	}
	r.tag, r.elem, r.vlen = Tag{}, nil, 0
	r.mu.Unlock()
	s.collect(key)
}

// WipeAll clears the whole disk: every register goes, including the
// zero-tag ones Keys() never reports, and every registration with
// them — a wholesale-replaced server holds nothing and relays to
// nobody. (Iterating Keys() here would sweep only written keys,
// leaving unwritten registers pinned by stale registrations; the
// sweep walks the shards directly instead.)
func (s *Server) WipeAll() {
	var dropped uint64
	var removed uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for key, r := range sh.regs {
			r.mu.Lock()
			if s.dur != nil && r.tag != (Tag{}) {
				s.dur.logMutation(walOpWipe, key, Tag{}, nil, 0, true)
			}
			r.tag, r.elem, r.vlen, r.gone = Tag{}, nil, 0, true
			dropped += uint64(len(r.readers))
			clear(r.readers) // zero the entries so sink references drop
			r.readers = r.readers[:0]
			r.mu.Unlock()
			delete(sh.regs, key)
			removed++
		}
		sh.mu.Unlock()
	}
	s.metrics.hot[0].regGCs.Add(dropped) // any stripe: Snapshot sums them
	s.metrics.registerGCs.Add(removed)
}

// Keys returns the ascending keys that currently hold a written
// (nonzero-tag) element — the namespace a Repairer must heal.
func (s *Server) Keys() []string {
	var keys []string
	s.metrics.keyLists.Add(1)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for key, r := range sh.regs {
			r.mu.Lock()
			written := r.tag != Tag{}
			r.mu.Unlock()
			if written {
				keys = append(keys, key)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(keys)
	return keys
}

// Register answers a reader's get-data on key: record (reader, current
// tag) in the key's registration set and return the current state as
// the initial delivery. The caller (transport) delivers the returned
// snapshot and every subsequent sink invocation until Unregister.
func (s *Server) Register(key, readerID string, sink func(Delivery)) Delivery {
	s.metrics.of(key).getDatas.Add(1)
	r := s.hold(key, true)
	defer r.mu.Unlock()
	for i := range r.readers {
		if r.readers[i].reader == readerID {
			// Re-registration (a read retrying after a transient failure)
			// must not raise treq: the server's tag may have moved past
			// the read's target since the first registration, and a treq
			// above the target would filter out exactly the relay the
			// read is waiting for. Keep min(existing treq, current tag) —
			// the tag only drops below an old treq after a wipe, where
			// the current tag is the honest floor.
			treq := r.readers[i].treq
			if r.tag.Less(treq) {
				treq = r.tag
			}
			r.readers[i] = registration{reader: readerID, treq: treq, sink: sink}
			return Delivery{Server: s.idx, Tag: r.tag, Elem: r.elem, VLen: r.vlen, Initial: true, Epoch: s.epochSt.Load().epoch}
		}
	}
	r.readers = append(r.readers, registration{reader: readerID, treq: r.tag, sink: sink})
	return Delivery{Server: s.idx, Tag: r.tag, Elem: r.elem, VLen: r.vlen, Initial: true, Epoch: s.epochSt.Load().epoch}
}

// Unregister drops a reader's registration on key (reader-done, or its
// connection closing), collecting the register if nothing is left. The
// collect is attempted only when the register looked dead under its
// own lock — the common unregister, on a written key, never touches
// the shard-exclusive lock. Unregistering is the reader's promise that
// it has stopped reading every element it was handed.
func (s *Server) Unregister(key, readerID string) { s.unregister(key, readerID, false) }

// unregister with forced set drops a reader that made no such promise
// (its stream died under it): the buffer it may hold is marked lent.
func (s *Server) unregister(key, readerID string, forced bool) {
	r := s.lookup(key, false)
	if r == nil {
		return
	}
	had, dead := false, false
	r.mu.Lock()
	for i := range r.readers {
		if r.readers[i].reader == readerID {
			last := len(r.readers) - 1
			r.readers[i] = r.readers[last]
			r.readers[last] = registration{} // drop the sink reference
			r.readers = r.readers[:last]
			had = true
			r.lent = r.lent || forced
			break
		}
	}
	dead = r.tag == (Tag{}) && len(r.readers) == 0
	r.mu.Unlock()
	if had {
		s.metrics.of(key).regGCs.Add(1)
		if dead {
			s.collect(key)
		}
	}
}

// UnregisterAll drops every registration on every key; a crashing
// server relays to nobody. Dropped readers may still be reading what
// they were handed: their buffers are marked lent.
func (s *Server) UnregisterAll() {
	var emptied []string
	var dropped uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for key, r := range sh.regs {
			r.mu.Lock()
			dropped += uint64(len(r.readers))
			r.lent = r.lent || len(r.readers) > 0
			clear(r.readers) // zero the entries so sink references drop
			r.readers = r.readers[:0]
			if r.tag == (Tag{}) {
				emptied = append(emptied, key)
			}
			r.mu.Unlock()
		}
		sh.mu.RUnlock()
	}
	s.metrics.hot[0].regGCs.Add(dropped) // any stripe: Snapshot sums them
	for _, key := range emptied {
		s.collect(key)
	}
}

// Readers returns the number of readers registered on key
// (test/metrics visibility).
func (s *Server) Readers(key string) int {
	r := s.lookup(key, false)
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.readers)
}

// Snapshot returns key's stored tag, coded element, and value length.
// The element is the server's live buffer, which a put may overwrite
// in place: while puts run only its length and presence mean anything,
// and callers must never mutate it (getElem copies).
func (s *Server) Snapshot(key string) (Tag, []byte, int) {
	r := s.lookup(key, false)
	if r == nil {
		return Tag{}, nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tag, r.elem, r.vlen
}

// getElem serves get-elem: key's state with the element copied out
// under the register lock, so it always matches the tag beside it.
func (s *Server) getElem(key string) (Tag, []byte, int) {
	s.metrics.getElems.Add(1)
	r := s.lookup(key, false)
	if r == nil {
		return Tag{}, nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tag, slices.Clone(r.elem), r.vlen
}

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

// registration is one registered reader: who it delivers to plus the tag
// the server held when the reader arrived. Only puts with tag >= treq
// are relayed — older writes cannot be what this reader is waiting
// for, because its target tag is the maximum over a quorum of such
// registration tags.
type registration struct {
	reader string
	treq   Tag
	to     registrant
}

// registrant is the transport's side of a registration: deliver takes the
// initial state and every relay, and end is told, once, that the server
// dropped the registration itself — an epoch transition, a crash, a hang —
// with the cause, nil for an end the reader is not to count as a lost
// server. Whoever removes a registration from its register owns its end: a
// reader that unregisters is told nothing.
type registrant interface {
	deliver(Delivery)
	end(cause error)
}

// sinkFunc is the registrant of the exported Register: a relay sink, told
// nothing of its end.
type sinkFunc func(Delivery)

func (f sinkFunc) deliver(d Delivery) { f(d) }
func (sinkFunc) end(error)            {}

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

// accepts is the accept rule of put and of WAL replay: t above the key's
// tag, or for a repair also equal to it. Caller holds r.mu.
func (r *register) accepts(op byte, t Tag) bool {
	return r.tag.Less(t) || (op == walOpRepair && r.tag == t)
}

// dropReaders empties the reader set onto ends, for the caller to end once
// it holds no lock. Caller holds r.mu.
func (r *register) dropReaders(ends []registrant) []registrant {
	for i := range r.readers {
		ends = append(ends, r.readers[i].to)
	}
	clear(r.readers) // zero the entries so registrant references drop
	r.readers = r.readers[:0]
	return ends
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
// concurrent use; registrants are invoked outside all register locks.
type Server struct {
	idx     int
	metrics Metrics
	dur     *durability // nil for a memory-only server
	shards  [serverShardCount]serverShard

	// Configuration-epoch state. epochSt is read lock-free on every
	// admission check and every get-data; transitions serialize on
	// epochMu, and each ends every registration it finds (see
	// transitionLocked).
	epochSt atomic.Pointer[epochState]
	epochMu sync.Mutex
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
	// frozen is the epoch a coordinator is about to seal for
	// (reconfigFreeze), 0 if none: get-tag is refused. In memory only
	// (neither logged nor snapshotted); a rebooted node is unfrozen.
	frozen uint64
}

// opClass buckets wire operations for epoch admission.
type opClass int

const (
	opClient opClass = iota // put-data, get-data: full service only
	opMint                  // get-tag: full service, and no seal announced
	opDonor                 // get-elem, keys: served while sealed (migration donors)
	opRepair                // repair-put: active epoch, or pending epoch while sealed
	opExempt                // reconfig, reader-done: never put to admit (one moves the epoch, one outlives it)
)

// NewServer returns the state machine for the server holding codeword
// shard idx.
func NewServer(idx int) *Server {
	s := &Server{idx: idx}
	s.epochSt.Store(&epochState{})
	for i := range s.shards {
		s.shards[i].regs = make(map[string]*register)
	}
	return s
}

// Index returns the server's shard index in the code geometry.
func (s *Server) Index() int { return s.idx }

// Metrics returns the server's live counters, read without a lock;
// MetricsSnapshot adds the namespace gauges, which take the shard locks.
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

// admit checks a frame's configuration epoch against the server's
// state for the given operation class, returning the typed NACK the
// transport must send when they disagree. Client operations require
// the active epoch unsealed; donor reads (get-elem, keys) are served
// while sealed so migration can drain the frozen state; repair
// installs are accepted at the active epoch or, while sealed, at the
// pending epoch — that is the migration path laying down re-encoded
// elements before activation.
func (s *Server) admit(class opClass, epoch uint64) *StaleEpochError {
	st := s.epochSt.Load()
	switch class {
	case opClient:
		if epoch == st.epoch && !st.sealed {
			return nil
		}
	case opMint:
		if epoch == st.epoch && !st.sealed && st.frozen == 0 {
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
	s.metrics.unkeyed().EpochNacks.Add(1)
	want, sealed := st.epoch, st.sealed
	if sealed {
		want = st.pending
	} else if st.frozen != 0 && epoch == st.epoch {
		want, sealed = st.frozen, true // as the seal on its way will answer
	}
	if epoch > want {
		// The client is ahead of us (it saw an activation we have not):
		// it should keep its epoch and retry once we catch up.
		want = epoch
	}
	return &StaleEpochError{Server: s.idx, ServerEpoch: st.epoch, Want: want, Sealed: sealed}
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
	case reconfigFreeze:
		if st.epoch < target && !st.sealed && st.frozen < target {
			next := *st
			next.frozen = target
			s.epochSt.Store(&next)
		}
	case ReconfigSeal:
		if st.epoch >= target || (st.sealed && st.pending == target) {
			// Already sealed for (or past) the target: a retry, not a
			// conflict.
			return s.EpochStatus(), nil
		}
		if st.sealed {
			return s.EpochStatus(), fmt.Errorf("soda: server %d: seal for epoch %d conflicts with pending flip to %d", s.idx, target, st.pending)
		}
		next := &epochState{epoch: st.epoch, n: st.n, k: st.k, sealed: true, pending: target, pn: n, pk: k}
		if !s.transitionLocked(next) {
			return s.EpochStatus(), ErrServerDown
		}
	case ReconfigActivate:
		if st.epoch >= target {
			return s.EpochStatus(), nil
		}
		if !st.sealed || st.pending != target {
			return s.EpochStatus(), fmt.Errorf("soda: server %d: activate epoch %d without matching seal (sealed=%v pending=%d)", s.idx, target, st.sealed, st.pending)
		}
		next := &epochState{epoch: target, n: n, k: k}
		if !s.transitionLocked(next) {
			return s.EpochStatus(), ErrServerDown
		}
	default:
		return s.EpochStatus(), fmt.Errorf("soda: server %d: unknown reconfig op %d", s.idx, op)
	}
	return s.EpochStatus(), nil
}

// transitionLocked logs and applies one epoch transition, then ends every
// registration. Caller holds epochMu. It reports false, with nothing
// applied, when the WAL is closed under the server (power cut, Close):
// memory must not move to an epoch the disk will not remember.
func (s *Server) transitionLocked(next *epochState) bool {
	if s.dur != nil && !s.dur.logEpoch(next) {
		return false
	}
	s.epochSt.Store(next)
	s.metrics.unkeyed().EpochFlips.Add(1)
	// Registered readers belong to the configuration they registered
	// under; the flip ends each with the NACK a get-data would get now, so
	// that its reader re-registers under the new epoch. The state is
	// published first: a get-data that registers after the sweep fails the
	// admission re-check its transport makes after registering.
	want := next.epoch
	if next.sealed {
		want = next.pending
	}
	s.dropAll(&StaleEpochError{Server: s.idx, ServerEpoch: next.epoch, Want: want, Sealed: next.sealed})
	return true
}

// installEpochState restores epoch state during recovery replay,
// without logging (the record being replayed is the log).
func (s *Server) installEpochState(next *epochState) {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	s.epochSt.Store(next)
}

// shardOf hashes a key onto its stripe.
func (s *Server) shardOf(key string) *serverShard {
	return &s.shards[keyHash(key)&(serverShardCount-1)]
}

// keyHash is FNV-1a, inlined to keep every striped lookup — namespace
// shard, counter stripe, writer lock — allocation-free.
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
		s.metrics.of(key).RegisterGCs.Add(1)
	}
}

// GetTag answers the writer's first phase: the highest tag stored
// under key. A never-written key is the zero tag and does not cost a
// register.
func (s *Server) GetTag(key string) Tag {
	s.metrics.of(key).GetTags.Add(1)
	r := s.lookup(key, false)
	if r == nil {
		return Tag{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tag
}

// put is the one put body, under PutData, RepairPut and loopConn's
// put-data: accept (t, elem, vlen) iff register.accepts, log it before
// applying it, and relay it to every registered reader whose treq it
// satisfies (a rejected put-data still relays; a rejected repair does
// nothing). On a server whose WAL was closed under it (power cut, Close)
// an accepted put fails with ErrServerDown before it stores or relays
// anything: memory must not get ahead of a disk that can no longer follow.
// wait is how the caller takes the register lock and the log: parked
// behind their holders, or — a writer running its own put-data pass — not
// at all, and then a busy one answers errNotNow with nothing logged,
// stored or relayed, and elem still the caller's.
//
// owned is whether elem is the server's from the call on: handoff(len(elem))
// on a loopConn, never on a NetServer, which borrows its frame. A borrowed
// elem is copied in (register.store) and relayed as the stored buffer,
// marked lent (a sink can outlive its registration by one call), or as a
// private clone. An owned one is installed (register.adopt) and relayed as
// it is; the buffer it displaced, or a rejected one no sink took, goes to
// the element free list.
func (s *Server) put(op byte, key string, t Tag, elem []byte, vlen int, wait, owned bool) (bool, error) {
	r := s.hold(key, wait)
	if r == nil {
		return false, errNotNow
	}
	stored := r.accepts(op, t)
	if !stored && op == walOpRepair {
		r.mu.Unlock()
		return false, nil
	}
	var displaced []byte
	if stored {
		// Log before apply, under the register lock: the WAL's per-key
		// record order is the apply order, and the mutation is on disk
		// before anyone can observe it applied.
		if s.dur != nil {
			if err := s.dur.logMutation(op, key, t, elem, vlen, wait); err != nil {
				r.mu.Unlock()
				if owned && err != errNotNow {
					putElem(elem)
				}
				return false, err
			}
		}
		if owned {
			displaced = r.adopt(t, elem, vlen)
		} else {
			r.store(t, elem, vlen)
		}
	}
	var sinks []registrant
	for i := range r.readers {
		if !t.Less(r.readers[i].treq) {
			sinks = append(sinks, r.readers[i].to)
		}
	}
	if len(sinks) == 0 {
		r.mu.Unlock()
		// The buffer nobody holds once an owned put is done: the one the
		// register gave up, last written a whole write ago, or the
		// rejected elem, which its writer has only just filled.
		if owned && stored {
			putDisplaced(displaced)
		} else if owned {
			putElem(elem)
		}
		return stored, nil
	}
	// A sink implies a registered reader, so adopt displaced nothing.
	own := elem
	if stored {
		own, r.lent = r.elem, true
	} else if !owned {
		own = slices.Clone(elem)
	}
	r.mu.Unlock()
	s.relay(sinks, t, own, vlen)
	return stored, nil
}

// relay hands (t, elem, vlen) to sinks, outside every lock.
func (s *Server) relay(sinks []registrant, t Tag, elem []byte, vlen int) {
	s.metrics.unkeyed().Relays.Add(uint64(len(sinks)))
	d := Delivery{Server: s.idx, Tag: t, Elem: elem, VLen: vlen, Epoch: s.epochSt.Load().epoch}
	for _, to := range sinks {
		to.deliver(d)
	}
}

// PutData answers the writer's second phase (the message table's put-data
// handler): store (t, elem) under key if t is new, and relay it to every
// reader registered on the key whose registration tag it satisfies —
// including readers that arrived after a newer write. elem is borrowed:
// put, with owned unset, copies what it keeps. A put the server refused
// (ErrServerDown: its WAL is closed) must not be acked.
func (s *Server) PutData(key string, t Tag, elem []byte, vlen int) error {
	s.metrics.of(key).PutDatas.Add(1)
	_, err := s.put(walOpPut, key, t, elem, vlen, true, false)
	return err
}

// RepairPut answers the Repairer's install (the message table's
// repair-put handler): accept (t, elem, vlen) under key iff t >= the key's
// current tag, reporting whether it was installed. The >= (vs PutData's
// strict >) is the point of the message: repair may lay down a fresh copy
// of the element the server already claims to hold, overwriting rotten
// storage, but it can never roll the server's tag backwards — that
// invariant is what keeps a previously returned tag's holder count from
// shrinking, which the reader's f < k atomicity argument depends on. It is
// PutData's put body, so an accepted repair relays to the key's readers
// exactly like a put-data. elem is borrowed; the error is PutData's.
func (s *Server) RepairPut(key string, t Tag, elem []byte, vlen int) (bool, error) {
	s.metrics.of(key).RepairPuts.Add(1)
	// A zero-tag repair of an absent key installs the state the key
	// already has; succeed without materializing a register.
	installed, err := t == (Tag{}) && s.lookup(key, false) == nil, error(nil)
	if !installed {
		installed, err = s.put(walOpRepair, key, t, elem, vlen, true, false)
	}
	if installed {
		s.metrics.of(key).RepairInstalls.Add(1)
	}
	return installed, err
}

// Keys returns the ascending keys that currently hold a written
// (nonzero-tag) element — the namespace a Repairer must heal.
func (s *Server) Keys() []string {
	var keys []string
	s.metrics.unkeyed().KeyLists.Add(1)
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
	return s.register(key, readerID, sinkFunc(sink))
}

// register is Register for the transports, whose registrant is told of the
// registration's end.
func (s *Server) register(key, readerID string, to registrant) Delivery {
	s.metrics.of(key).GetDatas.Add(1)
	r := s.hold(key, true)
	d := Delivery{Server: s.idx, Tag: r.tag, Elem: r.elem, VLen: r.vlen, Initial: true, Epoch: s.epochSt.Load().epoch}
	for i := range r.readers {
		if r.readers[i].reader == readerID {
			// Re-registration (a read retrying after a transient failure)
			// must not raise treq: the server's tag may have moved past
			// the read's target since the first registration, and a treq
			// above the target would filter out exactly the relay the
			// read is waiting for. The registration it replaces ends,
			// silently.
			old := r.readers[i].to
			r.readers[i] = registration{reader: readerID, treq: r.readers[i].treq, to: to}
			r.mu.Unlock()
			s.metrics.of(key).RegGCs.Add(1)
			old.end(nil)
			return d
		}
	}
	r.readers = append(r.readers, registration{reader: readerID, treq: r.tag, to: to})
	r.mu.Unlock()
	return d
}

// Unregister drops a reader's registration on key (reader-done, or its
// connection closing), collecting the register if nothing is left. The
// collect is attempted only when the register looked dead under its
// own lock — the common unregister, on a written key, never touches
// the shard-exclusive lock. Unregistering is the reader's promise that
// it has stopped reading every element it was handed.
func (s *Server) Unregister(key, readerID string) { s.unregister(key, readerID, false) }

// unregister with forced set drops a reader that made no such promise
// (its stream died under it): the buffer it may hold is marked lent. It
// reports whether it removed the registration, and so owns its end.
func (s *Server) unregister(key, readerID string, forced bool) bool {
	r := s.lookup(key, false)
	if r == nil {
		return false
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
		s.metrics.of(key).RegGCs.Add(1)
		if dead {
			s.collect(key)
		}
	}
	return had
}

// dropAll drops every registration on every key and then, outside every
// lock, ends each with cause — nil for a server that goes silent, as a
// hung one does. Dropped readers may still be reading what they were
// handed: their buffers are marked lent.
func (s *Server) dropAll(cause error) {
	var emptied []string
	var ends []registrant
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for key, r := range sh.regs {
			r.mu.Lock()
			r.lent = r.lent || len(r.readers) > 0
			ends = r.dropReaders(ends)
			if r.tag == (Tag{}) {
				emptied = append(emptied, key)
			}
			r.mu.Unlock()
		}
		sh.mu.RUnlock()
	}
	s.metrics.unkeyed().RegGCs.Add(uint64(len(ends)))
	for _, key := range emptied {
		s.collect(key)
	}
	for _, to := range ends {
		to.end(cause)
	}
}

// readerCount returns the number of readers registered on key.
func (s *Server) readerCount(key string) int {
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
	s.metrics.of(key).GetElems.Add(1)
	r := s.lookup(key, false)
	if r == nil {
		return Tag{}, nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tag, slices.Clone(r.elem), r.vlen
}

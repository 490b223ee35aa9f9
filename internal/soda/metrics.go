package soda

import (
	"reflect"
	"sync/atomic"
	"unsafe"
)

// counters is the one list of server counters: Metrics holds it as
// atomics, MetricsSnapshot as plain numbers, and Snapshot and Add walk
// its fields, so a new counter is one line here. The four every client
// operation bumps come first, on each stripe's first cache line.
type counters[T any] struct {
	GetTags        T // get-tag requests served
	PutDatas       T // put-data requests served
	GetDatas       T // reader registrations opened (get-data)
	RegGCs         T // reader registrations ended (reader-done, dropped, or replaced)
	GetElems       T // repair collections served (get-elem)
	KeyLists       T // key enumerations served
	RepairPuts     T // repair-put requests served
	RepairInstalls T // repair-puts that actually installed
	Relays         T // deliveries relayed to registered readers
	RelayDrops     T // deliveries dropped on relay-queue overflow
	RegisterGCs    T // empty registers removed from the namespace
	WALAppends     T // mutations appended to the write-ahead log
	WALFailures    T // WAL appends lost to disk errors (degraded durability)
	WALTornDrops   T // torn/corrupt records truncated at recovery
	Snapshots      T // namespace snapshots written (with log truncation)
	Recoveries     T // times this state was rebuilt from snapshot+WAL
	EpochNacks     T // frames rejected for carrying the wrong configuration epoch
	EpochFlips     T // epoch transitions applied (seals + activations)
	WALGroupSyncs  T // fsyncs that covered more than one FsyncAlways append
}

// Metrics is a dependency-free set of monotonic server counters,
// incremented on the state-machine hot paths with atomics so both
// transports (loopback and TCP) count identically and nothing ever
// takes a lock to observe. Read it with Snapshot, which sums the
// stripes.
type Metrics struct {
	stripes [serverShardCount]stripe
}

// stripe is one copy of the counters, striped by key like the namespace
// and padded to whole cache lines, so that operations on different keys
// do not write the same line 2n times per op (with all 19 counters on
// three shared lines they did: loop-small write p50 +4 %, see ROADMAP).
type stripe struct {
	counters[atomic.Uint64]
	_ [(64 - unsafe.Sizeof(counters[atomic.Uint64]{})%64) % 64]byte
}

// of returns key's stripe; a counter with no key in scope counts on
// unkeyed's, stripe 0.
func (m *Metrics) of(key string) *counters[atomic.Uint64] {
	return &m.stripes[keyHash(key)&(serverShardCount-1)].counters
}
func (m *Metrics) unkeyed() *counters[atomic.Uint64] { return &m.stripes[0].counters }

// MetricsSnapshot is one consistent-enough picture of a server's
// counters plus the current namespace gauges. Counters are monotonic;
// gauges are instantaneous.
type MetricsSnapshot struct {
	counters[uint64]
	WALSyncNanos  uint64 // gauge: how long the last timed WAL fsync took (1 in 64 is) — what decides whether a loopback writer logs its put-datas itself or sends legs
	Registers     uint64 // gauge: registers currently in the namespace
	Registrations uint64 // gauge: reader registrations currently held
}

// Snapshot reads every counter. Gauge fields are zero here; Server's
// MetricsSnapshot fills them from the shard maps.
func (m *Metrics) Snapshot() MetricsSnapshot {
	var snap MetricsSnapshot
	sum := reflect.ValueOf(&snap.counters).Elem()
	for i := range m.stripes {
		st := reflect.ValueOf(&m.stripes[i].counters).Elem()
		for j := range sum.NumField() {
			n := st.Field(j).Addr().Interface().(*atomic.Uint64).Load()
			sum.Field(j).SetUint(sum.Field(j).Uint() + n)
		}
	}
	return snap
}

// Add accumulates another snapshot into s, so a harness can report one
// cluster-wide line instead of n per-server ones. Gauges add too: the
// sum is "registers held across the cluster", which for an n-way
// replicated namespace is n× the key count. The sync sample does not: a
// cluster's is its slowest log's.
func (s *MetricsSnapshot) Add(o MetricsSnapshot) {
	sum, add := reflect.ValueOf(&s.counters).Elem(), reflect.ValueOf(o.counters)
	for j := range sum.NumField() {
		sum.Field(j).SetUint(sum.Field(j).Uint() + add.Field(j).Uint())
	}
	s.WALSyncNanos = max(s.WALSyncNanos, o.WALSyncNanos)
	s.Registers += o.Registers
	s.Registrations += o.Registrations
}

package soda

import "sync/atomic"

// Metrics is a dependency-free set of monotonic server counters,
// incremented on the state-machine hot paths with atomics so both
// transports (loopback and TCP) count identically and nothing ever
// takes a lock to observe. Read it with Snapshot, which sums the
// stripes of the four counters every client operation bumps.
type Metrics struct {
	hot            [serverShardCount]hotCounters
	getElems       atomic.Uint64
	keyLists       atomic.Uint64
	repairPuts     atomic.Uint64
	repairInstalls atomic.Uint64
	relays         atomic.Uint64
	relayDrops     atomic.Uint64
	registerGCs    atomic.Uint64
	walAppends     atomic.Uint64
	walFailures    atomic.Uint64
	walTornDrops   atomic.Uint64
	snapshots      atomic.Uint64
	recoveries     atomic.Uint64
	epochNacks     atomic.Uint64
	epochFlips     atomic.Uint64
	walGroupSyncs  atomic.Uint64
}

// hotCounters is one stripe of those four: striped by key like the
// namespace, one stripe to a cache line, so that operations on different
// keys do not write the same line 2n times per op (with all 19 counters
// on three lines they did: loop-small write p50 +4 %, see ROADMAP).
type hotCounters struct {
	getTags, putDatas, getDatas, regGCs atomic.Uint64
	_                                   [32]byte
}

func (m *Metrics) of(key string) *hotCounters { return &m.hot[keyHash(key)&(serverShardCount-1)] }

// MetricsSnapshot is one consistent-enough picture of a server's
// counters plus the current namespace gauges. Counters are monotonic;
// gauges are instantaneous.
type MetricsSnapshot struct {
	GetTags        uint64 // get-tag requests served
	PutDatas       uint64 // put-data requests served
	GetDatas       uint64 // reader registrations opened (get-data)
	GetElems       uint64 // repair collections served (get-elem)
	KeyLists       uint64 // key enumerations served
	RepairPuts     uint64 // repair-put requests served
	RepairInstalls uint64 // repair-puts that actually installed
	Relays         uint64 // deliveries relayed to registered readers
	RelayDrops     uint64 // deliveries dropped on relay-queue overflow
	RegGCs         uint64 // reader registrations garbage-collected
	RegisterGCs    uint64 // empty registers removed from the namespace
	WALAppends     uint64 // mutations appended to the write-ahead log
	WALFailures    uint64 // WAL appends lost to disk errors (degraded durability)
	WALTornDrops   uint64 // torn/corrupt records truncated at recovery
	Snapshots      uint64 // namespace snapshots written (with log truncation)
	Recoveries     uint64 // times this state was rebuilt from snapshot+WAL
	EpochNacks     uint64 // frames rejected for carrying the wrong configuration epoch
	EpochFlips     uint64 // epoch transitions applied (seals + activations)
	WALGroupSyncs  uint64 // fsyncs that covered more than one FsyncAlways append
	WALSyncNanos   uint64 // gauge: how long the last timed WAL fsync took (1 in 64 is) — what decides whether a loopback writer logs its put-datas itself or sends legs
	Registers      uint64 // gauge: registers currently in the namespace
	Registrations  uint64 // gauge: reader registrations currently held
}

// Snapshot reads every counter. Gauge fields are zero here; Server's
// MetricsSnapshot fills them from the shard maps.
func (m *Metrics) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		GetElems:       m.getElems.Load(),
		KeyLists:       m.keyLists.Load(),
		RepairPuts:     m.repairPuts.Load(),
		RepairInstalls: m.repairInstalls.Load(),
		Relays:         m.relays.Load(),
		RelayDrops:     m.relayDrops.Load(),
		RegisterGCs:    m.registerGCs.Load(),
		WALAppends:     m.walAppends.Load(),
		WALFailures:    m.walFailures.Load(),
		WALTornDrops:   m.walTornDrops.Load(),
		Snapshots:      m.snapshots.Load(),
		Recoveries:     m.recoveries.Load(),
		EpochNacks:     m.epochNacks.Load(),
		EpochFlips:     m.epochFlips.Load(),
		WALGroupSyncs:  m.walGroupSyncs.Load(),
	}
	for i := range m.hot {
		h := &m.hot[i]
		snap.GetTags += h.getTags.Load()
		snap.PutDatas += h.putDatas.Load()
		snap.GetDatas += h.getDatas.Load()
		snap.RegGCs += h.regGCs.Load()
	}
	return snap
}

// Add accumulates another snapshot into s, so a harness can report one
// cluster-wide line instead of n per-server ones. Gauges add too: the
// sum is "registers held across the cluster", which for an n-way
// replicated namespace is n× the key count. The sync sample does not: a
// cluster's is its slowest log's.
func (s *MetricsSnapshot) Add(o MetricsSnapshot) {
	s.GetTags += o.GetTags
	s.PutDatas += o.PutDatas
	s.GetDatas += o.GetDatas
	s.GetElems += o.GetElems
	s.KeyLists += o.KeyLists
	s.RepairPuts += o.RepairPuts
	s.RepairInstalls += o.RepairInstalls
	s.Relays += o.Relays
	s.RelayDrops += o.RelayDrops
	s.RegGCs += o.RegGCs
	s.RegisterGCs += o.RegisterGCs
	s.WALAppends += o.WALAppends
	s.WALFailures += o.WALFailures
	s.WALTornDrops += o.WALTornDrops
	s.Snapshots += o.Snapshots
	s.Recoveries += o.Recoveries
	s.EpochNacks += o.EpochNacks
	s.EpochFlips += o.EpochFlips
	s.WALGroupSyncs += o.WALGroupSyncs
	s.WALSyncNanos = max(s.WALSyncNanos, o.WALSyncNanos)
	s.Registers += o.Registers
	s.Registrations += o.Registrations
}

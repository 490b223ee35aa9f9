package soda

import (
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// TestMetricsSumEveryCounter walks the counter list, so a counter added
// later is covered as it is: each one, bumped on two keys' stripes and on
// the unkeyed one, must come out of Snapshot as the sum, in its own field
// only; and Add must sum every counter and gauge but keep the larger
// fsync sample.
func TestMetricsSumEveryCounter(t *testing.T) {
	var m0 Metrics
	var keys []string // two keys on different stripes, neither the unkeyed one
	for i := 0; len(keys) < 2; i++ {
		k := "k" + strconv.Itoa(i)
		if c := m0.of(k); c != m0.unkeyed() && (len(keys) == 0 || c != m0.of(keys[0])) {
			keys = append(keys, k)
		}
	}
	bump := func(c *counters[atomic.Uint64], j int, n uint64) {
		reflect.ValueOf(c).Elem().Field(j).Addr().Interface().(*atomic.Uint64).Add(n)
	}
	list := reflect.TypeOf(counters[uint64]{})
	for j := range list.NumField() {
		var m Metrics
		bump(m.of(keys[0]), j, 1)
		bump(m.of(keys[1]), j, 2)
		bump(m.unkeyed(), j, 4)
		want := MetricsSnapshot{}
		reflect.ValueOf(&want.counters).Elem().Field(j).SetUint(7)
		if got := m.Snapshot(); got != want {
			t.Errorf("%s bumped 1+2+4: Snapshot = %+v, want %+v", list.Field(j).Name, got, want)
		}
	}

	var a, b, want MetricsSnapshot
	av, bv, wv := reflect.ValueOf(&a.counters).Elem(), reflect.ValueOf(&b.counters).Elem(), reflect.ValueOf(&want.counters).Elem()
	for j := range list.NumField() {
		av.Field(j).SetUint(uint64(j + 1))
		bv.Field(j).SetUint(uint64(100 * (j + 1)))
		wv.Field(j).SetUint(uint64(101 * (j + 1)))
	}
	a.Registers, b.Registers, want.Registers = 1, 2, 3
	a.Registrations, b.Registrations, want.Registrations = 3, 4, 7
	a.WALSyncNanos, b.WALSyncNanos, want.WALSyncNanos = 9, 5, 9
	b2 := b
	b2.Add(a)
	if a.Add(b); a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
	if b2 != want {
		t.Errorf("Add the other way round = %+v, want %+v", b2, want)
	}
}

// TestWALSyncGauge: a durable server's WALSyncNanos is its log's last
// timed fsync, as the log's clock measured it.
func TestWALSyncGauge(t *testing.T) {
	s, err := NewDurableServer(0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const d = 7 * time.Microsecond
	setSyncClock(s, d)
	w := s.dur.wal
	w.syncMu.Lock()
	w.syncs = 0 // the next leader fsync is timed
	w.syncMu.Unlock()
	if err := s.PutData(testKey, Tag{TS: 1, Writer: "w"}, []byte{1}, 1); err != nil {
		t.Fatalf("PutData: %v", err)
	}
	if got := s.MetricsSnapshot().WALSyncNanos; got != uint64(d) {
		t.Fatalf("WALSyncNanos = %v, want the clock's %v", time.Duration(got), d)
	}
}

// TestReplacedRegistrationCountsAsEnded: a read that retries registers
// again under its reader ID, which ends the registration it replaces.
// That end counts like any other, so GetDatas − RegGCs stays the
// Registrations gauge.
func TestReplacedRegistrationCountsAsEnded(t *testing.T) {
	s := NewServer(0)
	check := func(when string, getDatas, regGCs, held uint64) {
		t.Helper()
		snap := s.MetricsSnapshot()
		if snap.GetDatas != getDatas || snap.RegGCs != regGCs || snap.Registrations != held {
			t.Fatalf("%s: GetDatas %d, RegGCs %d, Registrations %d; want %d, %d, %d",
				when, snap.GetDatas, snap.RegGCs, snap.Registrations, getDatas, regGCs, held)
		}
		if snap.GetDatas-snap.RegGCs != snap.Registrations {
			t.Fatalf("%s: GetDatas − RegGCs = %d, Registrations gauge %d", when, snap.GetDatas-snap.RegGCs, snap.Registrations)
		}
	}
	s.Register("k", "r", func(Delivery) {})
	s.Register("k", "r", func(Delivery) {})
	check("registered twice", 2, 1, 1)
	s.Unregister("k", "r")
	check("unregistered", 2, 2, 0)
}

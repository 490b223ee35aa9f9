package soda

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustRepairer(t *testing.T, codec *Codec, conns []Conn, m *Membership, opts ...func(*Repairer)) *Repairer {
	t.Helper()
	rp, err := NewRepairer(codec, conns, m)
	if err != nil {
		t.Fatalf("NewRepairer: %v", err)
	}
	for _, opt := range opts {
		opt(rp)
	}
	return rp
}

func TestMembershipLifecycle(t *testing.T) {
	checkNoLeaks(t)
	m := NewMembership(3)
	for i := 0; i < 3; i++ {
		if !m.IsLive(i) {
			t.Fatalf("server %d not live at birth", i)
		}
	}
	if m.MarkRepairing(0) {
		t.Fatal("MarkRepairing from Live succeeded")
	}
	if m.MarkLive(0) {
		t.Fatal("MarkLive from Live succeeded")
	}

	ch := m.Changed()
	cause := errors.New("observed dead")
	if !m.MarkSuspect(0, cause) {
		t.Fatal("MarkSuspect did not report the server was live")
	}
	select {
	case <-ch:
	default:
		t.Fatal("MarkSuspect did not wake Changed waiters")
	}
	if m.Health(0) != Suspect || m.causeOf(0) != cause {
		t.Fatalf("after suspect: %v cause %v", m.Health(0), m.causeOf(0))
	}
	if !slices.Equal(m.Suspects(), []int{0}) {
		t.Fatalf("Suspects = %v", m.Suspects())
	}

	// Readmission must pass through Repairing: MarkLive straight from
	// Suspect is a protocol error (nobody repaired anything).
	if m.MarkLive(0) {
		t.Fatal("MarkLive from Suspect succeeded")
	}
	if !m.MarkRepairing(0) {
		t.Fatal("MarkRepairing from Suspect failed")
	}
	if m.MarkRepairing(0) {
		t.Fatal("second MarkRepairing claimed an already-claimed server")
	}
	// Fresh suspicion mid-repair demotes, so the stale repair cannot
	// readmit.
	m.MarkSuspect(0, errors.New("new evidence"))
	if m.MarkLive(0) {
		t.Fatal("MarkLive succeeded after mid-repair suspicion")
	}
	if !m.MarkRepairing(0) || !m.MarkLive(0) {
		t.Fatal("repair cycle after demotion failed")
	}
	if m.Health(0) != Live || m.causeOf(0) != nil || !m.IsLive(0) {
		t.Fatalf("after readmission: %v cause %v", m.Health(0), m.causeOf(0))
	}

	// AwaitLive observes a transition made elsewhere.
	m.MarkSuspect(2, cause)
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- m.AwaitLive(ctx, 2)
	}()
	m.MarkRepairing(2)
	m.MarkLive(2)
	if err := <-done; err != nil {
		t.Fatalf("AwaitLive: %v", err)
	}
}

// TestRepairPutNeverRollsBack pins the server-side repair invariant:
// an install at a tag below the current one is rejected and changes
// nothing; equal-tag installs overwrite (that is how rotten storage is
// replaced); higher tags advance.
func TestRepairPutNeverRollsBack(t *testing.T) {
	checkNoLeaks(t)
	s := NewServer(0)
	t5 := Tag{TS: 5, Writer: "w"}
	s.PutData(testKey, t5, []byte{1, 2, 3}, 9)

	if ok, _ := s.RepairPut(testKey, Tag{TS: 3, Writer: "w"}, []byte{9}, 3); ok {
		t.Fatal("RepairPut accepted a lower tag")
	}
	if tag, elem, vlen := s.Snapshot(testKey); tag != t5 || vlen != 9 || !bytes.Equal(elem, []byte{1, 2, 3}) {
		t.Fatalf("rejected repair mutated state: %v %v %d", tag, elem, vlen)
	}
	if ok, _ := s.RepairPut(testKey, t5, []byte{7, 7, 7}, 9); !ok {
		t.Fatal("RepairPut rejected an equal tag")
	}
	if _, elem, _ := s.Snapshot(testKey); !bytes.Equal(elem, []byte{7, 7, 7}) {
		t.Fatal("equal-tag repair did not replace the element")
	}
	t6 := Tag{TS: 6, Writer: "w"}
	if ok, _ := s.RepairPut(testKey, t6, []byte{8}, 1); !ok {
		t.Fatal("RepairPut rejected a higher tag")
	}
	if tag, _, _ := s.Snapshot(testKey); tag != t6 {
		t.Fatalf("tag after higher repair = %v", tag)
	}

	// An accepted repair relays to registered readers like a put-data.
	got := make(chan Delivery, 1)
	s.Register(testKey, "r#1", func(d Delivery) { got <- d })
	t7 := Tag{TS: 7, Writer: "w"}
	s.RepairPut(testKey, t7, []byte{4, 4}, 2)
	select {
	case d := <-got:
		if d.Tag != t7 || !bytes.Equal(d.Elem, []byte{4, 4}) {
			t.Fatalf("relayed repair = %+v", d)
		}
	default:
		t.Fatal("accepted repair was not relayed")
	}
}

// TestRepairRestoresCrashedServer is the basic kill-repair-rejoin
// cycle: a server crashes, misses a write, restarts stale, and one
// repair round brings it to the newest tag and readmits it.
func TestRepairRestoresCrashedServer(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	m := NewMembership(5)
	w := mustWriterOn(t, "w1", &Config{Codec: codec, Conns: lb.Conns(), F: -1, Membership: m})
	rp := mustRepairer(t, codec, lb.Conns(), m)

	if _, err := w.Write(ctx, testKey, []byte("version one")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	lb.Crash(4)
	m.MarkSuspect(4, ErrServerDown)

	v2 := []byte("version two, missed by server 4")
	tag2, err := w.Write(ctx, testKey, v2)
	if err != nil {
		t.Fatalf("Write around the crash: %v", err)
	}

	// Repair cannot reach a still-down server; the attempt fails and
	// the server stays quarantined.
	if _, err := rp.RepairOnce(ctx, 4); err == nil {
		t.Fatal("RepairOnce succeeded against a down server")
	}
	if m.IsLive(4) {
		t.Fatal("failed repair readmitted the server")
	}

	lb.Restart(4)
	out, err := rp.RepairOnce(ctx, 4)
	if err != nil {
		t.Fatalf("RepairOnce: %v", err)
	}
	if out != RepairInstalled {
		t.Fatalf("outcome = %v, want installed", out)
	}
	shards2, _ := codec.EncodeValue(v2)
	tag, elem, vlen := lb.Server(4).Snapshot(testKey)
	if tag != tag2 || vlen != len(v2) || !bytes.Equal(elem, shards2[4]) {
		t.Fatalf("server 4 after repair: %v vlen %d", tag, vlen)
	}
	if !m.IsLive(4) {
		t.Fatal("repaired server not readmitted")
	}

	// The healed server serves full-strength SODA_err reads: all 5
	// respond and nothing is corrupt.
	r := mustReaderOn(t, "r1", &Config{Codec: codec, Conns: lb.Conns(), F: 0, E: 1, Membership: m})
	res, err := r.Read(ctx, testKey)
	if err != nil {
		t.Fatalf("Read after repair: %v", err)
	}
	if res.Tag != tag2 || !bytes.Equal(res.Value, v2) || len(res.Corrupt) != 0 {
		t.Fatalf("Read after repair = %v %q corrupt %v", res.Tag, res.Value, res.Corrupt)
	}
}

// fakeClock is a clock the test moves by hand: now is a fixed instant
// plus an offset the test advances, and every after reports the delay it
// was asked for and returns fire, which the test closes.
type fakeClock struct {
	offset atomic.Int64 // nanoseconds past the Unix epoch
	asked  chan time.Duration
	fire   chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{asked: make(chan time.Duration, 1), fire: make(chan time.Time)}
}

// clock is f as the package's clock. A report that finds asked full is
// dropped, so after never blocks: the tests read the first.
func (f *fakeClock) clock() clock {
	return clock{
		nowFn: func() time.Time { return time.Unix(0, f.offset.Load()) },
		afterFn: func(d time.Duration) <-chan time.Time {
			select {
			case f.asked <- d:
			default:
			}
			return f.fire
		},
	}
}

// TestRepairLoopWakesForEachCause: Run holds no timer while idle, so
// each repair it makes must be woken by a cause — a membership
// transition closing Changed, or a failed suspect's backoff deadline,
// the one cause the view never hears of. The loop runs on a fake clock
// whose one timer fires when the test says so: no wait here is bounded
// by wall time but the test's context.
func TestRepairLoopWakesForEachCause(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	m := NewMembership(5)
	w := mustWriterOn(t, "w1", &Config{Codec: codec, Conns: lb.Conns(), F: 0})
	if _, err := w.Write(ctx, testKey, []byte("one version")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	fc := newFakeClock()
	failed := make(chan int, 1)
	rp := mustRepairer(t, codec, lb.Conns(), m,
		withRepairBackoff(backoff{base: time.Hour, max: time.Hour, clk: fc.clock()}),
		withRepairEvents(func(ev repairEvent) {
			if ev.err != nil {
				select {
				case failed <- ev.server:
				default:
				}
			}
		}))
	rpCtx, rpCancel := context.WithCancel(ctx)
	rpDone := make(chan error, 1)
	go func() { rpDone <- rp.Run(rpCtx) }()
	defer func() {
		rpCancel()
		if err := <-rpDone; !errors.Is(err, context.Canceled) {
			t.Errorf("Run returned %v, want the context's cancellation", err)
		}
	}()

	readmitted := func(s int) {
		t.Helper()
		for {
			ch := m.Changed()
			if m.IsLive(s) {
				return
			}
			select {
			case <-ch:
			case <-ctx.Done():
				t.Fatalf("server %d not readmitted: %v, cause %v", s, m.Health(s), m.causeOf(s))
			}
		}
	}

	// Cause 1: a fresh suspect closes Changed.
	m.MarkSuspect(4, errors.New("suspected by hand"))
	readmitted(4)

	// Cause 2: a failed attempt's backoff ends. The restart is invisible
	// to the view, so only the retry timer brings the loop back.
	lb.Crash(3)
	m.MarkSuspect(3, ErrServerDown)
	select {
	case s := <-failed:
		if s != 3 {
			t.Fatalf("failed attempt on server %d, want 3", s)
		}
	case <-ctx.Done():
		t.Fatal("no failed attempt on crashed server 3")
	}
	select {
	case d := <-fc.asked:
		if d != time.Hour {
			t.Fatalf("retry armed for %v, want the backoff's %v", d, time.Hour)
		}
	case <-ctx.Done():
		t.Fatal("no retry armed on the loop's clock after the failed attempt")
	}
	lb.Restart(3)
	// The timer is unfired: a pass that Changed wakes (here, to heal a
	// second suspect) leaves server 3 to its deadline.
	m.MarkSuspect(4, errors.New("suspected again"))
	readmitted(4)
	if h := m.Health(3); h != Suspect {
		t.Fatalf("server 3 is %v before its retry timer fired, want suspect", h)
	}
	fc.offset.Add(int64(time.Hour))
	close(fc.fire)
	readmitted(3)
}

// TestRepairEmptyRegister: a suspect in an unwritten cluster has
// nothing to regenerate; repair degenerates into a reachability probe
// and readmits it.
func TestRepairEmptyRegister(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	m := NewMembership(5)
	rp := mustRepairer(t, codec, lb.Conns(), m)
	m.MarkSuspect(2, errors.New("operator hunch"))
	out, err := rp.RepairOnce(ctx, 2)
	if err != nil {
		t.Fatalf("RepairOnce: %v", err)
	}
	if out != RepairEmptyRegister || !m.IsLive(2) {
		t.Fatalf("outcome = %v, live = %v", out, m.IsLive(2))
	}
}

// TestRepairAlreadyCurrent: the suspect holds a newer tag than any
// version k live servers agree on (it took a write the others have
// not completed). Repair must not roll it back; the rejected install
// doubles as a health probe and the server is readmitted.
func TestRepairAlreadyCurrent(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	conns := lb.Conns()
	m := NewMembership(5)
	rp := mustRepairer(t, codec, lb.Conns(), m)
	w := mustWriter(t, "w1", codec, lb.Conns())
	v1 := []byte("complete everywhere")
	tag1, err := w.Write(ctx, testKey, v1)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	// A half-applied newer write reaches only the future suspect.
	t2 := Tag{TS: tag1.TS + 1, Writer: "w2"}
	v2 := []byte("ahead of the pack")
	shards2, _ := codec.EncodeValue(v2)
	if err := conns[4].PutData(ctx, testKey, t2, shards2[4], len(v2)); err != nil {
		t.Fatalf("PutData: %v", err)
	}
	m.MarkSuspect(4, errors.New("false alarm"))
	out, err := rp.RepairOnce(ctx, 4)
	if err != nil {
		t.Fatalf("RepairOnce: %v", err)
	}
	if out != RepairAlreadyCurrent {
		t.Fatalf("outcome = %v, want already-current", out)
	}
	if tag, _, _ := lb.Server(4).Snapshot(testKey); tag != t2 {
		t.Fatalf("repair rolled the server back to %v", tag)
	}
	if !m.IsLive(4) {
		t.Fatal("healthy server not readmitted")
	}
}

// TestRepairRacesTornWrite: repair runs while a newer write is applied
// on only a minority of servers. The torn version cannot muster k
// matching elements, so repair installs the last complete version —
// never the torn one, and never anything below the suspect's current
// tag — and the torn write still completes afterwards.
func TestRepairRacesTornWrite(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 9, 3)
	conns := lb.Conns()
	m := NewMembership(9)
	rp := mustRepairer(t, codec, lb.Conns(), m)
	w := mustWriter(t, "w1", codec, lb.Conns())

	v1 := []byte("the last complete version")
	tag1, err := w.Write(ctx, testKey, v1)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	lb.Crash(8)
	m.MarkSuspect(8, ErrServerDown)
	lb.Restart(8)

	// The torn write: t2 lands on a minority (2 < k) before the writer
	// stalls, racing the repair of server 8.
	t2 := Tag{TS: tag1.TS + 1, Writer: "w2"}
	v2 := []byte("torn, in flight")
	shards2, _ := codec.EncodeValue(v2)
	for _, i := range []int{0, 1} {
		if err := conns[i].PutData(ctx, testKey, t2, shards2[i], len(v2)); err != nil {
			t.Fatalf("PutData(%d): %v", i, err)
		}
	}

	out, err := rp.RepairOnce(ctx, 8)
	if err != nil {
		t.Fatalf("RepairOnce: %v", err)
	}
	if out != RepairInstalled {
		t.Fatalf("outcome = %v", out)
	}
	shards1, _ := codec.EncodeValue(v1)
	tag, elem, _ := lb.Server(8).Snapshot(testKey)
	if tag != tag1 || !bytes.Equal(elem, shards1[8]) {
		t.Fatalf("repair installed %v, want the complete version %v (torn %v must lose)", tag, tag1, t2)
	}

	// The torn write completes; the healed server takes it like any
	// other and a read returns it.
	for i := 2; i < 9; i++ {
		if err := conns[i].PutData(ctx, testKey, t2, shards2[i], len(v2)); err != nil {
			t.Fatalf("PutData(%d): %v", i, err)
		}
	}
	r := mustReaderOn(t, "r1", &Config{Codec: codec, Conns: lb.Conns(), F: -1, Membership: m})
	res, err := r.Read(ctx, testKey)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if res.Tag != t2 || !bytes.Equal(res.Value, v2) {
		t.Fatalf("Read = %v %q, want %v %q", res.Tag, res.Value, t2, v2)
	}
}

// lyingVLenConn is a donor that reports a bogus value length for its
// (genuine) tag, with the element resized to match the lie so it
// cannot be dismissed as malformed.
type lyingVLenConn struct {
	Conn
	codec *Codec
}

func (c lyingVLenConn) GetElem(ctx context.Context, key string) (Tag, []byte, int, error) {
	t, elem, vlen, err := c.Conn.GetElem(ctx, key)
	if err != nil || t.IsZero() {
		return t, elem, vlen, err
	}
	lie := vlen + 900
	lied := make([]byte, c.codec.shardSize(lie))
	copy(lied, elem)
	return t, lied, lie, nil
}

// TestRepairSurvivesVLenLyingDonor: collected elements are keyed by
// (tag, vlen) exactly like the read path, so a donor lying about the
// value length pollutes only its own bucket and the honest k still
// drive the repair.
func TestRepairSurvivesVLenLyingDonor(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	// f=0: the write must land on every server before the crash, or a
	// lagging honest donor could leave the liar outnumbering k.
	w := mustWriterOn(t, "w1", &Config{Codec: codec, Conns: lb.Conns(), F: 0})
	v1 := []byte("value the liar misdescribes")
	tag1, err := w.Write(ctx, testKey, v1)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	lb.Crash(4)
	m := NewMembership(5)
	m.MarkSuspect(4, ErrServerDown)
	if _, err := lb.Recover(4); err != nil { // the crash took the disk with it
		t.Fatal(err)
	}

	conns := lb.Conns()
	conns[3] = lyingVLenConn{Conn: conns[3], codec: codec}
	rp := mustRepairer(t, codec, conns, m)
	out, err := rp.RepairOnce(ctx, 4)
	if err != nil {
		t.Fatalf("RepairOnce: %v", err)
	}
	if out != RepairInstalled {
		t.Fatalf("outcome = %v", out)
	}
	shards1, _ := codec.EncodeValue(v1)
	tag, elem, vlen := lb.Server(4).Snapshot(testKey)
	if tag != tag1 || vlen != len(v1) || !bytes.Equal(elem, shards1[4]) {
		t.Fatalf("server 4 after repair: %v vlen %d (liar won?)", tag, vlen)
	}
}

// TestRepairDetectsCorruptDonor: with donors to spare, the rebuild
// cross-checks its inputs — a donor serving rotten bytes is located,
// excluded from the regenerated element, and queued for its own repair.
func TestRepairDetectsCorruptDonor(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 9, 3)
	// f=0: the write returns only once every server holds the element,
	// so no straggler leg is still landing when the faults below start.
	w := mustWriterOn(t, "w1", &Config{Codec: codec, Conns: lb.Conns(), F: 0})
	v1 := []byte("regenerated despite a rotten donor")
	tag1, err := w.Write(ctx, testKey, v1)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	lb.Crash(8)
	m := NewMembership(9)
	m.MarkSuspect(8, ErrServerDown)
	if _, err := lb.Recover(8); err != nil {
		t.Fatal(err)
	}
	lb.Corrupt(3, FlipByte(0)) // donor 3 rots before it donates

	var events []repairEvent
	rp := mustRepairer(t, codec, lb.Conns(), m,
		withRepairEvents(func(ev repairEvent) { events = append(events, ev) }))
	out, err := rp.RepairOnce(ctx, 8)
	if err != nil {
		t.Fatalf("RepairOnce: %v", err)
	}
	if out != RepairInstalled {
		t.Fatalf("outcome = %v", out)
	}
	shards1, _ := codec.EncodeValue(v1)
	tag, elem, _ := lb.Server(8).Snapshot(testKey)
	if tag != tag1 || !bytes.Equal(elem, shards1[8]) {
		t.Fatal("corrupt donor poisoned the regenerated element")
	}
	if m.Health(3) == Live {
		t.Fatal("located corrupt donor was not quarantined")
	}
	if len(events) != 1 || events[0].key != testKey || !slices.Equal(events[0].corrupt, []int{3}) {
		t.Fatalf("events = %+v, want one for %q with Corrupt [3]", events, testKey)
	}

	// The disk swap: clear the rot, repair the donor, whole cluster live.
	lb.Corrupt(3, nil)
	if _, err := rp.RepairOnce(ctx, 3); err != nil {
		t.Fatalf("RepairOnce(3): %v", err)
	}
	if s := m.Suspects(); len(s) != 0 {
		t.Fatalf("suspects %v after healing everyone", s)
	}
}

// TestRejoinMidReadCompletedByRepairRelay: a reader registers at a
// rejoined-but-stale server; its pending read cannot complete (the
// SODA_err rule needs all five elements) until the repair install is
// relayed through the server's registration — the "catches up readers
// it missed" half of readmission.
func TestRejoinMidReadCompletedByRepairRelay(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	conns := lb.Conns()
	w := mustWriter(t, "w1", codec, conns)
	tag1, err := w.Write(ctx, testKey, []byte("v1"))
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	// v2 lands on servers 0..3 by hand — a writer's own put-data
	// stragglers could race the restart below and leak the element onto
	// server 4, deflating the test.
	v2 := []byte("written while 4 was down")
	tag2 := tag1.Next("w2")
	shards2, _ := codec.EncodeValue(v2)
	for i := 0; i < 4; i++ {
		if err := conns[i].PutData(ctx, testKey, tag2, shards2[i], len(v2)); err != nil {
			t.Fatalf("PutData(%d): %v", i, err)
		}
	}
	lb.Crash(4)
	lb.Restart(4) // rejoins stale: still holds v1's element

	// e=1, f=0: the read needs k+2e = 5 elements of tag2, but only 4
	// exist until repair catches server 4 up.
	r := mustReaderOn(t, "r1", &Config{Codec: codec, Conns: lb.Conns(), F: 0, E: 1})
	type outcome struct {
		res ReadResult
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := r.Read(ctx, testKey)
		resCh <- outcome{res, err}
	}()
	registerBy := time.Now().Add(30 * time.Second)
	for i := 0; i < 5; i++ {
		for lb.Server(i).readerCount(testKey) == 0 {
			select {
			case o := <-resCh:
				t.Fatalf("read finished before registering everywhere: %v %v", o.res, o.err)
			default:
			}
			if time.Now().After(registerBy) {
				t.Fatalf("reader never registered at server %d", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case o := <-resCh:
		t.Fatalf("read completed with only 4 elements of its target: %v %v", o.res, o.err)
	case <-time.After(50 * time.Millisecond):
	}

	m := NewMembership(5)
	m.MarkSuspect(4, errors.New("stale after restart"))
	rp := mustRepairer(t, codec, lb.Conns(), m)
	if _, err := rp.RepairOnce(ctx, 4); err != nil {
		t.Fatalf("RepairOnce: %v", err)
	}
	o := <-resCh
	if o.err != nil {
		t.Fatalf("Read: %v", o.err)
	}
	if o.res.Tag != tag2 || !bytes.Equal(o.res.Value, v2) || len(o.res.Corrupt) != 0 {
		t.Fatalf("Read = %v %q corrupt %v, want %v %q", o.res.Tag, o.res.Value, o.res.Corrupt, tag2, v2)
	}
}

// countingConn counts get-tag and put-data RPCs per server.
type countingConn struct {
	Conn
	gets, puts *atomic.Int64
}

func (c countingConn) GetTag(ctx context.Context, key string) (Tag, error) {
	c.gets.Add(1)
	return c.Conn.GetTag(ctx, key)
}

func (c countingConn) PutData(ctx context.Context, key string, t Tag, elem []byte, vlen int) error {
	c.puts.Add(1)
	return c.Conn.PutData(ctx, key, t, elem, vlen)
}

// TestWriterExcludesQuarantinedServers: a membership-aware writer
// never dials quarantined servers — they are charged to the fault
// budget f — and contacts them again after readmission. Quarantine
// beyond the budget fails fast instead of waiting out the context.
func TestWriterExcludesQuarantinedServers(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	m := NewMembership(5)
	raw := lb.Conns()
	conns := make([]Conn, 5)
	gets := make([]atomic.Int64, 5)
	puts := make([]atomic.Int64, 5)
	for i := range raw {
		conns[i] = countingConn{Conn: raw[i], gets: &gets[i], puts: &puts[i]}
	}
	w := mustWriterOn(t, "w1", &Config{Codec: codec, Conns: conns, F: -1, Membership: m})

	m.MarkSuspect(4, errCorruptElement)
	if _, err := w.Write(ctx, testKey, []byte("around the quarantine")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if gets[4].Load() != 0 || puts[4].Load() != 0 {
		t.Fatalf("writer contacted quarantined server 4: %d gets, %d puts", gets[4].Load(), puts[4].Load())
	}

	// Readmit: the next write includes it again.
	m.MarkRepairing(4)
	m.MarkLive(4)
	if _, err := w.Write(ctx, testKey, []byte("back in the quorum")); err != nil {
		t.Fatalf("Write after readmission: %v", err)
	}
	// Server 4 may be the straggler whose leg is still landing when the
	// n-f quorum returns the write.
	for deadline := time.Now().Add(5 * time.Second); gets[4].Load() == 0 || puts[4].Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("writer still skipping the readmitted server")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Quarantine past the fault budget (f=1 here) fails fast.
	m.MarkSuspect(3, errCorruptElement)
	m.MarkSuspect(4, errCorruptElement)
	if _, err := w.Write(ctx, testKey, []byte("doomed")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Write with 2 quarantined, f=1: %v, want ErrUnavailable", err)
	}
}

// TestKillRepairRejoinSoak is the end-to-end proof obligation:
// repeated kill → repair → rejoin cycles, each crashing a *different*
// server, racing concurrent multi-writer multi-reader traffic, with
// the whole history checked for atomicity. The Repairer runs as the
// background anti-entropy loop it is in production: suspects arrive
// via the shared membership view (fed by the traffic's own transport
// errors plus the explicit marks below) and healed servers rejoin
// quorums automatically.
func TestKillRepairRejoinSoak(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 9, 3)
	m := NewMembership(9)
	rp := mustRepairer(t, codec, lb.Conns(), m,
		withRepairBackoff(backoff{base: 2 * time.Millisecond, max: 50 * time.Millisecond}))

	rpCtx, rpCancel := context.WithCancel(ctx)
	rpDone := make(chan struct{})
	go func() {
		defer close(rpDone)
		rp.Run(rpCtx)
	}()
	defer func() {
		rpCancel()
		<-rpDone
	}()

	h := &history{}
	stop := make(chan struct{})
	const writers, readers, minOps = 2, 2, 15
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		w := mustWriterOn(t, fmt.Sprintf("w%d", wi), &Config{Codec: codec, Conns: lb.Conns(), F: -1, Membership: m})
		wg.Add(1)
		go func(wi int, w *Writer) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					if j >= minOps {
						return
					}
				default:
				}
				value := fmt.Sprintf("w%d-%d", wi, j)
				inv := h.begin()
				tag, err := w.Write(ctx, testKey, []byte(value))
				if err != nil {
					t.Errorf("writer %d op %d: %v", wi, j, err)
					return
				}
				h.end(true, inv, tag, value)
			}
		}(wi, w)
	}
	for ri := 0; ri < readers; ri++ {
		r := mustReaderOn(t, fmt.Sprintf("r%d", ri), &Config{Codec: codec, Conns: lb.Conns(), F: 2, E: 2, Membership: m})
		wg.Add(1)
		go func(ri int, r *Reader) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					if j >= minOps {
						return
					}
				default:
				}
				inv := h.begin()
				res, err := r.Read(ctx, testKey)
				if err != nil {
					t.Errorf("reader %d op %d: %v", ri, j, err)
					return
				}
				h.end(false, inv, res.Tag, string(res.Value))
			}
		}(ri, r)
	}

	// The kill-repair-rejoin cycles, a different server each time.
	for cyc, s := range []int{4, 7, 2} {
		lb.Crash(s)
		m.MarkSuspect(s, ErrServerDown)
		time.Sleep(25 * time.Millisecond) // traffic rides through the hole
		tagDown, _, _ := lb.Server(s).Snapshot(testKey)
		lb.Restart(s)
		actx, acancel := context.WithTimeout(ctx, 15*time.Second)
		err := m.AwaitLive(actx, s)
		acancel()
		if err != nil {
			t.Fatalf("cycle %d: server %d never repaired: %v (health %v, cause %v)",
				cyc, s, err, m.Health(s), m.causeOf(s))
		}
		tagUp, _, _ := lb.Server(s).Snapshot(testKey)
		if tagUp.Less(tagDown) {
			t.Fatalf("cycle %d: repair rolled server %d back from %v to %v", cyc, s, tagDown, tagUp)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	h.check(t)

	// The healed cluster at full strength: every server answers, and a
	// zero-fault-budget SODA_err read across all nine reports nothing
	// corrupt — formerly quarantined servers included.
	for i := 0; i < 9; i++ {
		if _, err := lb.Conns()[i].GetTag(ctx, testKey); err != nil {
			t.Fatalf("server %d does not serve after the soak: %v", i, err)
		}
	}
	r := mustReaderOn(t, "rz", &Config{Codec: codec, Conns: lb.Conns(), F: 0, E: 2})
	res, err := r.Read(ctx, testKey)
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	if len(res.Corrupt) != 0 {
		t.Fatalf("final read still names corrupt servers: %v", res.Corrupt)
	}
	if res.Tag.IsZero() {
		t.Fatal("final read returned the initial state after all that traffic")
	}
}

// TestBackoffSchedule pins the shared retry helper: exponential
// growth to the cap, defaults, and context-bounded sleeping.
func TestBackoffSchedule(t *testing.T) {
	checkNoLeaks(t)
	b := backoff{base: 10 * time.Millisecond, max: 80 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.next(); got != w*time.Millisecond {
			t.Fatalf("next #%d = %v, want %v", i, got, w*time.Millisecond)
		}
	}

	var zero backoff
	if got := zero.next(); got != defaultBackoffBase {
		t.Fatalf("zero-value next = %v, want %v", got, defaultBackoffBase)
	}

	// A sleep waits on its clock for the delay next gives.
	fc := newFakeClock()
	onClock := backoff{base: 10 * time.Millisecond, max: 80 * time.Millisecond, clk: fc.clock()}
	close(fc.fire)
	if err := onClock.sleep(context.Background()); err != nil {
		t.Fatalf("sleep on a fired clock = %v", err)
	}
	if d := <-fc.asked; d != 10*time.Millisecond {
		t.Fatalf("sleep asked its clock for %v, want next's %v", d, 10*time.Millisecond)
	}

	// A cancelled context cuts the sleep short with its error.
	slow := backoff{base: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if err := slow.sleep(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("sleep under cancellation = %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("sleep ignored cancellation")
	}

	// retry: eventual success, exhaustion, and context abort.
	calls := 0
	err := retry(context.Background(), 5, backoff{base: time.Microsecond}, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("retry = %v after %d calls", err, calls)
	}
	calls = 0
	sentinel := errors.New("always")
	err = retry(context.Background(), 3, backoff{base: time.Microsecond}, func() error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) || calls != 3 {
		t.Fatalf("exhausted retry = %v after %d calls", err, calls)
	}
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	calls = 0
	err = retry(cctx, 10, backoff{base: time.Hour}, func() error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) || calls != 1 {
		t.Fatalf("cancelled retry = %v after %d calls (must not sleep)", err, calls)
	}
}

// causeOf returns the evidence recorded when server i left Live, or nil
// for a live server.
func (m *Membership) causeOf(i int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cause[i]
}

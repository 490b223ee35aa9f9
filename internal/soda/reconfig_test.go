package soda

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fastReconfig is the retry schedule tests drive flips with.
var fastReconfig = WithReconfigBackoff(Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond})

// TestEpochAdmitMatrix pins the admission rule per operation class
// across the three server states (active, sealed, activated-next):
// client traffic needs the active epoch unsealed, donor reads serve
// the active epoch even sealed, and repair installs are accepted at
// the active epoch or — sealed only — at the pending epoch.
func TestEpochAdmitMatrix(t *testing.T) {
	s := NewServer(0)

	// Active epoch 0, unsealed.
	for _, class := range []opClass{opClient, opDonor, opRepair} {
		if nack := s.Admit(class, SeedEpoch); nack != nil {
			t.Fatalf("class %d at active epoch 0: %v", class, nack)
		}
		if nack := s.Admit(class, 1); nack == nil {
			t.Fatalf("class %d at future epoch 1 admitted on an active server", class)
		}
	}

	// Sealed pending 1.
	if _, err := s.Reconfig(ReconfigSeal, 1, 5, 3); err != nil {
		t.Fatalf("seal: %v", err)
	}
	if nack := s.Admit(opClient, SeedEpoch); nack == nil {
		t.Fatal("client frame admitted on a sealed server")
	} else if nack.Want != 1 || !nack.Sealed {
		t.Fatalf("sealed client NACK = %+v, want Want=1 Sealed=true", nack)
	}
	if nack := s.Admit(opClient, 1); nack == nil {
		t.Fatal("client frame at the pending epoch admitted before activation")
	}
	if nack := s.Admit(opDonor, SeedEpoch); nack != nil {
		t.Fatalf("donor read of the frozen epoch refused: %v", nack)
	}
	if nack := s.Admit(opRepair, 1); nack != nil {
		t.Fatalf("migration install at the pending epoch refused: %v", nack)
	}
	if nack := s.Admit(opRepair, SeedEpoch); nack == nil {
		t.Fatal("repair at the sealed epoch admitted (would mutate the frozen state)")
	}

	// Activated epoch 1.
	if _, err := s.Reconfig(ReconfigActivate, 1, 5, 3); err != nil {
		t.Fatalf("activate: %v", err)
	}
	for _, class := range []opClass{opClient, opDonor, opRepair} {
		if nack := s.Admit(class, 1); nack != nil {
			t.Fatalf("class %d at active epoch 1: %v", class, nack)
		}
		nack := s.Admit(class, SeedEpoch)
		if nack == nil {
			t.Fatalf("class %d at retired epoch 0 admitted", class)
		}
		if nack.Want != 1 || nack.ServerEpoch != 1 {
			t.Fatalf("retired-epoch NACK = %+v, want Want=1 ServerEpoch=1", nack)
		}
	}
	if s.MetricsSnapshot().EpochFlips != 2 {
		t.Fatalf("EpochFlips = %d, want 2", s.MetricsSnapshot().EpochFlips)
	}

	// Both transitions are idempotent retries, and a conflicting seal is
	// refused.
	if _, err := s.Reconfig(ReconfigSeal, 1, 5, 3); err != nil {
		t.Fatalf("seal retry after activation: %v", err)
	}
	if _, err := s.Reconfig(ReconfigActivate, 1, 5, 3); err != nil {
		t.Fatalf("activate retry: %v", err)
	}
	if _, err := s.Reconfig(ReconfigSeal, 2, 5, 3); err != nil {
		t.Fatalf("seal for epoch 2: %v", err)
	}
	if _, err := s.Reconfig(ReconfigSeal, 3, 5, 3); err == nil {
		t.Fatal("conflicting seal for epoch 3 accepted over a pending flip to 2")
	}
	if _, err := s.Reconfig(ReconfigActivate, 3, 5, 3); err == nil {
		t.Fatal("activation without a matching seal accepted")
	}
}

// TestNoCrossEpochQuorum is the quorum-atomicity unit test: with the
// cluster split across two epochs (three servers activated at 1, two
// still at 0), NO writer and NO reader can assemble a quorum — the
// epoch-0 conns bounce off the activated majority and the epoch-1
// conns bounce off the laggards — because a quorum is only ever
// assembled from servers serving one epoch. Completing the flip
// restores service under the new epoch alone.
func TestNoCrossEpochQuorum(t *testing.T) {
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	w0 := mustWriter(t, "w-old", codec, lb.ConnsAt(SeedEpoch, 5))
	r0 := mustReader(t, "r-old", codec, lb.ConnsAt(SeedEpoch, 5))
	if _, err := w0.Write(ctx, testKey, []byte("before the split")); err != nil {
		t.Fatalf("Write at epoch 0: %v", err)
	}

	// Flip servers 0-2 to epoch 1; 3-4 lag at epoch 0. Five servers are
	// up and answering, but no four of them share an epoch.
	for i := 0; i < 3; i++ {
		if _, err := lb.Server(i).Reconfig(ReconfigSeal, 1, 5, 3); err != nil {
			t.Fatalf("seal %d: %v", i, err)
		}
		if _, err := lb.Server(i).Reconfig(ReconfigActivate, 1, 5, 3); err != nil {
			t.Fatalf("activate %d: %v", i, err)
		}
	}

	w1 := mustWriter(t, "w-new", codec, lb.ConnsAt(1, 5))
	r1 := mustReader(t, "r-new", codec, lb.ConnsAt(1, 5))
	for name, op := range map[string]func() error{
		"epoch-0 write": func() error { _, err := w0.Write(ctx, testKey, []byte("x")); return err },
		"epoch-1 write": func() error { _, err := w1.Write(ctx, testKey, []byte("x")); return err },
		"epoch-0 read":  func() error { _, err := r0.Read(ctx, testKey); return err },
		"epoch-1 read":  func() error { _, err := r1.Read(ctx, testKey); return err },
	} {
		err := op()
		if err == nil {
			t.Fatalf("%s completed a quorum across a split-epoch cluster", name)
		}
		if !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("%s failed without surfacing the epoch mismatch: %v", name, err)
		}
		var se *StaleEpochError
		if !errors.As(err, &se) || se.Server < 0 {
			t.Fatalf("%s error does not name the NACKing server: %v", name, err)
		}
	}

	// Completing the flip on the laggards restores a single-epoch
	// cluster, and only the epoch-1 clients serve.
	for i := 3; i < 5; i++ {
		if _, err := lb.Server(i).Reconfig(ReconfigSeal, 1, 5, 3); err != nil {
			t.Fatalf("seal %d: %v", i, err)
		}
		if _, err := lb.Server(i).Reconfig(ReconfigActivate, 1, 5, 3); err != nil {
			t.Fatalf("activate %d: %v", i, err)
		}
	}
	if _, err := w1.Write(ctx, testKey, []byte("after the flip")); err != nil {
		t.Fatalf("Write at epoch 1 after full activation: %v", err)
	}
	res, err := r1.Read(ctx, testKey)
	if err != nil || string(res.Value) != "after the flip" {
		t.Fatalf("Read at epoch 1 = %q, %v", res.Value, err)
	}
	if _, err := w0.Write(ctx, testKey, []byte("zombie")); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("retired-epoch write = %v, want ErrStaleEpoch", err)
	}
}

// TestReconfigGrowMigratesState drives one coordinator flip n=5 -> n=7
// (k 3 -> 4) on a quiet cluster and proves the drain: every key
// written under the old geometry reads back under the new one with
// its tag preserved, retired conns are NACKed, and the standby nodes
// joined at the new epoch.
func TestReconfigGrowMigratesState(t *testing.T) {
	ctx := testCtx(t)
	lb := NewLoopback(7)
	codec5, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	codec7, err := NewCodec(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg0 := &Config{Epoch: 0, Codec: codec5, Conns: lb.ConnsAt(SeedEpoch, 5), F: -1}
	view, err := NewConfigView(cfg0)
	if err != nil {
		t.Fatal(err)
	}

	w := mustWriter(t, "w", codec5, cfg0.Conns)
	tags := make(map[string]Tag)
	values := map[string][]byte{
		"mig/a": []byte("first register"),
		"mig/b": bytes.Repeat([]byte{0xAB}, 1000),
		"mig/c": []byte("z"),
	}
	for key, v := range values {
		tag, err := w.Write(ctx, key, v)
		if err != nil {
			t.Fatalf("Write(%s): %v", key, err)
		}
		tags[key] = tag
	}

	cfg1 := &Config{Epoch: 1, Codec: codec7, Conns: lb.ConnsAt(1, 7), F: -1}
	rc := NewReconfigurator(view, fastReconfig)
	if err := rc.Apply(ctx, cfg1); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got := view.Current().Epoch; got != 1 {
		t.Fatalf("view epoch after Apply = %d", got)
	}

	// Every key reads back under the new geometry at full strength, tag
	// intact — migration preserved every completed write.
	r := mustReader(t, "r", codec7, cfg1.Conns, WithReaderFaults(0))
	for key, v := range values {
		res, err := r.Read(ctx, key)
		if err != nil {
			t.Fatalf("Read(%s) under epoch 1: %v", key, err)
		}
		if res.Tag != tags[key] || !bytes.Equal(res.Value, v) {
			t.Fatalf("Read(%s) = %v %q, want %v %q", key, res.Tag, res.Value, tags[key], v)
		}
	}

	// The old conn set is retired: its quorums can never assemble again.
	if _, err := w.Write(ctx, "mig/a", []byte("stale")); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("retired writer = %v, want ErrStaleEpoch", err)
	}

	// A re-run of the same flip converges without re-migrating (the
	// status probe sees activated members) and without error.
	if err := rc.Apply(ctx, cfg1); err == nil {
		t.Fatal("Apply of an already-installed epoch should refuse (epoch must advance)")
	}
	for i := 0; i < 7; i++ {
		st := lb.Server(i).EpochStatus()
		if st.Epoch != 1 || st.Sealed || st.N != 7 || st.K != 4 {
			t.Fatalf("server %d status = %+v, want active epoch 1 n=7 k=4", i, st)
		}
	}
	if snap := lb.Server(0).MetricsSnapshot(); snap.EpochNacks == 0 {
		t.Fatal("no epoch NACK was ever counted despite retired-epoch traffic")
	}
}

// TestReconfigRepairerAborts is the satellite-6 regression: a Repairer
// whose conns are stamped with a retired epoch must abort its Run loop
// with a stale-epoch error instead of spinning forever against NACKs.
func TestReconfigRepairerAborts(t *testing.T) {
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	w := mustWriter(t, "w", codec, lb.ConnsAt(SeedEpoch, 5))
	if _, err := w.Write(ctx, testKey, []byte("pre-flip state")); err != nil {
		t.Fatalf("Write: %v", err)
	}

	m := NewMembership(5)
	rp := mustRepairer(t, codec, lb.ConnsAt(SeedEpoch, 5), m,
		WithRepairInterval(5*time.Millisecond),
		WithRepairBackoff(Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond}))

	// The cluster reconfigures out from under the repairer (same
	// geometry, new epoch), then a suspect appears.
	for i := 0; i < 5; i++ {
		if _, err := lb.Server(i).Reconfig(ReconfigSeal, 1, 5, 3); err != nil {
			t.Fatalf("seal %d: %v", i, err)
		}
		if _, err := lb.Server(i).Reconfig(ReconfigActivate, 1, 5, 3); err != nil {
			t.Fatalf("activate %d: %v", i, err)
		}
	}
	m.MarkSuspect(3, ErrServerDown)

	errCh := make(chan error, 1)
	go func() { errCh <- rp.Run(ctx) }()
	select {
	case err := <-errCh:
		if err == nil || !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("Run returned %v, want a stale-epoch abort", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run kept spinning against a retired epoch instead of aborting")
	}
}

// TestReconfigWALRecoversEpochState pins crash-safety of the epoch
// records alone: a node power-cut after sealing recovers sealed (its
// WAL said so), and one power-cut after activating recovers at the
// new epoch with the new geometry.
func TestReconfigWALRecoversEpochState(t *testing.T) {
	lb, err := NewDurableLoopback(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer lb.CloseServers()

	if _, err := lb.Server(0).Reconfig(ReconfigSeal, 1, 7, 4); err != nil {
		t.Fatalf("seal: %v", err)
	}
	lb.PowerCut(0)
	s, err := lb.Recover(0)
	if err != nil {
		t.Fatalf("Recover after sealed power cut: %v", err)
	}
	st := s.EpochStatus()
	if st.Epoch != 0 || !st.Sealed || st.Pending != 1 {
		t.Fatalf("recovered mid-flip status = %+v, want epoch 0 sealed pending 1", st)
	}

	// The flip resumes from the recovered state and survives a second
	// cut after activation.
	if _, err := s.Reconfig(ReconfigActivate, 1, 7, 4); err != nil {
		t.Fatalf("activate after recovery: %v", err)
	}
	lb.PowerCut(0)
	s, err = lb.Recover(0)
	if err != nil {
		t.Fatalf("Recover after activated power cut: %v", err)
	}
	st = s.EpochStatus()
	if st.Epoch != 1 || st.Sealed || st.N != 7 || st.K != 4 {
		t.Fatalf("recovered post-flip status = %+v, want active epoch 1 n=7 k=4", st)
	}
}

// TestReconfigIsRefusedAfterWALCut pins what a power cut does to a seal
// or activate that was already past the transport's crash gate: the WAL
// is cut under the server directly, and the transition must then fail
// with ErrServerDown and leave the epoch state alone, because Recover
// rebuilds it from a disk that never saw the record. A closed WAL is
// not a failed one: WALFailures stays 0.
func TestReconfigIsRefusedAfterWALCut(t *testing.T) {
	lb, err := NewDurableLoopback(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer lb.CloseServers()
	srv := lb.Server(0)
	if _, err := srv.Reconfig(ReconfigSeal, 1, 7, 4); err != nil {
		t.Fatalf("seal: %v", err)
	}
	sealed := srv.EpochStatus()
	flips := srv.MetricsSnapshot().EpochFlips
	srv.dur.powerCut()

	st, err := srv.Reconfig(ReconfigActivate, 1, 7, 4)
	if !errors.Is(err, ErrServerDown) {
		t.Errorf("activate after the WAL was cut = %v, want ErrServerDown", err)
	}
	if st != sealed || srv.EpochStatus() != sealed {
		t.Errorf("status after the refused activate = %+v (returned %+v), want %+v", srv.EpochStatus(), st, sealed)
	}
	m := srv.MetricsSnapshot()
	if m.WALFailures != 0 {
		t.Errorf("WALFailures = %d after a cut, want 0: closed is not failed", m.WALFailures)
	}
	if m.EpochFlips != flips {
		t.Errorf("EpochFlips moved %d -> %d on a refused transition", flips, m.EpochFlips)
	}

	lb.PowerCut(0)
	rec, err := lb.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.EpochStatus(); got != sealed {
		t.Fatalf("recovered %+v, want %+v: exactly the logged transitions", got, sealed)
	}
	// A seal is refused the same way: cut a server that has flipped and
	// ask it to seal for the next epoch.
	if _, err := rec.Reconfig(ReconfigActivate, 1, 7, 4); err != nil {
		t.Fatalf("activate after recovery: %v", err)
	}
	active := rec.EpochStatus()
	rec.dur.powerCut()
	if _, err := rec.Reconfig(ReconfigSeal, 2, 5, 3); !errors.Is(err, ErrServerDown) {
		t.Errorf("seal after the WAL was cut = %v, want ErrServerDown", err)
	}
	if got := rec.EpochStatus(); got != active {
		t.Errorf("status after the refused seal = %+v, want %+v", got, active)
	}
}

// TestReconfigGrowShrinkSoak is the acceptance soak: a durable n=5
// cluster grows to n=7 and shrinks back to n=5 while two writers and
// two readers race both flips through the shared ConfigView; one node
// is power-cut mid-grow and recovered into the correct epoch from its
// WAL; the full history — including tags abandoned by seal-interrupted
// writes — is linearizability-checked. Run under -race in CI.
func TestReconfigGrowShrinkSoak(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	lb, err := NewDurableLoopback(7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer lb.CloseServers()
	codec5, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	codec7, err := NewCodec(7, 3)
	if err != nil {
		t.Fatal(err)
	}

	cfg0 := &Config{Epoch: 0, Codec: codec5, Conns: lb.ConnsAt(SeedEpoch, 5), F: -1}
	view, err := NewConfigView(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	const key = "reconfig/soak"
	h := &history{}

	// Seed so migration always has a key to drain.
	seed, err := NewEpochWriter("w-seed", view)
	if err != nil {
		t.Fatal(err)
	}
	inv := h.begin()
	tag, err := seed.Write(ctx, key, []byte("seed"))
	if err != nil {
		t.Fatalf("seed write: %v", err)
	}
	h.end(true, inv, tag, "seed")

	stop := make(chan struct{})
	const writers, readers, minOps = 2, 2, 15
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		value := func(j int) string { return fmt.Sprintf("w%d-%d", wi, j) }
		var pending string
		ew, err := NewEpochWriter(fmt.Sprintf("w%d", wi), view,
			WithAbandonedTags(func(at Tag, _ error) { h.abandoned(at, pending) }))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(wi int, ew *EpochWriter) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					if j >= minOps {
						return
					}
				default:
				}
				pending = value(j)
				inv := h.begin()
				tag, err := ew.Write(ctx, key, []byte(pending))
				if err != nil {
					t.Errorf("writer %d op %d: %v", wi, j, err)
					return
				}
				h.end(true, inv, tag, pending)
			}
		}(wi, ew)
	}
	for ri := 0; ri < readers; ri++ {
		er, err := NewEpochReader(fmt.Sprintf("r%d", ri), view)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ri int, er *EpochReader) {
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
				res, err := er.Read(ctx, key)
				if err != nil {
					t.Errorf("reader %d op %d: %v", ri, j, err)
					return
				}
				h.end(false, inv, res.Tag, string(res.Value))
			}
		}(ri, er)
	}

	rc := NewReconfigurator(view, fastReconfig)

	// Grow to n=7, power-cutting node 6 mid-flip. The coordinator blocks
	// on the dead node (a flip never abandons a member), the recovery
	// rebuilds its epoch state from the WAL, and the flip then converges.
	cfg1 := &Config{Epoch: 1, Codec: codec7, Conns: lb.ConnsAt(1, 7), F: -1}
	applyErr := make(chan error, 1)
	go func() { applyErr <- rc.Apply(ctx, cfg1) }()
	sealBy := time.Now().Add(30 * time.Second)
	for {
		st := lb.Server(6).EpochStatus()
		if (st.Sealed && st.Pending == 1) || st.Epoch == 1 {
			break
		}
		if time.Now().After(sealBy) {
			t.Fatal("node 6 never entered the flip")
		}
		time.Sleep(time.Millisecond)
	}
	lb.PowerCut(6)
	time.Sleep(10 * time.Millisecond) // let the coordinator bounce off it
	s6, err := lb.Recover(6)
	if err != nil {
		t.Fatalf("Recover(6): %v", err)
	}
	if st := s6.EpochStatus(); !(st.Epoch == 1 || (st.Sealed && st.Pending == 1)) {
		t.Fatalf("node 6 recovered into %+v, not a legal mid-flip epoch state", st)
	}
	if err := <-applyErr; err != nil {
		t.Fatalf("grow Apply: %v", err)
	}

	// Let traffic run under the grown geometry, then shrink back.
	time.Sleep(20 * time.Millisecond)
	cfg2 := &Config{Epoch: 2, Codec: codec5, Conns: lb.ConnsAt(2, 5), F: -1}
	if err := rc.Apply(ctx, cfg2); err != nil {
		t.Fatalf("shrink Apply: %v", err)
	}

	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	h.check(t)

	// Geometry end-state: members 0-4 active at epoch 2; retired members
	// 5-6 sealed forever at epoch 1.
	for i := 0; i < 5; i++ {
		if st := lb.Server(i).EpochStatus(); st.Epoch != 2 || st.Sealed || st.N != 5 || st.K != 3 {
			t.Fatalf("server %d = %+v, want active epoch 2 n=5 k=3", i, st)
		}
	}
	for i := 5; i < 7; i++ {
		if st := lb.Server(i).EpochStatus(); st.Epoch != 1 || !st.Sealed || st.Pending != 2 {
			t.Fatalf("retired server %d = %+v, want sealed at epoch 1 pending 2", i, st)
		}
	}

	// A full-strength read under the final configuration returns the
	// last completed state.
	r := mustReader(t, "r-final", codec5, cfg2.Conns, WithReaderFaults(0))
	res, err := r.Read(ctx, key)
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	if res.Tag.IsZero() {
		t.Fatal("final read returned the initial state after the soak")
	}
}

// TestEpochWriterReaderFollowFlip pins the client-side retry loop in
// isolation: a Write and a Read launched while the cluster is sealed
// park in ConfigView.Await and complete under the new epoch as soon as
// the coordinator installs it.
func TestEpochWriterReaderFollowFlip(t *testing.T) {
	ctx := testCtx(t)
	lb := NewLoopback(7)
	codec5, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	codec7, err := NewCodec(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg0 := &Config{Epoch: 0, Codec: codec5, Conns: lb.ConnsAt(SeedEpoch, 5), F: -1}
	view, err := NewConfigView(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	ew, err := NewEpochWriter("w", view)
	if err != nil {
		t.Fatal(err)
	}
	er, err := NewEpochReader("r", view)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ew.Write(ctx, testKey, []byte("sealed away")); err != nil {
		t.Fatalf("Write: %v", err)
	}

	// Seal by hand: every client op now bounces with want=1, and the
	// epoch clients park awaiting the install.
	for i := 0; i < 5; i++ {
		if _, err := lb.Server(i).Reconfig(ReconfigSeal, 1, 7, 4); err != nil {
			t.Fatalf("seal %d: %v", i, err)
		}
	}
	type wres struct {
		tag Tag
		err error
	}
	wCh := make(chan wres, 1)
	rCh := make(chan error, 1)
	go func() {
		tag, err := ew.Write(ctx, testKey, []byte("across the flip"))
		wCh <- wres{tag, err}
	}()
	go func() {
		res, err := er.Read(ctx, testKey)
		if err == nil && string(res.Value) != "sealed away" && string(res.Value) != "across the flip" {
			err = fmt.Errorf("read returned %q", res.Value)
		}
		rCh <- err
	}()
	select {
	case res := <-wCh:
		t.Fatalf("Write completed against a sealed cluster: %+v", res)
	case err := <-rCh:
		t.Fatalf("Read completed against a sealed cluster: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Finish the flip by hand (same data on 0-4; migrate is not needed
	// for the parked clients to resume, only activation + install).
	cfg1 := &Config{Epoch: 1, Codec: codec7, Conns: lb.ConnsAt(1, 7), F: -1}
	rc := NewReconfigurator(view, fastReconfig)
	if err := rc.Apply(ctx, cfg1); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	res := <-wCh
	if res.err != nil {
		t.Fatalf("Write across the flip: %v", res.err)
	}
	if err := <-rCh; err != nil {
		t.Fatalf("Read across the flip: %v", err)
	}
	// The written value is readable at full strength under epoch 1.
	r := mustReader(t, "r2", codec7, cfg1.Conns, WithReaderFaults(0))
	got, err := r.Read(ctx, testKey)
	if err != nil || string(got.Value) != "across the flip" {
		t.Fatalf("final read = %q, %v", got.Value, err)
	}
}

// TestEpochChangedSeesEveryFlip races seals and activations against a
// re-arm loop of the watchEpochs shape (sample the channel, then the
// status; sweep when the status moved, else park on the channel) and
// against admission checks. The flipper moves on the moment the watcher
// reports a transition, so every next flip lands inside the watcher's
// re-arm window: none may be missed. And a channel sampled after Admit
// accepted an epoch is never one an earlier transition closes — it is
// closed only once the server has left the state Admit saw.
func TestEpochChangedSeesEveryFlip(t *testing.T) {
	const epochs = 200
	s := NewServer(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)

	seen := make(chan EpochStatus)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last EpochStatus
		for {
			ch := s.EpochChanged()
			if st := s.EpochStatus(); st != last {
				last = st
				select {
				case seen <- st:
				case <-stop:
					return
				}
				continue
			}
			select {
			case <-ch:
			case <-stop:
				return
			}
		}
	}()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := s.EpochStatus().Epoch
				if s.Admit(opClient, e) != nil {
					continue
				}
				select {
				case <-s.EpochChanged():
					if st := s.EpochStatus(); st.Epoch == e && !st.Sealed {
						t.Errorf("Admit accepted epoch %d and EpochChanged then returned a channel already closed, with the server still at %+v", e, st)
						return
					}
				default:
				}
			}
		}()
	}

	for e := uint64(1); e <= epochs; e++ {
		for _, op := range []ReconfigOp{ReconfigSeal, ReconfigActivate} {
			want, err := s.Reconfig(op, e, 5, 3)
			if err != nil {
				t.Fatalf("reconfig op %d to epoch %d: %v", op, e, err)
			}
			select {
			case got := <-seen:
				if got != want {
					t.Fatalf("watcher saw %+v after the transition to %+v", got, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("watcher missed the transition to %+v", want)
			}
		}
	}
}

// TestGetDataFlipBetweenAdmitAndRegister: a loopback get-data that
// passes admission, and only then sees its server's epoch move, must
// still die with the flip. It used to sample the change channel after
// the admission check, so a flip in between left it registered under
// the new configuration, holding a channel that only the next flip
// closes — with a reader of the old geometry behind it dropping every
// delivery as mis-sized, for ever.
func TestGetDataFlipBetweenAdmitAndRegister(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	lb := NewLoopback(5)
	var once sync.Once
	lb.admitted = func(server int) {
		once.Do(func() {
			if _, err := lb.Server(server).Reconfig(ReconfigSeal, 1, 5, 3); err != nil {
				t.Errorf("seal inside the window: %v", err)
			}
		})
	}
	errc := make(chan error, 1)
	go func() { errc <- lb.Conns()[0].GetData(ctx, testKey, "r#1", func(Delivery) {}) }()
	select {
	case err := <-errc:
		var stale *StaleEpochError
		if !errors.As(err, &stale) || !stale.Sealed || stale.Want != 1 {
			t.Fatalf("get-data across the flip returned %v, want a sealed stale-epoch NACK wanting epoch 1", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a get-data admitted before the flip and registered after it outlived the flip")
	}
	if n := lb.Server(0).Readers(testKey); n != 0 {
		t.Fatalf("%d stale-epoch readers left registered on the sealed server", n)
	}
}

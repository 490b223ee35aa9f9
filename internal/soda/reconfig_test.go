package soda

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEpochAdmitMatrix pins the admission rule per operation class
// across the three server states (active, sealed, activated-next):
// client traffic needs the active epoch unsealed, donor reads serve
// the active epoch even sealed, and repair installs are accepted at
// the active epoch or — sealed only — at the pending epoch.
func TestEpochAdmitMatrix(t *testing.T) {
	s := NewServer(0)

	// Active epoch 0, unsealed.
	for _, class := range []opClass{opClient, opDonor, opRepair} {
		if nack := s.admit(class, SeedEpoch); nack != nil {
			t.Fatalf("class %d at active epoch 0: %v", class, nack)
		}
		if nack := s.admit(class, 1); nack == nil {
			t.Fatalf("class %d at future epoch 1 admitted on an active server", class)
		}
	}

	// Sealed pending 1.
	if _, err := s.Reconfig(ReconfigSeal, 1, 5, 3); err != nil {
		t.Fatalf("seal: %v", err)
	}
	if nack := s.admit(opClient, SeedEpoch); nack == nil {
		t.Fatal("client frame admitted on a sealed server")
	} else if nack.Want != 1 || !nack.Sealed {
		t.Fatalf("sealed client NACK = %+v, want Want=1 Sealed=true", nack)
	}
	if nack := s.admit(opClient, 1); nack == nil {
		t.Fatal("client frame at the pending epoch admitted before activation")
	}
	if nack := s.admit(opDonor, SeedEpoch); nack != nil {
		t.Fatalf("donor read of the frozen epoch refused: %v", nack)
	}
	if nack := s.admit(opRepair, 1); nack != nil {
		t.Fatalf("migration install at the pending epoch refused: %v", nack)
	}
	if nack := s.admit(opRepair, SeedEpoch); nack == nil {
		t.Fatal("repair at the sealed epoch admitted (would mutate the frozen state)")
	}

	// Activated epoch 1.
	if _, err := s.Reconfig(ReconfigActivate, 1, 5, 3); err != nil {
		t.Fatalf("activate: %v", err)
	}
	for _, class := range []opClass{opClient, opDonor, opRepair} {
		if nack := s.admit(class, 1); nack != nil {
			t.Fatalf("class %d at active epoch 1: %v", class, nack)
		}
		nack := s.admit(class, SeedEpoch)
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

// TestStaleEpochRetryDoesNotSpin: a client whose Config is ahead of its
// servers draws one NACK per server and returns it. The NACK wants the
// epoch the attempt already had, so only the servers catching up can
// help; a client that retried at once would spin on NACKs until its
// context ended. A Config whose conns stamp two epochs is refused before
// any of that, by the view, by Install and by Apply, before any seal.
func TestStaleEpochRetryDoesNotSpin(t *testing.T) {
	for name, op := range map[string]func(context.Context, *ConfigView) error{
		"write": func(ctx context.Context, v *ConfigView) error {
			w, err := v.Writer("w")
			if err != nil {
				return err
			}
			_, err = w.Write(ctx, testKey, []byte("ahead"))
			return err
		},
		"read": func(ctx context.Context, v *ConfigView) error {
			r, err := v.Reader("r")
			if err != nil {
				return err
			}
			_, err = r.Read(ctx, testKey)
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			codec, lb := newCluster(t, 5, 3)
			view, err := NewConfigView(&Config{Codec: codec, Conns: lb.ConnsAt(1, 5), F: -1})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			err = op(ctx, view)
			if !errors.Is(err, ErrStaleEpoch) || ctx.Err() != nil {
				t.Fatalf("%s ahead of its servers returned %v (context: %v), want the NACK well before the deadline", name, err, ctx.Err())
			}
			for i := range 5 {
				if n := lb.Server(i).MetricsSnapshot().EpochNacks; n > 1 {
					t.Errorf("server %d NACKed %d times, want at most 1", i, n)
				}
			}
		})
	}

	// A conn set reports its epoch without dialing, so the socket row is
	// refused as the loopback one is.
	t.Run("mixed-epoch conns", func(t *testing.T) {
		for _, tr := range []struct {
			name    string
			cluster func(t *testing.T) (servers []*Server, connsAt func(epoch uint64) []Conn)
		}{
			{"loopback", func(t *testing.T) ([]*Server, func(uint64) []Conn) {
				lb := NewLoopback(5)
				servers := make([]*Server, 5)
				for i := range servers {
					servers[i] = lb.Server(i)
				}
				return servers, func(epoch uint64) []Conn { return lb.ConnsAt(epoch, 5) }
			}},
			{"sockets", func(t *testing.T) ([]*Server, func(uint64) []Conn) {
				addrs, nss := startTCPServers(t, 5)
				servers := make([]*Server, 5)
				for i, ns := range nss {
					servers[i] = ns.core
				}
				return servers, func(epoch uint64) []Conn {
					conns := TCPMuxConnsAt(epoch, addrs)
					t.Cleanup(func() { CloseConns(conns) })
					return conns
				}
			}},
		} {
			t.Run(tr.name, func(t *testing.T) {
				ctx := testCtx(t)
				codec, err := NewCodec(5, 3)
				if err != nil {
					t.Fatal(err)
				}
				servers, connsAt := tr.cluster(t)
				mixed := func() *Config {
					conns := connsAt(1)
					conns[4] = connsAt(2)[4]
					return &Config{Codec: codec, Conns: conns, F: -1}
				}
				if _, err := NewConfigView(mixed()); !errors.Is(err, ErrConfig) {
					t.Fatalf("NewConfigView over conns at epochs 1 and 2 = %v, want ErrConfig", err)
				}
				view, err := NewConfigView(&Config{Codec: codec, Conns: connsAt(SeedEpoch), F: -1})
				if err != nil {
					t.Fatal(err)
				}
				if err := view.Install(mixed()); !errors.Is(err, ErrConfig) {
					t.Fatalf("Install of conns at epochs 1 and 2 = %v, want ErrConfig", err)
				}
				if err := fastReconfigurator(view).Apply(ctx, mixed()); !errors.Is(err, ErrConfig) {
					t.Fatalf("Apply to conns at epochs 1 and 2 = %v, want ErrConfig", err)
				}
				for i, s := range servers {
					if st := s.EpochStatus(); st.Sealed || st.Epoch != SeedEpoch {
						t.Fatalf("server %d left at %+v by a refused Apply", i, st)
					}
				}
				if got := view.Current().Epoch(); got != SeedEpoch {
					t.Fatalf("view at epoch %d after refusals, want %d", got, SeedEpoch)
				}
			})
		}
	})
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
	cfg0 := &Config{Codec: codec5, Conns: lb.ConnsAt(SeedEpoch, 5), F: -1}
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

	cfg1 := &Config{Codec: codec7, Conns: lb.ConnsAt(1, 7), F: -1}
	rc := fastReconfigurator(view)
	if err := rc.Apply(ctx, cfg1); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got := view.Current().Epoch(); got != 1 {
		t.Fatalf("view epoch after Apply = %d", got)
	}

	// Every key reads back under the new geometry at full strength, tag
	// intact — migration preserved every completed write.
	r := mustReaderOn(t, "r", &Config{Codec: codec7, Conns: cfg1.Conns, F: 0})
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

// TestReconfigShrinkRetiresTheTail drives a grow n=5 -> n=7 and the
// shrink back to n=5 on a quiet cluster: what was written under the
// grown geometry reads back under the shrunk one with its tag, a writer
// still on the grown conns is refused with ErrStaleEpoch, and the two
// servers the shrink drops stay sealed, refusing client ops at the new
// epoch too.
func TestReconfigShrinkRetiresTheTail(t *testing.T) {
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
	view, err := NewConfigView(&Config{Codec: codec5, Conns: lb.ConnsAt(SeedEpoch, 5), F: -1})
	if err != nil {
		t.Fatal(err)
	}
	rc := fastReconfigurator(view)
	cfg1 := &Config{Codec: codec7, Conns: lb.ConnsAt(1, 7), F: -1}
	if err := rc.Apply(ctx, cfg1); err != nil {
		t.Fatalf("grow Apply: %v", err)
	}
	w := mustWriterOn(t, "w", &Config{Codec: codec7, Conns: cfg1.Conns, F: 0})
	v := []byte("written under [7,4]")
	tag, err := w.Write(ctx, testKey, v)
	if err != nil {
		t.Fatalf("Write under epoch 1: %v", err)
	}

	cfg2 := &Config{Codec: codec5, Conns: lb.ConnsAt(2, 5), F: -1}
	if err := rc.Apply(ctx, cfg2); err != nil {
		t.Fatalf("shrink Apply: %v", err)
	}
	if got := view.Current().Epoch(); got != 2 {
		t.Fatalf("view epoch after the shrink = %d", got)
	}
	r := mustReaderOn(t, "r", &Config{Codec: codec5, Conns: cfg2.Conns, F: 0})
	res, err := r.Read(ctx, testKey)
	if err != nil {
		t.Fatalf("Read under epoch 2: %v", err)
	}
	if res.Tag != tag || !bytes.Equal(res.Value, v) {
		t.Fatalf("Read under epoch 2 = %v %q, want %v %q", res.Tag, res.Value, tag, v)
	}
	if _, err := w.Write(ctx, testKey, []byte("stale")); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("writer on the grown conns = %v, want ErrStaleEpoch", err)
	}
	for i := 0; i < 7; i++ {
		st := lb.Server(i).EpochStatus()
		if i < 5 && (st.Epoch != 2 || st.Sealed || st.N != 5 || st.K != 3) {
			t.Fatalf("server %d status = %+v, want active epoch 2 n=5 k=3", i, st)
		}
		if i >= 5 && !st.Sealed {
			t.Fatalf("retired server %d status = %+v, want sealed", i, st)
		}
	}
	for _, c := range lb.ConnsAt(2, 7)[5:] {
		if _, err := c.GetTag(ctx, testKey); !errors.Is(err, ErrStaleEpoch) {
			t.Fatalf("retired server %d answered a get-tag at epoch 2: %v", c.Index(), err)
		}
	}
}

// TestReconfigDrainLocatesCorruptDonor: a member whose storage rots
// before a flip must not have its bad bytes re-encoded into the next
// geometry, where every element would carry them consistently and no
// reader could find them. With all five old members answering, the
// drain's cross-checking decode locates the rotten donor and decodes
// around it, so a full-strength read under the new Config returns what
// was written. regenerate itself: one corrupt donor among five is
// located; among four it can only be detected, which is ErrRepairQuorum
// (the drain waits) and never shards.
func TestReconfigDrainLocatesCorruptDonor(t *testing.T) {
	value := bytes.Repeat([]byte("val/e-value-"), 25) // 300 bytes
	codec5, err := NewCodec(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		n, k int
	}{
		{"grow [5,3] to [7,4]", 7, 4},
		{"same geometry [5,3] at epoch 1", 5, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := testCtx(t)
			lb := NewLoopback(tc.n)
			next, err := NewCodec(tc.n, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			cfg0 := &Config{Codec: codec5, Conns: lb.ConnsAt(SeedEpoch, 5), F: -1}
			view, err := NewConfigView(cfg0)
			if err != nil {
				t.Fatal(err)
			}
			w := mustWriterOn(t, "w", &Config{Codec: codec5, Conns: cfg0.Conns, F: 0})
			tag, err := w.Write(ctx, testKey, value)
			if err != nil {
				t.Fatalf("Write: %v", err)
			}

			lb.Corrupt(0, FlipByte(3))
			cfg1 := &Config{Codec: next, Conns: lb.ConnsAt(1, tc.n), F: -1}
			if err := fastReconfigurator(view).Apply(ctx, cfg1); err != nil {
				t.Fatalf("Apply: %v", err)
			}
			lb.Corrupt(0, nil)

			r := mustReaderOn(t, "r", &Config{Codec: next, Conns: cfg1.Conns, F: 0})
			res, err := r.Read(ctx, testKey)
			if err != nil {
				t.Fatalf("Read under epoch 1: %v", err)
			}
			if res.Tag != tag || !bytes.Equal(res.Value, value) {
				t.Fatalf("Read under epoch 1 = %v %.24q…, want %v %.24q…", res.Tag, res.Value, tag, value)
			}
		})
	}

	t.Run("regenerate", func(t *testing.T) {
		shards, err := codec5.EncodeValue(value)
		if err != nil {
			t.Fatal(err)
		}
		ver := version{tag: Tag{TS: 7, Writer: "w"}, vlen: len(value)}
		donate := func(servers ...int) []donation {
			var ds []donation
			for _, i := range servers {
				elem := slices.Clone(shards[i])
				if i == 0 {
					elem = FlipByte(3)(elem)
				}
				ds = append(ds, donation{server: i, ver: ver, elem: elem})
			}
			return ds
		}

		got, out, corrupt, err := regenerate(codec5, donate(0, 1, 2, 3, 4))
		if err != nil || got != ver || !slices.Equal(corrupt, []int{0}) {
			t.Fatalf("five donors, one corrupt: %v, corrupt %v, %v; want %v, [0], nil", got, corrupt, err, ver)
		}
		for i := range shards {
			if !bytes.Equal(out[i], shards[i]) {
				t.Fatalf("five donors, one corrupt: shard %d differs from the value's", i)
			}
		}

		if _, out, _, err := regenerate(codec5, donate(0, 1, 2, 3)); !errors.Is(err, ErrRepairQuorum) || out != nil {
			t.Fatalf("four donors, one corrupt: %d shards, %v; want none and ErrRepairQuorum", len(out), err)
		}
	})
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
		withRepairBackoff(backoff{base: time.Millisecond, max: 5 * time.Millisecond}))

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

// TestReconfigFreezeStopsMintingNotPuts pins the step a flip takes before
// its seal, on both transports. A frozen server refuses get-tag with the
// NACK the seal will send, so no new write starts. It still takes
// put-data and get-data, so a write that already holds its tag lands
// whole. The seal then refuses the put, and activating the target ends
// the freeze.
func TestReconfigFreezeStopsMintingNotPuts(t *testing.T) {
	checkNoLeaks(t)
	for _, tc := range []struct {
		name  string
		conns func(t *testing.T) (at0, at1 Conn) // one server, stamping epochs 0 and 1
	}{
		{"loopback", func(t *testing.T) (Conn, Conn) {
			lb := NewLoopback(1)
			return lb.ConnsAt(SeedEpoch, 1)[0], lb.ConnsAt(1, 1)[0]
		}},
		{"mux", func(t *testing.T) (Conn, Conn) {
			addrs, _ := startTCPServers(t, 1)
			at0, at1 := TCPMuxConns(addrs), TCPMuxConnsAt(1, addrs)
			t.Cleanup(func() { CloseConns(at0); CloseConns(at1) })
			return at0[0], at1[0]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := testCtx(t)
			at0, at1 := tc.conns(t)
			stale := func(err error, want StaleEpochError) bool {
				var se *StaleEpochError
				return errors.As(err, &se) && *se == want
			}
			frozen := StaleEpochError{Server: 0, ServerEpoch: 0, Want: 1, Sealed: true}
			if st, err := at0.Reconfig(ctx, reconfigFreeze, 1, 5, 3); err != nil || st != (EpochStatus{}) {
				t.Fatalf("freeze = %+v, %v; want the untouched epoch-0 status", st, err)
			}
			if _, err := at0.GetTag(ctx, testKey); !stale(err, frozen) {
				t.Fatalf("GetTag on a frozen server = %v, want %v", err, &frozen)
			}
			t1 := Tag{TS: 1, Writer: "w"}
			if err := at0.PutData(ctx, testKey, t1, []byte{1}, 1); err != nil {
				t.Fatalf("PutData on a frozen server = %v, want it taken", err)
			}
			got := make(chan Delivery, 1)
			rctx, cancel := context.WithCancel(ctx)
			done := make(chan error, 1)
			go func() {
				done <- at0.GetData(rctx, testKey, "r", func(d Delivery) {
					select {
					case got <- d:
					default:
					}
				})
			}()
			if d := <-got; d.Tag != t1 {
				t.Fatalf("get-data on a frozen server delivered %v, want %v", d.Tag, t1)
			}
			cancel()
			if err := <-done; err != nil {
				t.Fatalf("get-data on a frozen server ended with %v", err)
			}

			if _, err := at0.Reconfig(ctx, ReconfigSeal, 1, 5, 3); err != nil {
				t.Fatal(err)
			}
			sealed := StaleEpochError{Server: 0, ServerEpoch: 0, Want: 1, Sealed: true}
			if err := at0.PutData(ctx, testKey, Tag{TS: 2, Writer: "w"}, []byte{2}, 1); !stale(err, sealed) {
				t.Fatalf("PutData on a sealed server = %v, want %v", err, &sealed)
			}
			if _, err := at1.Reconfig(ctx, ReconfigActivate, 1, 5, 3); err != nil {
				t.Fatal(err)
			}
			if tag, err := at1.GetTag(ctx, testKey); err != nil || tag != t1 {
				t.Fatalf("GetTag at the activated epoch = %v, %v; want %v", tag, err, t1)
			}
			// A freeze for an epoch the server has reached changes nothing.
			if _, err := at1.Reconfig(ctx, reconfigFreeze, 1, 5, 3); err != nil {
				t.Fatal(err)
			}
			if _, err := at1.GetTag(ctx, testKey); err != nil {
				t.Fatalf("GetTag after a stale freeze = %v", err)
			}
		})
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

	cfg0 := &Config{Codec: codec5, Conns: lb.ConnsAt(SeedEpoch, 5), F: -1}
	view, err := NewConfigView(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	const key = "reconfig/soak"
	h := &history{}

	// Seed so migration always has a key to drain.
	seed, err := view.Writer("w-seed")
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
		ew, err := view.Writer(fmt.Sprintf("w%d", wi))
		if err != nil {
			t.Fatal(err)
		}
		ew.abandoned = func(at Tag, _ error) { h.abandoned(at, pending) }
		wg.Add(1)
		go func(wi int, ew *Writer) {
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
		er, err := view.Reader(fmt.Sprintf("r%d", ri))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ri int, er *Reader) {
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

	rc := fastReconfigurator(view)

	// Grow to n=7, power-cutting node 6 mid-flip. The coordinator blocks
	// on the dead node (a flip never abandons a member), the recovery
	// rebuilds its epoch state from the WAL, and the flip then converges.
	cfg1 := &Config{Codec: codec7, Conns: lb.ConnsAt(1, 7), F: -1}
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
	cfg2 := &Config{Codec: codec5, Conns: lb.ConnsAt(2, 5), F: -1}
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
	r := mustReaderOn(t, "r-final", &Config{Codec: codec5, Conns: cfg2.Conns, F: 0})
	res, err := r.Read(ctx, key)
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	if res.Tag.IsZero() {
		t.Fatal("final read returned the initial state after the soak")
	}
}

// TestClientsFollowTheEpochFlip pins the client-side retry loop in
// isolation: a Write and a Read launched while the cluster is sealed
// park in ConfigView.Await and complete under the new epoch as soon as
// the coordinator installs it.
func TestClientsFollowTheEpochFlip(t *testing.T) {
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
	cfg0 := &Config{Codec: codec5, Conns: lb.ConnsAt(SeedEpoch, 5), F: -1}
	view, err := NewConfigView(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	ew, err := view.Writer("w")
	if err != nil {
		t.Fatal(err)
	}
	er, err := view.Reader("r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ew.Write(ctx, testKey, []byte("sealed away")); err != nil {
		t.Fatalf("Write: %v", err)
	}

	// Seal by hand: every client op now bounces with want=1, and the
	// view's clients park awaiting the install.
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
	cfg1 := &Config{Codec: codec7, Conns: lb.ConnsAt(1, 7), F: -1}
	rc := fastReconfigurator(view)
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
	r := mustReaderOn(t, "r2", &Config{Codec: codec7, Conns: cfg1.Conns, F: 0})
	got, err := r.Read(ctx, testKey)
	if err != nil || string(got.Value) != "across the flip" {
		t.Fatalf("final read = %q, %v", got.Value, err)
	}
}

// TestFlipNacksAConnectionOnce opens more get-data streams on one NetServer
// connection than its outbound queue holds, stops reading, and seals. The
// sweep ends them all with one epoch-nack on request id 0, so no relay
// frame is dropped, the connection lives, and it answers the next request.
func TestFlipNacksAConnectionOnce(t *testing.T) {
	checkNoLeaks(t)
	srv := NewServer(0)
	ns := &NetServer{core: srv, conns: make(map[net.Conn]struct{})}
	client, conn := net.Pipe()
	ns.conns[conn] = struct{}{}
	ns.wg.Add(1)
	go ns.handle(conn)
	defer ns.wg.Wait()
	defer client.Close()
	br := bufio.NewReader(client)
	// One NACK per stream would overflow the queue even after the writer
	// has taken a buffer's worth of them off it before blocking on the pipe.
	const streams = 2 * outQueueDepth
	for id := uint64(1); id <= streams; id++ {
		if err := writeFrame(client, appendRequest(nil, &request{typ: msgGetData, id: id, epoch: SeedEpoch, key: testKey, reader: fmt.Sprintf("r%d", id)})); err != nil {
			t.Fatal(err)
		}
		p, err := readFrame(br, nil)
		if err != nil {
			t.Fatalf("get-data %d: %v", id, err)
		}
		if typ, pid, _, _, _ := header(p, "response"); typ != msgData || pid != id {
			t.Fatalf("get-data %d answered with type %#x on id %d, want its initial delivery", id, typ, pid)
		}
	}
	if _, err := srv.Reconfig(ReconfigSeal, SeedEpoch+1, 5, 3); err != nil {
		t.Fatal(err)
	}
	keysID := uint64(streams + 1)
	if err := writeFrame(client, appendRequest(nil, &request{typ: msgKeys, id: keysID, epoch: SeedEpoch})); err != nil {
		t.Fatalf("keys request after the seal (%d relay drops): %v", srv.MetricsSnapshot().RelayDrops, err)
	}
	nacks := 0
	for {
		p, err := readFrame(br, nil)
		if err != nil {
			t.Fatalf("the connection died after the seal (%d relay drops): %v", srv.MetricsSnapshot().RelayDrops, err)
		}
		typ, id, _, _, _ := header(p, "response")
		if typ == msgKeysResp && id == keysID {
			break
		}
		if typ != msgEpochNack || id != 0 {
			t.Fatalf("frame of type %#x on id %d after the seal; want epoch-nacks on id 0, then the keys answer", typ, id)
		}
		nacks++
	}
	if nacks != 1 {
		t.Fatalf("the seal's sweep sent %d epoch-nacks on id 0, want 1", nacks)
	}
	if n := srv.MetricsSnapshot().RelayDrops; n != 0 {
		t.Fatalf("%d relay drops, want 0", n)
	}
	if n := srv.readerCount(testKey); n != 0 {
		t.Fatalf("%d registrations outlived the seal", n)
	}
}

// endCount is the stepOp and waiter of one loopback get-data in
// TestRegistrationsRaceTheFlip: how many waiters the conn took, how many
// times the registration's end was reported and with what.
type endCount struct {
	takes, answers atomic.Int32
	mu             sync.Mutex
	err            error
}

func (c *endCount) take(byte) waiter {
	c.takes.Add(1)
	return c
}

func (c *endCount) answer(_ int, _ *response, err error) {
	c.answers.Add(1)
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
}

// TestRegistrationsRaceTheFlip races seals and activations against
// get-datas stamped with the epoch their sender last saw, on both
// transports, half of them ended by their reader as soon as they open.
// Every get-data is refused with a stale-epoch NACK or ended exactly once:
// by its reader, or by its server with that NACK. After the last flip no
// registration is left.
func TestRegistrationsRaceTheFlip(t *testing.T) {
	const epochs = 100
	// flip moves s through every epoch, letting the senders make two more
	// get-datas before each transition; senders that stall fail the test
	// when ctx ends.
	flip := func(ctx context.Context, t *testing.T, s *Server, tries func() int64) {
		t.Helper()
		phases := []struct {
			op   ReconfigOp
			name string
		}{{ReconfigSeal, "seal"}, {ReconfigActivate, "activate"}}
		for e := uint64(1); e <= epochs; e++ {
			for _, ph := range phases {
				for n := tries(); tries() < n+2; {
					if ctx.Err() != nil {
						t.Fatalf("%s of epoch %d: %d of the 2 get-datas it waits for came before %v", ph.name, e, tries()-n, ctx.Err())
					}
					runtime.Gosched()
				}
				if _, err := s.Reconfig(ph.op, e, 5, 3); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := s.Reconfig(ReconfigSeal, epochs+1, 5, 3); err != nil {
			t.Fatal(err)
		}
	}
	stale := func(err error) bool {
		var se *StaleEpochError
		return errors.As(err, &se)
	}

	t.Run("loopback", func(t *testing.T) {
		checkNoLeaks(t)
		lb := NewLoopback(1)
		srv := lb.Server(0)
		type opened struct {
			ends     *endCount
			byReader bool // endData removed it
		}
		var (
			mu    sync.Mutex
			all   []opened
			tries atomic.Int64
			wg    sync.WaitGroup
		)
		stop := make(chan struct{})
		stopSenders := sync.OnceFunc(func() { close(stop) })
		t.Cleanup(stopSenders)
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					tries.Add(1)
					c := lb.ConnsAt(srv.EpochStatus().Epoch, 1)[0].(*loopConn)
					rid := fmt.Sprintf("r%d#%d", g, i)
					ends := &endCount{}
					s, err := c.getDataStep(testKey, rid, ends, func(Delivery) {})
					if err != nil {
						if !stale(err) || ends.takes.Load() != 0 {
							t.Errorf("get-data refused with %v after %d takes; want a stale-epoch NACK and none", err, ends.takes.Load())
						}
						continue
					}
					o := opened{ends: ends}
					if i%2 == 0 {
						o.byReader = c.endData(s, testKey, rid)
					}
					mu.Lock()
					all = append(all, o)
					mu.Unlock()
				}
			}()
		}
		flip(testCtx(t), t, srv, tries.Load)
		stopSenders()
		wg.Wait()
		// A loopback registration's end is a call made before the sweep or
		// the step that makes it returns: every one has been reported.
		byServer := 0
		for _, o := range all {
			o.ends.mu.Lock()
			err := o.ends.err
			o.ends.mu.Unlock()
			switch n := o.ends.answers.Load(); {
			case o.ends.takes.Load() != 1:
				t.Fatalf("a registration took %d waiters, want 1", o.ends.takes.Load())
			case o.byReader && n != 0:
				t.Fatalf("a registration its reader ended was ended by its server too (%v)", err)
			case !o.byReader && (n != 1 || !stale(err)):
				t.Fatalf("a registration its reader did not end was ended %d times, last with %v; want once, with a stale-epoch NACK", n, err)
			case !o.byReader:
				byServer++
			}
		}
		if n := srv.readerCount(testKey); n != 0 {
			t.Fatalf("%d registrations outlived the last flip", n)
		}
		t.Logf("%d registrations, %d ended by a flip", len(all), byServer)
	})

	t.Run("sockets", func(t *testing.T) {
		checkNoLeaks(t)
		ns, err := ListenAndServe(NewServer(0), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ns.Close() })
		srv := ns.core
		conn, err := net.Dial("tcp", ns.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		var (
			mu    sync.Mutex
			nacks = map[uint64]int{} // by get-data id
			tries atomic.Int64
			// answers counts the frames that answer a get-data: its initial
			// delivery, or a NACK on its own id. One swept between its
			// register and the admission re-check hears only its sweep's
			// NACK on id 0, so each of those counts too.
			answers  atomic.Int64
			answered = make(chan struct{}, 1)
		)
		status := make(chan struct{}) // the reconfig-status answer, which follows every NACK
		go func() {
			br := bufio.NewReader(conn)
			for {
				p, err := readFrame(br, nil)
				if err != nil {
					return
				}
				switch typ, id, _, _, _ := header(p, "response"); typ {
				case msgEpochNack:
					mu.Lock()
					nacks[id]++
					mu.Unlock()
					fallthrough
				case msgData:
					answers.Add(1)
					select {
					case answered <- struct{}{}:
					default:
					}
				case msgReconfigResp:
					close(status)
				}
			}
		}()
		// One sender: frames on a socket must not interleave. Every third
		// stream it ends at once with a reader-done, which races the
		// flip's sweep for the registration: that one gets a NACK only if
		// the sweep won. The sender keeps at most maxUnanswered get-datas
		// unanswered, far below the server's outbound queue (outQueueDepth),
		// which the initial deliveries to a starved reader would otherwise
		// overflow: the server then kills the connection, as it should.
		const maxUnanswered = 256
		ctx := testCtx(t)
		var last uint64
		ended := map[uint64]bool{}
		stop, sent := make(chan struct{}), make(chan struct{})
		stopSender := sync.OnceFunc(func() { close(stop) })
		t.Cleanup(stopSender)
		go func() {
			defer close(sent)
			for id := uint64(1); ; id++ {
				for int64(id) > answers.Load()+maxUnanswered {
					select {
					case <-answered:
					case <-stop:
						return
					case <-ctx.Done():
						t.Errorf("get-data %d: %d answered before %v", id, answers.Load(), ctx.Err())
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
				b := appendFrame(nil, &request{typ: msgGetData, id: id, epoch: srv.EpochStatus().Epoch, key: testKey, reader: fmt.Sprintf("r#%d", id)})
				if id%3 == 0 {
					b = appendFrame(b, &request{typ: msgReaderDone, id: id})
					ended[id] = true
				}
				if _, err := conn.Write(b); err != nil {
					t.Errorf("%v (server RelayDrops: %d)", err, srv.MetricsSnapshot().RelayDrops)
					return
				}
				last = id
				tries.Add(1)
			}
		}()
		flip(ctx, t, srv, tries.Load)
		stopSender()
		<-sent
		if _, err := conn.Write(appendFrame(nil, &request{typ: msgReconfig, id: last + 1, epoch: epochNone, op: ReconfigStatus})); err != nil {
			t.Fatal(err)
		}
		select {
		case <-status:
		case <-time.After(10 * time.Second):
			t.Fatal("no answer to the status request")
		}
		// A get-data is NACKed on its own id when admission refuses it, and
		// a flip's sweep NACKs every stream on the connection at once, on
		// id 0: no id hears more than one NACK, and no flip more than one
		// on id 0.
		mu.Lock()
		defer mu.Unlock()
		swept := nacks[0]
		delete(nacks, 0)
		for id := uint64(1); id <= last; id++ {
			if n := nacks[id]; n > 1 {
				t.Fatalf("get-data %d (reader-done sent: %v) had %d NACKs; want at most one", id, ended[id], n)
			}
		}
		if flips := 2*epochs + 1; swept > flips {
			t.Fatalf("%d NACKs on id 0 for %d flips; want at most one each", swept, flips)
		}
		if n := srv.readerCount(testKey); n != 0 {
			t.Fatalf("%d registrations outlived the last flip", n)
		}
		t.Logf("%d get-datas, %d NACKed on their own id, %d sweeps NACKed on id 0", last, len(nacks), swept)
	})
}

// TestGetDataFlipBetweenAdmitAndRegister: a loopback get-data that
// passes admission, and only then sees its server's epoch move, must
// still die with the flip. Left registered under the new configuration,
// its reader of the old geometry would drop every delivery as mis-sized,
// for ever; the admission re-check after registering refuses it.
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
	if n := lb.Server(0).readerCount(testKey); n != 0 {
		t.Fatalf("%d stale-epoch readers left registered on the sealed server", n)
	}
}

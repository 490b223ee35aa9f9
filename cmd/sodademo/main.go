// sodademo drives an in-process n=5, k=3 SODA cluster through the
// paper's fault scenarios end to end:
//
//  1. A write, then a SODA_err read that is concurrent with a server
//     crash (the server dies right after its response leaves) while
//     another server serves silently corrupted elements: the read
//     returns the written value and names the corrupt server.
//  2. A follow-up write/read pair with the crashed server still down
//     and the corrupt server quarantined.
//  3. The same write/read round trip over real localhost TCP with the
//     length-prefixed wire protocol.
//  4. Kill-repair-rejoin: the crashed server restarts stale and the
//     corrupt server gets a clean disk; anti-entropy repair rebuilds
//     their elements from k live servers and readmits them, then a
//     fresh kill is healed by the background repair loop while a
//     membership-aware writer works around the hole.
//  5. Power-cut and recover: a durable cluster (per-server WAL +
//     snapshots) loses a node to a power cut mid-traffic; the node
//     comes back from its own disk — no donor repair — and is
//     readmitted directly.
//  6. Online reconfiguration: the cluster grows from [5,3] to [7,4]
//     while a read is in flight — the read parks on the sealed epoch
//     and completes under the new geometry — then shrinks back, with
//     the retired servers sealed forever and stale-epoch writers
//     NACKed to the current configuration.
//
// It exits nonzero if any scenario misbehaves, so it doubles as a
// smoke test: go run ./cmd/sodademo
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/soda"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "sodademo: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("\nsodademo: all scenarios passed")
}

func run(ctx context.Context) error {
	const n, k = 5, 3
	const key = "demo/register" // every scenario works one key of the namespace
	fmt.Printf("SODA demo — n=%d servers, [n,k]=[%d,%d] Reed-Solomon code, storage cost n/k = %.2f× the value\n\n", n, n, k, float64(n)/float64(k))

	codec, err := soda.NewCodec(n, k)
	if err != nil {
		return err
	}
	lb := soda.NewLoopback(n)

	// ---- scenario 1: write, then a read concurrent with a crash and a corrupt server
	fmt.Println("scenario 1: write, then a read with one crashed and one corrupt server")
	w, err := soda.NewWriter("w1", codec, lb.Conns())
	if err != nil {
		return err
	}
	v1 := []byte("SODA: one coded element per server, relayed to readers")
	tag1, err := w.Write(ctx, key, v1)
	if err != nil {
		return fmt.Errorf("write: %w", err)
	}
	fmt.Printf("  w1: get-tag -> put-data, wrote %d bytes under tag %v\n", len(v1), tag1)

	lb.Corrupt(4, soda.FlipByte(3))
	fmt.Println("  fault: server 4 storage rots (serves bit-flipped elements)")
	// Crash server 2 the instant its initial response reaches the
	// reader: the crash is concurrent with the read.
	lb.OnDeliver(func(server int, _, _ string, d soda.Delivery) {
		if server == 2 && d.Initial {
			lb.Crash(2)
			fmt.Println("  fault: server 2 crashes mid-read, just after answering get-data")
		}
	})
	r, err := soda.NewReader("r1", codec, lb.Conns(),
		soda.WithReaderFaults(0), soda.WithReadErrors(1))
	if err != nil {
		return err
	}
	res, err := r.Read(ctx, key)
	if err != nil {
		return fmt.Errorf("SODA_err read: %w", err)
	}
	lb.OnDeliver(nil)
	if !bytes.Equal(res.Value, v1) || res.Tag != tag1 {
		return fmt.Errorf("read returned tag %v value %q, want %v %q", res.Tag, res.Value, tag1, v1)
	}
	if !slices.Equal(res.Corrupt, []int{4}) {
		return fmt.Errorf("read located corrupt servers %v, want [4]", res.Corrupt)
	}
	fmt.Printf("  r1: %d responses, Verify mismatch -> DecodeErrors -> value %q\n", n, res.Value)
	fmt.Printf("  r1: corrupt server(s) located for quarantine: %v\n", res.Corrupt)
	if _, err := lb.Conns()[2].GetTag(ctx, key); err == nil {
		return fmt.Errorf("server 2 still answers after its crash")
	}
	fmt.Println("  check: server 2 is down, read completed anyway ✓")

	// ---- scenario 2: keep operating around the failures
	fmt.Println("\nscenario 2: write/read with server 2 down and server 4 quarantined")
	v2 := []byte("life goes on at quorum n-f")
	tag2, err := w.Write(ctx, key, v2) // 4 of 5 acks: n-f quorum
	if err != nil {
		return fmt.Errorf("write around the crash: %w", err)
	}
	fmt.Printf("  w1: wrote tag %v with a 4/5 ack quorum\n", tag2)
	rq, err := soda.NewReader("r2", codec, lb.Conns(),
		soda.WithReaderFaults(2), soda.WithQuarantine(res.Corrupt...))
	if err != nil {
		return err
	}
	res2, err := rq.Read(ctx, key)
	if err != nil {
		return fmt.Errorf("quarantined read: %w", err)
	}
	if !bytes.Equal(res2.Value, v2) || res2.Tag != tag2 {
		return fmt.Errorf("quarantined read = %v %q, want %v %q", res2.Tag, res2.Value, tag2, v2)
	}
	fmt.Printf("  r2: avoided server %v, read %q at tag %v ✓\n", res.Corrupt, res2.Value, res2.Tag)

	// ---- scenario 3: the same protocol over real TCP, multiplexed
	fmt.Println("\nscenario 3: write/read over localhost TCP (one mux connection per server)")
	addrs := make([]string, n)
	tsrvs := make([]*soda.Server, n)
	for i := 0; i < n; i++ {
		tsrvs[i] = soda.NewServer(i)
		ns, err := soda.ListenAndServe(tsrvs[i], "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ns.Close()
		addrs[i] = ns.Addr()
	}
	fmt.Printf("  servers: %v\n", addrs)
	tcodec, err := soda.NewCodec(n, k)
	if err != nil {
		return err
	}
	tconns := soda.TCPMuxConns(addrs)
	defer soda.CloseConns(tconns)
	tw, err := soda.NewWriter("w1", tcodec, tconns)
	if err != nil {
		return err
	}
	tr, err := soda.NewReader("r1", tcodec, tconns)
	if err != nil {
		return err
	}
	v3 := []byte("framed, pipelined, relayed")
	tag3, err := tw.Write(ctx, key, v3)
	if err != nil {
		return fmt.Errorf("tcp write: %w", err)
	}
	// A second key rides the same five connections: the namespace is
	// multiplexed, not dialed per key.
	if _, err := tw.Write(ctx, key+"/sibling", []byte("second key, same conns")); err != nil {
		return fmt.Errorf("tcp write sibling key: %w", err)
	}
	res3, err := tr.Read(ctx, key)
	if err != nil {
		return fmt.Errorf("tcp read: %w", err)
	}
	if !bytes.Equal(res3.Value, v3) || res3.Tag != tag3 {
		return fmt.Errorf("tcp read = %v %q, want %v %q", res3.Tag, res3.Value, tag3, v3)
	}
	fmt.Printf("  wrote and read %q at tag %v over the wire ✓\n", res3.Value, res3.Tag)
	var tms soda.MetricsSnapshot
	for _, s := range tsrvs {
		tms.Add(s.MetricsSnapshot())
	}
	fmt.Printf("  tcp cluster metrics: %d get-tags, %d put-datas, %d get-datas, %d relays, %d registers live\n",
		tms.GetTags, tms.PutDatas, tms.GetDatas, tms.Relays, tms.Registers)

	// ---- scenario 4: kill-repair-rejoin heals the loopback cluster
	fmt.Println("\nscenario 4: kill-repair-rejoin — anti-entropy repair heals the cluster")
	m := soda.NewMembership(n)
	m.MarkSuspect(2, fmt.Errorf("crashed during scenario 1"))
	m.MarkSuspect(4, fmt.Errorf("scenario 1 read located its element corrupt"))
	lb.Restart(2)      // rejoins with stale storage: it missed tag2
	lb.Corrupt(4, nil) // disk swap: server 4 stops serving rot
	fmt.Printf("  server 2 restarts stale (missed tag %v); server 4 gets a clean disk\n", tag2)
	rp, err := soda.NewRepairer(codec, lb.Conns(), m,
		soda.WithRepairInterval(50*time.Millisecond),
		soda.WithRepairBackoff(soda.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond}))
	if err != nil {
		return err
	}
	for _, s := range []int{2, 4} {
		out, err := rp.RepairOnce(ctx, s)
		if err != nil {
			return fmt.Errorf("repair of server %d: %w", s, err)
		}
		fmt.Printf("  repair: server %d rebuilt from k=%d live elements -> %v, now %v\n", s, k, out, m.Health(s))
	}
	rz, err := soda.NewReader("r3", codec, lb.Conns(),
		soda.WithReaderFaults(0), soda.WithReadErrors(1), soda.WithReaderMembership(m))
	if err != nil {
		return err
	}
	res4, err := rz.Read(ctx, key)
	if err != nil {
		return fmt.Errorf("read after repair: %w", err)
	}
	if !bytes.Equal(res4.Value, v2) || res4.Tag != tag2 || len(res4.Corrupt) != 0 {
		return fmt.Errorf("read after repair = %v %q corrupt %v, want %v %q with none corrupt",
			res4.Tag, res4.Value, res4.Corrupt, tag2, v2)
	}
	fmt.Printf("  r3: all %d servers answer, nothing corrupt, value %q ✓\n", n, res4.Value)

	// A fresh kill, healed by the background repair loop this time,
	// while a membership-aware writer works around the hole.
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
	lb.Crash(0)
	m.MarkSuspect(0, fmt.Errorf("killed for scenario 4"))
	fmt.Println("  fault: server 0 killed; repair loop running in the background")
	wm, err := soda.NewWriter("w2", codec, lb.Conns(), soda.WithWriterMembership(m))
	if err != nil {
		return err
	}
	v5 := []byte("written around the quarantined server")
	tag5, err := wm.Write(ctx, key, v5)
	if err != nil {
		return fmt.Errorf("write around the kill: %w", err)
	}
	fmt.Printf("  w2: excluded quarantined server 0, wrote tag %v on the live 4/5\n", tag5)
	lb.Restart(0)
	if err := m.AwaitLive(ctx, 0); err != nil {
		return fmt.Errorf("server 0 never repaired: %w", err)
	}
	fmt.Println("  repair loop: server 0 rebuilt, readmitted ->", m.Health(0))
	res5, err := rz.Read(ctx, key)
	if err != nil {
		return fmt.Errorf("read after rejoin: %w", err)
	}
	if !bytes.Equal(res5.Value, v5) || res5.Tag != tag5 || len(res5.Corrupt) != 0 {
		return fmt.Errorf("read after rejoin = %v %q corrupt %v, want %v %q",
			res5.Tag, res5.Value, res5.Corrupt, tag5, v5)
	}
	fmt.Printf("  r3: full-strength read after rejoin: %q at tag %v ✓\n", res5.Value, res5.Tag)

	var ms soda.MetricsSnapshot
	for i := 0; i < n; i++ {
		ms.Add(lb.Server(i).MetricsSnapshot())
	}
	fmt.Printf("\nloopback cluster metrics: %d get-tags, %d put-datas, %d get-datas, %d get-elems, %d repair-puts (%d installed), %d relays, %d registration GCs, %d registers live\n",
		ms.GetTags, ms.PutDatas, ms.GetDatas, ms.GetElems, ms.RepairPuts, ms.RepairInstalls, ms.Relays, ms.RegGCs, ms.Registers)

	// ---- scenario 5: power-cut and recover from the node's own WAL
	fmt.Println("\nscenario 5: power-cut + recover — durable nodes come back from their own disk")
	dir, err := os.MkdirTemp("", "sodademo-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dlb, err := soda.NewDurableLoopback(n, dir) // FsyncAlways: acked == on disk
	if err != nil {
		return err
	}
	defer dlb.CloseServers()
	dm := soda.NewMembership(n)
	dw, err := soda.NewWriter("w1", codec, dlb.Conns(), soda.WithWriterMembership(dm))
	if err != nil {
		return err
	}
	v6 := []byte("logged before the lights go out")
	tag6, err := dw.Write(ctx, key, v6)
	if err != nil {
		return fmt.Errorf("durable write: %w", err)
	}
	fmt.Printf("  w1: wrote tag %v; every server WAL-logged and fsynced its element\n", tag6)

	dlb.PowerCut(3)
	dm.MarkSuspect(3, fmt.Errorf("power cut"))
	fmt.Println("  fault: power cut on server 3 — process gone, unsynced bytes gone")
	v7 := []byte("written during the outage")
	tag7, err := dw.Write(ctx, key, v7)
	if err != nil {
		return fmt.Errorf("write during outage: %w", err)
	}
	fmt.Printf("  w1: cluster keeps going, wrote tag %v on the live 4/5\n", tag7)

	rec, err := dlb.Recover(3)
	if err != nil {
		return fmt.Errorf("recover server 3: %w", err)
	}
	rtag, _, _ := rec.Snapshot(key)
	if rtag != tag6 {
		return fmt.Errorf("server 3 recovered to tag %v, want its pre-cut %v", rtag, tag6)
	}
	if !dm.Readmit(3) {
		return fmt.Errorf("readmit of server 3 failed from health %v", dm.Health(3))
	}
	fmt.Printf("  recover: server 3 replayed snapshot+WAL to tag %v, readmitted (no donor repair) -> %v\n", rtag, dm.Health(3))

	dr, err := soda.NewReader("r1", codec, dlb.Conns(), soda.WithReaderMembership(dm))
	if err != nil {
		return err
	}
	res6, err := dr.Read(ctx, key)
	if err != nil {
		return fmt.Errorf("read after recovery: %w", err)
	}
	if !bytes.Equal(res6.Value, v7) || res6.Tag != tag7 {
		return fmt.Errorf("read after recovery = %v %q, want %v %q", res6.Tag, res6.Value, tag7, v7)
	}
	fmt.Printf("  r1: read %q at tag %v with the recovered node back in quorums ✓\n", res6.Value, res6.Tag)

	var dms soda.MetricsSnapshot
	for i := 0; i < n; i++ {
		dms.Add(dlb.Server(i).MetricsSnapshot())
	}
	fmt.Printf("  durable cluster metrics: %d WAL appends, %d recoveries, %d torn-record drops, %d WAL failures\n",
		dms.WALAppends, dms.Recoveries, dms.WALTornDrops, dms.WALFailures)
	fmt.Printf("  slowest log's last timed fsync: %v (w1 logs on its own goroutine while fsyncs return from the page cache, on one leg per server once they wait for a device)\n",
		time.Duration(dms.WALSyncNanos))

	// ---- scenario 6: online reconfiguration — grow live, read across the flip, shrink back
	fmt.Println("\nscenario 6: online reconfiguration — grow [5,3] -> [7,4] live, then shrink back")
	glb := soda.NewLoopback(7) // two standby nodes beyond the active five
	codec7, err := soda.NewCodec(7, 4)
	if err != nil {
		return err
	}
	cfg0 := &soda.Config{Epoch: 0, Codec: codec, Conns: glb.ConnsAt(soda.SeedEpoch, 5), F: -1}
	view, err := soda.NewConfigView(cfg0)
	if err != nil {
		return err
	}
	ew, err := soda.NewEpochWriter("w1", view)
	if err != nil {
		return err
	}
	er, err := soda.NewEpochReader("r1", view)
	if err != nil {
		return err
	}
	v8 := []byte("written under epoch 0, [5,3]")
	tag8, err := ew.Write(ctx, key, v8)
	if err != nil {
		return fmt.Errorf("epoch-0 write: %w", err)
	}
	fmt.Printf("  w1: wrote tag %v under epoch 0 (every frame carries the epoch)\n", tag8)

	// Seal the old members up front so the next read provably straddles
	// the flip: its epoch-0 frames bounce with "want epoch 1" and it
	// parks on the view. (The coordinator re-issues the seal — every
	// phase is idempotent.)
	for i := 0; i < 5; i++ {
		if _, err := glb.Server(i).Reconfig(soda.ReconfigSeal, 1, 7, 4); err != nil {
			return fmt.Errorf("seal server %d: %w", i, err)
		}
	}
	fmt.Println("  flip: epoch 0 sealed on the old members; client quorums pause")
	type readOut struct {
		res soda.ReadResult
		err error
	}
	readC := make(chan readOut, 1)
	go func() {
		res, err := er.Read(ctx, key)
		readC <- readOut{res, err}
	}()
	select {
	case out := <-readC:
		return fmt.Errorf("read finished against a sealed epoch: %v %v", out.res, out.err)
	case <-time.After(50 * time.Millisecond):
		fmt.Println("  r1: read in flight is parked on the sealed epoch (no cross-epoch quorum)")
	}

	cfg1 := &soda.Config{Epoch: 1, Codec: codec7, Conns: glb.ConnsAt(1, 7), F: -1}
	rc := soda.NewReconfigurator(view, soda.WithReconfigLogf(func(format string, args ...any) {
		fmt.Printf("  "+format+"\n", args...)
	}))
	if err := rc.Apply(ctx, cfg1); err != nil {
		return fmt.Errorf("grow to epoch 1: %w", err)
	}
	out := <-readC
	if out.err != nil {
		return fmt.Errorf("read across the flip: %w", out.err)
	}
	if !bytes.Equal(out.res.Value, v8) || out.res.Tag != tag8 {
		return fmt.Errorf("read across the flip = %v %q, want %v %q", out.res.Tag, out.res.Value, tag8, v8)
	}
	fmt.Printf("  r1: parked read completed under epoch 1: %q at tag %v ✓ (migration preserved it)\n", out.res.Value, out.res.Tag)

	// A writer still holding the retired geometry is refused with the
	// typed stale-epoch error naming the epoch to fetch.
	oldW, err := soda.NewWriter("w-stale", codec, glb.ConnsAt(soda.SeedEpoch, 5))
	if err != nil {
		return err
	}
	if _, err := oldW.Write(ctx, key, []byte("from the past")); !errors.Is(err, soda.ErrStaleEpoch) {
		return fmt.Errorf("epoch-0 writer got %v, want ErrStaleEpoch", err)
	}
	fmt.Println("  check: a writer still on epoch 0 is NACKed with ErrStaleEpoch ✓")

	v9 := []byte("written under epoch 1, [7,4]")
	tag9, err := ew.Write(ctx, key, v9)
	if err != nil {
		return fmt.Errorf("epoch-1 write: %w", err)
	}
	fmt.Printf("  w1: same EpochWriter wrote tag %v across all 7 servers\n", tag9)

	cfg2 := &soda.Config{Epoch: 2, Codec: codec, Conns: glb.ConnsAt(2, 5), F: -1}
	if err := rc.Apply(ctx, cfg2); err != nil {
		return fmt.Errorf("shrink to epoch 2: %w", err)
	}
	res9, err := er.Read(ctx, key)
	if err != nil {
		return fmt.Errorf("read after shrink: %w", err)
	}
	if !bytes.Equal(res9.Value, v9) || res9.Tag != tag9 {
		return fmt.Errorf("read after shrink = %v %q, want %v %q", res9.Tag, res9.Value, tag9, v9)
	}
	for i := 5; i < 7; i++ {
		st := glb.Server(i).EpochStatus()
		if !st.Sealed {
			return fmt.Errorf("retired server %d is not sealed: %+v", i, st)
		}
	}
	fmt.Printf("  r1: back on [5,3] at epoch 2, read %q at tag %v ✓; retired servers 5-6 stay sealed\n", res9.Value, res9.Tag)
	return nil
}

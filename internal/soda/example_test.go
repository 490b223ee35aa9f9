package soda_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/soda"
)

// Each example runs an in-process cluster of n = 5 servers under a
// [5,3] Reed-Solomon code, so every server stores one coded element of
// a third of the value's size. They print only what is the same on
// every run: values, tags, located corrupt servers, health states and
// epochs.

// A SODA_err read (E = 1) survives a server that crashes mid-read and
// another whose storage rots: it decodes around the rotten element and
// names its server for quarantine.
//
// The writer is built with F = 0 so that Write returns only once every
// server holds the element: the read needs k + 2e = 5 matching elements,
// the crashed server's included. A writer that returned on n - f acks
// left a straggler whose element this read could miss (about 1 run in
// 10 before loopback writes reached every live server on return).
func ExampleReader_Read_sodaErr() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	codec, err := soda.NewCodec(5, 3)
	if err != nil {
		fmt.Println(err)
		return
	}
	lb := soda.NewLoopback(5)
	view, err := soda.NewConfigView(&soda.Config{Codec: codec, Conns: lb.Conns(), F: 0, E: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	w, err := view.Writer("w1")
	if err != nil {
		fmt.Println(err)
		return
	}
	r, err := view.Reader("r1")
	if err != nil {
		fmt.Println(err)
		return
	}
	tag, err := w.Write(ctx, "demo", []byte("one coded element per server"))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("wrote", tag)

	lb.Corrupt(4, soda.FlipByte(3)) // server 4 serves bit-flipped elements
	crashed := make(chan struct{})
	lb.OnDeliver(func(server int, _, _ string, d soda.Delivery) {
		if server == 2 && d.Initial {
			lb.Crash(2) // right after its answer reaches the reader
			close(crashed)
		}
	})
	res, err := r.Read(ctx, "demo")
	if err != nil {
		fmt.Println(err)
		return
	}
	<-crashed
	lb.OnDeliver(nil)
	fmt.Printf("read %q at %v\n", res.Value, res.Tag)
	fmt.Println("corrupt servers:", res.Corrupt)
	_, err = lb.Conns()[2].GetTag(ctx, "demo")
	fmt.Println("server 2 down:", errors.Is(err, soda.ErrServerDown))
	// Output:
	// wrote (1,w1)
	// read "one coded element per server" at (1,w1)
	// corrupt servers: [4]
	// server 2 down: true
}

// Operations go on with one server down and another quarantined. A
// writer at the default f = 1 completes on the four servers that
// answer; a reader whose Membership holds the rotten server as Suspect
// does not ask it, and with F = 2 (still below k) reads from the three
// that are left.
func ExampleMembership() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	codec, err := soda.NewCodec(5, 3)
	if err != nil {
		fmt.Println(err)
		return
	}
	lb := soda.NewLoopback(5)
	w, err := soda.NewWriter("w1", codec, lb.Conns())
	if err != nil {
		fmt.Println(err)
		return
	}
	lb.Crash(2)
	lb.Corrupt(4, soda.FlipByte(3))
	tag, err := w.Write(ctx, "demo", []byte("life goes on at quorum n-f"))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("wrote", tag, "with server 2 down")

	m := soda.NewMembership(5)
	m.MarkSuspect(4, errors.New("a read located its element corrupt"))
	fmt.Println("server 4:", m.Health(4))
	view, err := soda.NewConfigView(&soda.Config{Codec: codec, Conns: lb.Conns(), F: 2, Membership: m})
	if err != nil {
		fmt.Println(err)
		return
	}
	r, err := view.Reader("r1")
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := r.Read(ctx, "demo")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("read %q at %v, corrupt servers: %v\n", res.Value, res.Tag, res.Corrupt)
	// Output:
	// wrote (1,w1) with server 2 down
	// server 4: suspect
	// read "life goes on at quorum n-f" at (1,w1), corrupt servers: []
}

// The same protocol over localhost TCP: five NetServers and one
// multiplexed connection to each, which every key shares.
func ExampleTCPMuxConns() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs := make([]string, 5)
	for i := range addrs {
		ns, err := soda.ListenAndServe(soda.NewServer(i), "127.0.0.1:0")
		if err != nil {
			fmt.Println(err)
			return
		}
		defer ns.Close()
		addrs[i] = ns.Addr()
	}
	conns := soda.TCPMuxConns(addrs)
	defer soda.CloseConns(conns)
	codec, err := soda.NewCodec(5, 3)
	if err != nil {
		fmt.Println(err)
		return
	}
	w, err := soda.NewWriter("w1", codec, conns)
	if err != nil {
		fmt.Println(err)
		return
	}
	r, err := soda.NewReader("r1", codec, conns)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, kv := range [][2]string{{"demo", "framed, pipelined, relayed"}, {"demo/sibling", "second key, same conns"}} {
		tag, err := w.Write(ctx, kv[0], []byte(kv[1]))
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Println("wrote", kv[0], "at", tag)
	}
	res, err := r.Read(ctx, "demo")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("read %q at %v\n", res.Value, res.Tag)
	// Output:
	// wrote demo at (1,w1)
	// wrote demo/sibling at (1,w1)
	// read "framed, pipelined, relayed" at (1,w1)
}

// Kill, repair, rejoin. A server that restarts with stale storage is
// rebuilt from k live elements by RepairOnce and readmitted. Then, with
// the repair loop running, a server that lost its disk is quarantined,
// written around, and healed by the loop on its own.
func ExampleRepairer() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	codec, err := soda.NewCodec(5, 3)
	if err != nil {
		fmt.Println(err)
		return
	}
	lb := soda.NewLoopback(5)
	m := soda.NewMembership(5)
	view, err := soda.NewConfigView(&soda.Config{Codec: codec, Conns: lb.Conns(), F: -1, Membership: m})
	if err != nil {
		fmt.Println(err)
		return
	}
	w, err := view.Writer("w1")
	if err != nil {
		fmt.Println(err)
		return
	}
	rp, err := soda.NewRepairer(codec, lb.Conns(), m)
	if err != nil {
		fmt.Println(err)
		return
	}

	lb.Crash(2)
	m.MarkSuspect(2, errors.New("crashed"))
	tag, err := w.Write(ctx, "demo", []byte("written while server 2 was down"))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("wrote", tag, "around server 2")
	lb.Restart(2) // back, but it missed the write
	out, err := rp.RepairOnce(ctx, 2)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("repair of server 2:", out, "->", m.Health(2))

	rpCtx, rpCancel := context.WithCancel(ctx)
	rpDone := make(chan error, 1)
	go func() { rpDone <- rp.Run(rpCtx) }()
	defer func() {
		rpCancel()
		<-rpDone
	}()
	lb.Crash(0)
	m.MarkSuspect(0, errors.New("killed"))
	if tag, err = w.Write(ctx, "demo", []byte("written around the quarantined server")); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("wrote", tag, "around server 0")
	if _, err := lb.Recover(0); err != nil { // a fresh disk: it holds nothing
		fmt.Println(err)
		return
	}
	if err := m.AwaitLive(ctx, 0); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("repair loop: server 0 ->", m.Health(0))

	// Every server answers a full-strength SODA_err read, and none is
	// corrupt.
	full, err := soda.NewConfigView(&soda.Config{Codec: codec, Conns: lb.Conns(), F: 0, E: 1, Membership: m})
	if err != nil {
		fmt.Println(err)
		return
	}
	r, err := full.Reader("r1")
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := r.Read(ctx, "demo")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("read %q at %v, corrupt servers: %v\n", res.Value, res.Tag, res.Corrupt)
	// Output:
	// wrote (1,w1) around server 2
	// repair of server 2: installed -> live
	// wrote (2,w1) around server 0
	// repair loop: server 0 -> live
	// read "written around the quarantined server" at (2,w1), corrupt servers: []
}

// A power cut, then recovery from the node's own disk. Every durable
// server logs and syncs a put before it acknowledges it, so the node
// comes back from snapshot and WAL at the tag it acknowledged last, and
// is readmitted without a donor repair. The writes it missed while down
// are read from the others.
func ExampleNewDurableLoopback() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dir, err := os.MkdirTemp("", "soda-example-")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)
	lb, err := soda.NewDurableLoopback(5, dir)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer lb.CloseServers()
	codec, err := soda.NewCodec(5, 3)
	if err != nil {
		fmt.Println(err)
		return
	}
	m := soda.NewMembership(5)
	// F = 0: the first write returns once all five servers logged it.
	all, err := soda.NewConfigView(&soda.Config{Codec: codec, Conns: lb.Conns(), F: 0})
	if err != nil {
		fmt.Println(err)
		return
	}
	live, err := soda.NewConfigView(&soda.Config{Codec: codec, Conns: lb.Conns(), F: -1, Membership: m})
	if err != nil {
		fmt.Println(err)
		return
	}
	w1, err := all.Writer("w1")
	if err != nil {
		fmt.Println(err)
		return
	}
	w2, err := live.Writer("w2")
	if err != nil {
		fmt.Println(err)
		return
	}
	r, err := live.Reader("r1")
	if err != nil {
		fmt.Println(err)
		return
	}

	tag, err := w1.Write(ctx, "demo", []byte("logged before the lights go out"))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("wrote", tag, "on all five")
	lb.PowerCut(3)
	m.MarkSuspect(3, errors.New("power cut"))
	if tag, err = w2.Write(ctx, "demo", []byte("written during the outage")); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("wrote", tag, "around server 3")

	rec, err := lb.Recover(3)
	if err != nil {
		fmt.Println(err)
		return
	}
	recovered, _, _ := rec.Snapshot("demo")
	fmt.Println("server 3 recovered at", recovered, "readmitted:", m.Readmit(3), "->", m.Health(3))
	res, err := r.Read(ctx, "demo")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("read %q at %v\n", res.Value, res.Tag)
	// Output:
	// wrote (1,w1) on all five
	// wrote (2,w2) around server 3
	// server 3 recovered at (1,w1) readmitted: true -> live
	// read "written during the outage" at (2,w2)
}

// Online reconfiguration: the cluster grows from [5,3] to [7,4] while a
// read is in flight and shrinks back. The read started after the old
// members were sealed parks on the view, and completes under the new
// geometry once the flip installs it. A writer still on the retired
// configuration is refused with ErrStaleEpoch, and the two servers the
// shrink retires stay sealed.
func ExampleReconfigurator() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	lb := soda.NewLoopback(7) // two standby servers beyond the active five
	codec5, err := soda.NewCodec(5, 3)
	if err != nil {
		fmt.Println(err)
		return
	}
	codec7, err := soda.NewCodec(7, 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	view, err := soda.NewConfigView(&soda.Config{Codec: codec5, Conns: lb.ConnsAt(soda.SeedEpoch, 5), F: -1})
	if err != nil {
		fmt.Println(err)
		return
	}
	w, err := view.Writer("w1")
	if err != nil {
		fmt.Println(err)
		return
	}
	r, err := view.Reader("r1")
	if err != nil {
		fmt.Println(err)
		return
	}
	tag, err := w.Write(ctx, "demo", []byte("written under [5,3]"))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("wrote", tag, "at epoch", view.Current().Epoch())

	// Seal the old members ahead of the coordinator, so the next read
	// provably straddles the flip (every phase of a flip is idempotent).
	for i := 0; i < 5; i++ {
		if _, err := lb.Server(i).Reconfig(soda.ReconfigSeal, 1, 7, 4); err != nil {
			fmt.Println(err)
			return
		}
	}
	nacks := func() (sum uint64) {
		for i := 0; i < 5; i++ {
			sum += lb.Server(i).MetricsSnapshot().EpochNacks
		}
		return sum
	}
	type readOut struct {
		res soda.ReadResult
		err error
	}
	readC := make(chan readOut, 1)
	go func() {
		res, err := r.Read(ctx, "demo")
		readC <- readOut{res, err}
	}()
	for nacks() == 0 && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	select {
	case out := <-readC:
		fmt.Println("read finished against a sealed epoch:", out.res.Tag, out.err)
		return
	default:
		fmt.Println("read refused by the sealed epoch, parked")
	}

	rc := soda.NewReconfigurator(view)
	if err := rc.Apply(ctx, &soda.Config{Codec: codec7, Conns: lb.ConnsAt(1, 7), F: -1}); err != nil {
		fmt.Println(err)
		return
	}
	cur := view.Current()
	fmt.Printf("epoch %d: [%d,%d]\n", cur.Epoch(), cur.N(), cur.K())
	out := <-readC
	if out.err != nil {
		fmt.Println(out.err)
		return
	}
	fmt.Printf("parked read: %q at %v\n", out.res.Value, out.res.Tag)

	stale, err := soda.NewWriter("w-stale", codec5, lb.ConnsAt(soda.SeedEpoch, 5))
	if err != nil {
		fmt.Println(err)
		return
	}
	_, err = stale.Write(ctx, "demo", []byte("from the past"))
	fmt.Println("epoch-0 writer refused:", errors.Is(err, soda.ErrStaleEpoch))

	if tag, err = w.Write(ctx, "demo", []byte("written under [7,4]")); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("wrote", tag, "at epoch", view.Current().Epoch())
	if err := rc.Apply(ctx, &soda.Config{Codec: codec5, Conns: lb.ConnsAt(2, 5), F: -1}); err != nil {
		fmt.Println(err)
		return
	}
	cur = view.Current()
	fmt.Printf("epoch %d: [%d,%d]\n", cur.Epoch(), cur.N(), cur.K())
	res, err := r.Read(ctx, "demo")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("read %q at %v\n", res.Value, res.Tag)
	for i := 5; i < 7; i++ {
		fmt.Printf("retired server %d sealed: %v\n", i, lb.Server(i).EpochStatus().Sealed)
	}
	// Output:
	// wrote (1,w1) at epoch 0
	// read refused by the sealed epoch, parked
	// epoch 1: [7,4]
	// parked read: "written under [5,3]" at (1,w1)
	// epoch-0 writer refused: true
	// wrote (2,w1) at epoch 1
	// epoch 2: [5,3]
	// read "written under [7,4]" at (2,w1)
	// retired server 5 sealed: true
	// retired server 6 sealed: true
}

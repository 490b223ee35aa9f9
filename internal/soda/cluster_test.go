package soda

import (
	"slices"
	"testing"
)

// The cluster harness. The paper states its claims — atomicity, and
// liveness with up to f crashed servers — for any reliable point-to-point
// channel, so a test of them runs once per transport: forRows runs its
// body as t.Run(row, …), the innermost subtest, on each row that can
// inject every fault the test declares, and the body builds its clusters
// with r.cluster.
//
//   - memory: NewLoopback.
//   - durable: NewDurableLoopback on t.TempDir(), every put synced.
//   - sockets: a NetServer per server on 127.0.0.1:0, behind TCPMuxConns.
//     A crash is NetServer.Close (the core lives on), a restart serves the
//     same core on the same address, a recover a fresh NewServer there.
//
// The rows a test leaves out. This table is read, not acted on: forRows
// leaves a row out by the faults the test declares.
//
//	test (case)                                 left out         fault it cannot inject
//	TestReadNeverGoesBackwards                  sockets          hang
//	TestSodaErrBoundary (e > 0, and one-more)   sockets          corrupt
//	TestReadRidesThroughServerFailures
//	  silent crash before read                  sockets          hang
//	  fail-stop crash mid-read                  sockets          delivery hook
//	TestLinearizabilityWithFault                sockets          hang
//	TestLinearizabilityErrReader                sockets          corrupt
//	TestKillRepairRejoinSoak (recover-*)        memory, sockets  power cut
//	TestPowerCutRecoverNoDonorRepair            memory, sockets  power cut
//
// Why: a NetServer cannot be silent with its connections up (Close is a
// crash its clients see), it serves what its core holds (Corrupt
// transforms an element on its way out of a loopback conn), and OnDeliver
// is a Loopback method with no socket counterpart. Only a durable node has
// a WAL tail to lose; a memory node's recover loses everything.

// fault is one kind of failure a test injects through its cluster.
type fault uint

const (
	crash       fault = 1 << iota // fail-stop: the server's conns fail, its registrations end
	restart                       // a crashed server back with its state as the crash left it
	recoverDisk                   // a crashed server back with what its disk holds
	powerCut                      // a crash that loses what the node's WAL never synced
	hang                          // a silent crash: nothing answered, connections up
	corrupt                       // every element served passes through a transform
	deliverHook                   // a hook called after each delivery to a reader
)

// row is a transport: the faults it can inject, and those the test
// running on it declared.
type row struct {
	name  string
	can   fault
	needs fault
}

var clusterRows = []row{
	{name: "memory", can: crash | restart | recoverDisk | hang | corrupt | deliverHook},
	{name: "durable", can: crash | restart | recoverDisk | powerCut | hang | corrupt | deliverHook},
	{name: "sockets", can: crash | restart | recoverDisk},
}

// forRows runs body as t.Run(row, …) on every row that can inject each
// fault in needs.
func forRows(t *testing.T, needs fault, body func(t *testing.T, r row)) {
	t.Helper()
	for _, r := range clusterRows {
		if needs&^r.can != 0 {
			continue // the table above says why
		}
		r.needs = needs
		t.Run(r.name, func(t *testing.T) { body(t, r) })
	}
}

// on is the named row, for a test that runs on it alone.
func on(name string, needs fault) row {
	i := slices.IndexFunc(clusterRows, func(r row) bool { return r.name == name })
	r := clusterRows[i]
	r.needs = needs
	return r
}

// cluster is an [n, k] cluster on one row. Its conn sets and servers are
// closed at the end of the test that built it — before a checkNoLeaks the
// test armed first looks for what is left running. Only a hook injects a
// fault off the test's goroutine, and only on a loopback row: the sockets
// fields are the test goroutine's.
type cluster struct {
	t     *testing.T
	row   row
	codec *Codec
	n     int
	lb    *Loopback // memory and durable

	addrs []string     // sockets, from here on
	ns    []*NetServer // nil while the server is down
	cores []*Server
	sets  [][]Conn
}

// cluster builds an n-server cluster on the row with an [n, k] codec.
func (r row) cluster(t *testing.T, n, k int) *cluster {
	t.Helper()
	codec, err := NewCodec(n, k)
	if err != nil {
		t.Fatalf("NewCodec(%d,%d): %v", n, k, err)
	}
	c := &cluster{t: t, row: r, codec: codec, n: n}
	switch r.name {
	case "memory":
		c.lb = NewLoopback(n)
	case "durable":
		if c.lb, err = NewDurableLoopback(n, t.TempDir()); err != nil {
			t.Fatalf("NewDurableLoopback: %v", err)
		}
		t.Cleanup(func() { c.lb.CloseServers() })
	case "sockets":
		c.addrs, c.ns, c.cores = make([]string, n), make([]*NetServer, n), make([]*Server, n)
		t.Cleanup(c.close)
		for i := range c.cores {
			c.cores[i] = NewServer(i)
			c.listen(i, "127.0.0.1:0")
		}
	}
	return c
}

func (c *cluster) listen(i int, addr string) {
	ns, err := ListenAndServe(c.cores[i], addr)
	if err != nil {
		c.t.Fatalf("sockets row: serving server %d on %s: %v", i, addr, err)
	}
	c.ns[i], c.addrs[i] = ns, ns.Addr()
}

// close closes every conn set handed out, then every server still up.
func (c *cluster) close() {
	for _, conns := range c.sets {
		CloseConns(conns)
	}
	for _, ns := range c.ns {
		if ns != nil {
			ns.Close()
		}
	}
}

// conns returns a fresh conn set to every server, at the seed epoch.
func (c *cluster) conns() []Conn { return c.connsAt(SeedEpoch, c.n) }

// connsAt returns a fresh conn set to the first n servers, stamping epoch.
func (c *cluster) connsAt(epoch uint64, n int) []Conn {
	if c.lb != nil {
		return c.lb.ConnsAt(epoch, n)
	}
	conns := TCPMuxConnsAt(epoch, c.addrs[:n])
	c.sets = append(c.sets, conns)
	return conns
}

// server is server i's state machine, for inspection.
func (c *cluster) server(i int) *Server {
	if c.lb != nil {
		return c.lb.Server(i)
	}
	return c.cores[i]
}

// use panics if the test injects a fault it did not declare to forRows,
// which chose its rows by them (a hook cannot fail the test).
func (c *cluster) use(f fault) {
	if c.row.needs&f == 0 {
		panic("cluster: a test injected a fault it did not declare to forRows")
	}
}

// crash fail-stops server i.
func (c *cluster) crash(i int) {
	c.use(crash)
	if c.lb != nil {
		c.lb.Crash(i)
	} else if ns := c.ns[i]; ns != nil {
		c.ns[i] = nil
		ns.Close()
	}
}

// restart brings a crashed server i back with its storage as the crash
// left it.
func (c *cluster) restart(i int) {
	c.use(restart)
	if c.lb != nil {
		c.lb.Restart(i)
	} else if c.ns[i] == nil {
		c.listen(i, c.addrs[i])
	}
}

// recover brings a crashed server i back with what its disk holds:
// nothing on the memory and sockets rows, its WAL on the durable one.
func (c *cluster) recover(i int) *Server {
	c.use(recoverDisk)
	if c.lb != nil {
		s, err := c.lb.Recover(i)
		if err != nil {
			c.t.Fatalf("Recover(%d): %v", i, err)
		}
		return s
	}
	if c.ns[i] != nil {
		c.t.Fatalf("recover of server %d, which is up", i)
	}
	c.cores[i] = NewServer(i)
	c.listen(i, c.addrs[i])
	return c.cores[i]
}

// powerCut crashes durable server i, its WAL cut back to its last fsync.
func (c *cluster) powerCut(i int) {
	c.use(powerCut)
	c.lb.PowerCut(i)
}

// hang silently crashes server i: nothing it is asked is answered.
func (c *cluster) hang(i int) {
	c.use(hang)
	c.lb.hang(i)
}

// corrupt makes every element server i serves pass through fn.
func (c *cluster) corrupt(i int, fn func([]byte) []byte) {
	c.use(corrupt)
	c.lb.Corrupt(i, fn)
}

// onDeliver calls fn after each delivery to a reader.
func (c *cluster) onDeliver(fn func(server int, key, readerID string, d Delivery)) {
	c.use(deliverHook)
	c.lb.OnDeliver(fn)
}

package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/soda"
)

// The cluster geometry every workload shares: n servers, any k of whose
// elements decode a value, f = (n-k)/2 = 1 crash tolerated.
const (
	nServers = 5
	kData    = 3
)

// spec is one workload. The three *-small workloads carry identical
// traffic and differ only in transport; loop-large differs from
// loop-small only in value size (and the key count that keeps the
// stored set bounded).
type spec struct {
	name      string
	why       string
	transport string // loopback | mux | wal
	valueSize int
	keys      int
}

var workloads = []spec{
	{"loop-small", "in-process loopback, 128 B values: client quorum logic and server apply do nearly all the work; control for the other three",
		"loopback", 128, 10000},
	{"mux-small", "same traffic over 5 TCP listeners on 127.0.0.1 and one multiplexed connection each: wire encode/decode, mux pump and socket syscalls dominate",
		"mux", 128, 10000},
	{"wal-small", "same traffic on durable loopback with FsyncAlways: every write crosses WAL framing, CRC, group commit, fsync and snapshot rotation; reads cross none",
		"wal", 128, 10000},
	{"loop-large", "loopback with 1 MiB values on 64 keys (107 MiB stored): codec, rs, gf256 kernels and element copies dominate; fixed per-op cost is small",
		"loopback", 1 << 20, 64},
}

func findWorkload(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// clientCount is the closed-loop population: one application thread per
// core, capped so a big machine does not turn every workload into a
// contention test.
func clientCount() int { return min(runtime.NumCPU(), 4) }

// cluster is five servers in this process plus the raw conns to them.
type cluster struct {
	servers []*soda.Server
	conns   []soda.Conn
	close   func() error
}

func startCluster(sp spec, waldir string) (*cluster, error) {
	switch sp.transport {
	case "loopback":
		lb := soda.NewLoopback(nServers)
		return loopbackCluster(lb, func() error { return nil }), nil
	case "wal":
		if err := os.MkdirAll(waldir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(waldir, "wal-")
		if err != nil {
			return nil, err
		}
		lb, err := soda.NewDurableLoopback(nServers, dir, soda.WithFsync(soda.FsyncAlways))
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		return loopbackCluster(lb, func() error {
			return errors.Join(lb.CloseServers(), os.RemoveAll(dir))
		}), nil
	case "mux":
		cl := &cluster{}
		var listeners []*soda.NetServer
		cl.close = func() error {
			soda.CloseConns(cl.conns)
			var err error
			for _, ns := range listeners {
				err = errors.Join(err, ns.Close())
			}
			return err
		}
		addrs := make([]string, nServers)
		for i := range addrs {
			srv := soda.NewServer(i)
			ns, err := soda.ListenAndServe(srv, "127.0.0.1:0")
			if err != nil {
				cl.close()
				return nil, err
			}
			listeners = append(listeners, ns)
			cl.servers = append(cl.servers, srv)
			addrs[i] = ns.Addr()
		}
		cl.conns = soda.TCPMuxConns(addrs)
		return cl, nil
	}
	return nil, fmt.Errorf("unknown transport %q", sp.transport)
}

func loopbackCluster(lb *soda.Loopback, close func() error) *cluster {
	cl := &cluster{conns: lb.Conns(), close: close}
	for i := 0; i < nServers; i++ {
		cl.servers = append(cl.servers, lb.Server(i))
	}
	return cl
}

// A value is self-describing so a read can be checked without trusting
// the system's tags: key index, per-key sequence number, CRC-32C of the
// body. The body is the writing client's random block with (key, seq)
// stamped at the start of each third, so every coded element's source
// bytes change on every write and a decode that mixed two versions
// fails the CRC.
const hdrLen = 12

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func fillValue(v []byte, key, seq uint32) {
	body := v[hdrLen:]
	stamp := uint64(key)<<32 | uint64(seq)
	for i := 0; i < kData; i++ {
		binary.LittleEndian.PutUint64(body[i*(len(body)/kData):], stamp)
	}
	binary.LittleEndian.PutUint32(v[0:], key)
	binary.LittleEndian.PutUint32(v[4:], seq)
	binary.LittleEndian.PutUint32(v[8:], crc32.Checksum(body, castagnoli))
}

// checkValue is the output check on one read of key. floor is the
// highest sequence whose write had returned before the read was issued,
// ceil the highest sequence issued by the time the read returned: a
// linearizable register returns a sequence in [floor, ceil]. Writes of
// one key are issued one at a time (keyState.mu), so sequence order is
// real-time order and the bounds need no tags.
func checkValue(v []byte, size int, key, floor, ceil uint32) error {
	if len(v) != size {
		return fmt.Errorf("value of %d bytes, want %d", len(v), size)
	}
	if got := binary.LittleEndian.Uint32(v[0:]); got != key {
		return fmt.Errorf("value of key %d read from key %d", got, key)
	}
	if binary.LittleEndian.Uint32(v[8:]) != crc32.Checksum(v[hdrLen:], castagnoli) {
		return errors.New("body fails its CRC")
	}
	seq := binary.LittleEndian.Uint32(v[4:])
	if seq < floor {
		return fmt.Errorf("stale: sequence %d, but %d was written before the read began", seq, floor)
	}
	if seq > ceil {
		return fmt.Errorf("sequence %d read, but only %d issued", seq, ceil)
	}
	return nil
}

// op is one generated operation. The program under test sees only the
// ops; the seed never reaches it.
type op struct {
	key   uint32
	write bool
}

// kind indexes per-op-type arrays: opRead or opWrite.
func (o op) kind() int {
	if o.write {
		return opWrite
	}
	return opRead
}

func newGen(seed uint64, client int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(client)))
}

// nextOp draws a uniform key and a fair read-or-write coin.
func nextOp(rng *rand.Rand, keys int) op {
	return op{key: uint32(rng.IntN(keys)), write: rng.Uint64()&1 == 1}
}

// randomBlock is a client's value buffer: incompressible bytes that
// come from their own stream, so filling it does not shift the op
// sequence.
func randomBlock(size int, seed uint64, client int) []byte {
	rng := rand.New(rand.NewPCG(seed, 1<<32+uint64(client)))
	buf := make([]byte, size)
	for i := 0; i+8 <= size; i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], rng.Uint64())
	}
	return buf
}

// keyState orders the writes of one key and publishes the bounds the
// output check needs.
type keyState struct {
	mu     sync.Mutex    // one write of a key in flight at a time
	issued atomic.Uint32 // highest sequence handed to a Write
	done   atomic.Uint32 // highest sequence whose Write returned
}

// harness is one running cluster with a shared Writer and Reader, the
// key bookkeeping, and the op counters every phase adds to.
type harness struct {
	sp      spec
	cl      *cluster
	w       *soda.Writer
	r       *soda.Reader
	names   []string
	keys    []keyState
	clients int

	attempted atomic.Int64
	failed    atomic.Int64
	errOnce   sync.Once
	firstErr  error
}

func (h *harness) fail(err error) {
	h.failed.Add(1)
	h.errOnce.Do(func() { h.firstErr = err })
}

// prewriters is the set-up's writer count: not the closed-loop
// population, just enough in flight that a durable cluster's group
// commit and a socket's pipelining keep set-up short.
const prewriters = 16

// setUp starts the cluster, builds the shared clients and writes every
// key once, so no read ever meets an empty register. Its duration is
// setup_s.
func setUp(sp spec, waldir string) (_ *harness, _ time.Duration, err error) {
	start := time.Now()
	cl, err := startCluster(sp, waldir)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		if err != nil {
			cl.close()
		}
	}()
	h := &harness{sp: sp, cl: cl, clients: clientCount(),
		names: make([]string, sp.keys), keys: make([]keyState, sp.keys)}
	for i := range h.names {
		h.names[i] = fmt.Sprintf("k%05d", i)
	}
	if h.w, h.r, err = h.newClients("bench", cl.conns); err != nil {
		return nil, 0, err
	}
	// A write returns on n-f acks and may never reach the last server, so
	// keys are rewritten until every server holds an element of each:
	// from then on stored bytes are an exact count, n elements per key.
	todo := make([]uint32, sp.keys)
	for k := range todo {
		todo[k] = uint32(k)
	}
	for pass := 0; len(todo) > 0; pass++ {
		if pass == 10 {
			return nil, 0, fmt.Errorf("prewrite: %d keys still missing on a server after %d passes", len(todo), pass)
		}
		fanOut(prewriters, func(c int) {
			buf := randomBlock(sp.valueSize, 0, c)
			for i := c; i < len(todo); i += prewriters {
				h.write(context.Background(), h.w, todo[i], buf)
			}
		})
		if h.firstErr != nil {
			return nil, 0, fmt.Errorf("prewrite: %w", h.firstErr)
		}
		todo = todo[:0]
		for k, name := range h.names {
			for _, srv := range cl.servers {
				if _, elem, _ := srv.Snapshot(name); elem == nil {
					todo = append(todo, uint32(k))
					break
				}
			}
		}
	}
	return h, time.Since(start), nil
}

func (h *harness) newClients(id string, conns []soda.Conn) (*soda.Writer, *soda.Reader, error) {
	codec, err := soda.NewCodec(nServers, kData)
	if err != nil {
		return nil, nil, err
	}
	w, err := soda.NewWriter(id, codec, conns)
	if err != nil {
		return nil, nil, err
	}
	r, err := soda.NewReader(id, codec, conns)
	return w, r, err
}

// parallel runs fn once per client and waits for all of them.
func (h *harness) parallel(fn func(client int)) { fanOut(h.clients, fn) }

func fanOut(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// write issues the next sequence of key from buf and returns the
// latency of the Write call alone.
func (h *harness) write(ctx context.Context, w *soda.Writer, key uint32, buf []byte) time.Duration {
	ks := &h.keys[key]
	ks.mu.Lock()
	defer ks.mu.Unlock()
	seq := ks.issued.Add(1)
	fillValue(buf, key, seq)
	start := time.Now()
	_, err := w.Write(ctx, h.names[key], buf)
	lat := time.Since(start)
	traceRoot(ctx, start, lat)
	h.attempted.Add(1)
	if err != nil {
		h.fail(fmt.Errorf("write %s: %w", h.names[key], err))
		return lat
	}
	ks.done.Store(seq)
	return lat
}

// read reads key, checks the value, and returns the latency of the Read
// call alone.
func (h *harness) read(ctx context.Context, r *soda.Reader, key uint32) time.Duration {
	ks := &h.keys[key]
	floor := ks.done.Load()
	start := time.Now()
	res, err := r.Read(ctx, h.names[key])
	lat := time.Since(start)
	traceRoot(ctx, start, lat)
	h.attempted.Add(1)
	if err == nil {
		err = checkValue(res.Value, h.sp.valueSize, key, floor, ks.issued.Load())
	}
	if err != nil {
		h.fail(fmt.Errorf("read %s: %w", h.names[key], err))
	}
	return lat
}

// sweep reads every key once after the clients have stopped: with no
// write in flight each must return exactly its last sequence.
func (h *harness) sweep() {
	h.parallel(func(c int) {
		for k := c; k < h.sp.keys; k += h.clients {
			h.read(context.Background(), h.r, uint32(k))
		}
	})
}

// storageOverhead is stored element bytes over all servers and keys,
// divided by the user bytes of those keys' live values.
func (h *harness) storageOverhead() float64 {
	var stored int64
	for _, srv := range h.cl.servers {
		for _, name := range h.names {
			_, elem, _ := srv.Snapshot(name)
			stored += int64(len(elem))
		}
	}
	return float64(stored) / float64(int64(h.sp.keys)*int64(h.sp.valueSize))
}

// Latencies are kept per op type and per slice of the window, so each
// timing can be reported as the median over slices of a per-slice
// percentile: one disturbed half-second moves one slice, not the figure.
const (
	opRead = iota
	opWrite
	windowSlices = 10
)

type samples [2][windowSlices][]uint32

// window is the merged outcome of one measured run.
type window struct {
	lat     samples
	seconds float64
	traces  []*clientTrace // nil on an untraced run
}

// run drives the closed loop: every client issues its next op when the
// previous one returns, for warmup (untimed) and then measure. With
// traced, each op carries a trace record through ctx to the conn
// decorators the given Writer and Reader were built on.
func (h *harness) run(seed uint64, w *soda.Writer, r *soda.Reader, warmup, measure time.Duration, traced bool) *window {
	win := &window{seconds: measure.Seconds()}
	if traced {
		win.traces = make([]*clientTrace, h.clients)
	}
	per := make([]samples, h.clients)
	expect := int(measure.Seconds()*40000/windowSlices) + 1024
	t0 := time.Now().Add(warmup)
	h.parallel(func(c int) {
		rng := newGen(seed, c)
		buf := randomBlock(h.sp.valueSize, seed, c)
		lat := &per[c]
		for kind := range lat {
			for s := range lat[kind] {
				lat[kind][s] = make([]uint32, 0, expect)
			}
		}
		var tr *clientTrace
		if traced {
			tr = newClientTrace(c)
			win.traces[c] = tr
		}
		ctx := context.Background()
		for {
			at := time.Since(t0)
			if at >= measure {
				break
			}
			o := nextOp(rng, h.sp.keys)
			var ot *opTrace
			opctx := ctx
			if tr != nil && at >= 0 {
				ot = tr.begin(o)
				opctx = context.WithValue(ctx, traceKey{}, ot)
			}
			var d time.Duration
			if o.write {
				d = h.write(opctx, w, o.key, buf)
			} else {
				d = h.read(opctx, r, o.key)
			}
			if at < 0 {
				continue
			}
			if ot != nil {
				tr.end(ot)
			}
			s := int(at * windowSlices / measure)
			lat[o.kind()][s] = append(lat[o.kind()][s], uint32(min(d, 1<<32-1)))
		}
		if tr != nil {
			tr.flush()
		}
	})
	for c := range per {
		for kind := range per[c] {
			for s := range per[c][kind] {
				win.lat[kind][s] = append(win.lat[kind][s], per[c][kind][s]...)
			}
		}
	}
	return win
}

// ops is the number of ops the window completed.
func (w *window) ops() (n int) {
	for kind := range w.lat {
		n += w.count(kind)
	}
	return n
}

func (w *window) count(kind int) (n int) {
	for _, s := range w.lat[kind] {
		n += len(s)
	}
	return n
}

// opsPerSec is the median over slices of the slice's completion rate.
func (w *window) opsPerSec() float64 {
	rates := make([]float64, windowSlices)
	for s := range rates {
		n := len(w.lat[opRead][s]) + len(w.lat[opWrite][s])
		rates[s] = float64(n) / (w.seconds / windowSlices)
	}
	return median(rates)
}

// latencyUS is the median over slices of the slice's nearest-rank p-th
// percentile, in microseconds.
func (w *window) latencyUS(kind int, p float64) float64 {
	var ps []float64
	for _, s := range w.lat[kind] {
		if len(s) > 0 {
			slices.Sort(s)
			ps = append(ps, float64(percentile(s, p))/1e3)
		}
	}
	return median(ps)
}

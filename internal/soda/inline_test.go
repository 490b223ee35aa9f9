package soda

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A Writer or Reader asks each loopback conn on the calling goroutine and
// sends a leg for every exchange still owed; a conn that wraps another is
// owed them all. The tests below hold raw, wrapped and mixed conn sets to
// the same behaviour, and pin each way an exchange comes to be owed.

// opaqueConn hides what its conn can do beyond Conn: it is owed a leg for
// every exchange.
type opaqueConn struct{ Conn }

func opaque(conns []Conn) []Conn {
	out := make([]Conn, len(conns))
	for i, c := range conns {
		out[i] = opaqueConn{c}
	}
	return out
}

func rawConns(conns []Conn) []Conn { return conns }

// mixedServer is the one server mixedConns wraps.
const mixedServer = 3

// mixedConns wraps one conn of the set: that server is owed its legs, the
// others are asked on the caller's goroutine.
func mixedConns(conns []Conn) []Conn {
	conns[mixedServer] = opaqueConn{conns[mixedServer]}
	return conns
}

// exchanges counts what a countedConn was asked.
type exchanges struct{ getTags, putDatas, getDatas atomic.Int64 }

// countedConn is an opaqueConn that counts the client exchanges sent
// through it: only a leg sends any.
type countedConn struct {
	Conn
	seen *exchanges
}

func (c countedConn) GetTag(ctx context.Context, key string) (Tag, error) {
	c.seen.getTags.Add(1)
	return c.Conn.GetTag(ctx, key)
}

func (c countedConn) PutData(ctx context.Context, key string, t Tag, elem []byte, vlen int) error {
	c.seen.putDatas.Add(1)
	return c.Conn.PutData(ctx, key, t, elem, vlen)
}

func (c countedConn) GetData(ctx context.Context, key, readerID string, deliver func(Delivery)) error {
	c.seen.getDatas.Add(1)
	return c.Conn.GetData(ctx, key, readerID, deliver)
}

// legsHome reports whether every fan-out worker in the process is parked
// on its idle list: no leg is running, and none is on its way to a worker.
// A leg is a message in flight — it outlives the operation that sent it (a
// write returns on n-f acks, a read leaves its registrations to be closed
// behind it) — and a sequential test waits for this before its next step.
func legsHome() bool {
	idle := 0
	for i := range spawnPool.lists {
		l := &spawnPool.lists[i]
		l.mu.Lock()
		idle += len(l.idle)
		l.mu.Unlock()
	}
	return idle == parkedWorkers()
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// startedGoroutines counts the live goroutines other than the caller and
// the process-wide parked pools checkNoLeaks allows (the rs coding
// workers start lazily, on the first degraded 1 MiB decode).
func startedGoroutines() (n int) {
	for _, g := range goroutineStanzas() {
		if !allowlistedGoroutine(g) {
			n++
		}
	}
	return n
}

// thisGoroutine names the calling goroutine ("goroutine 17").
func thisGoroutine() string {
	buf := make([]byte, 64)
	return goroutineID(string(buf[:runtime.Stack(buf, false)]))
}

// diffOp is what one operation of a differential schedule came to.
type diffOp struct {
	desc    string
	class   string // ok, unavailable, ctx
	stale   bool   // a StaleEpochError is in the chain; compared only when no server is crashed
	tag     Tag
	value   []byte
	corrupt string
}

func classify(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "ctx"
	case errors.Is(err, ErrUnavailable):
		return "unavailable"
	}
	return "other: " + err.Error()
}

// runDiffSchedule plays the schedule seed names against a fresh n5k3
// loopback cluster through wrap(conns): writes and reads over three keys
// from one goroutine, with a crash, hang, restart, corruption, single-
// server seal or whole-cluster epoch flip drawn from the same RNG
// between operations. Everything the RNG is asked depends only on the
// seed and on the fault state it produced, so two runs of one seed ask
// it the same questions. An operation the fault state leaves waiting on
// a server that will never answer gets a short deadline, and the run
// checks that exactly those end on it. The run waits after every
// operation until its legs are home (legsHome): a leg still lands after
// its operation returned, and the next fault must find the same servers
// written whichever conns were owed one.
//
// With durable set the servers log to a temp dir (syncs pinned to take no
// time, see pinnedCluster), a crash is a power cut and a crashed server
// comes back by Recover, from its disk, and a server that is down is
// brought back before its epoch is moved, which a closed log refuses. At the end every node is closed,
// recovered from its directory once more and compared with what it held
// live: whichever goroutine logged a put, the log replays to it.
func runDiffSchedule(t *testing.T, seed int64, e int, wrap func([]Conn) []Conn, durable bool) (ops []diffOp, final []string) {
	t.Helper()
	const n, k, steps = 5, 3, 160
	readerF := 1
	if e > 0 {
		readerF = 0
	}
	codec, lb := newCluster(t, n, k)
	if durable {
		lb = pinnedLoopback(t)
	}
	recoverServer := func(i int) {
		rec, err := lb.Recover(i)
		if err != nil {
			t.Fatalf("seed %d: recover %d: %v", seed, i, err)
		}
		pinSyncs(rec, 0)
	}
	rng := rand.New(rand.NewSource(seed))
	keys := []string{"diff/a", "diff/b", "diff/c"}
	var crashed, hung, sealed, corrupt [n]bool
	count := func(b [n]bool) (c int) {
		for _, v := range b {
			if v {
				c++
			}
		}
		return c
	}
	epoch := uint64(SeedEpoch)
	var w *Writer
	var r *Reader
	build := func() {
		conns := wrap(lb.ConnsAt(epoch, n))
		w = mustWriter(t, "w", codec, conns)
		r = mustReaderOn(t, "r", &Config{Codec: codec, Conns: conns, F: readerF, E: e})
	}
	build()
	answers := func(i int) bool { return !crashed[i] && !hung[i] && !sealed[i] }

	for step := 0; step < steps; step++ {
		i := rng.Intn(n)
		down := count(crashed) + count(hung)
		switch x := rng.Intn(100); {
		case x < 8:
			if !crashed[i] && !hung[i] && down < 2 {
				if durable {
					lb.PowerCut(i)
				} else {
					lb.Crash(i)
				}
				crashed[i] = true
			}
		case x < 14:
			if !crashed[i] && !hung[i] && down < 2 {
				lb.hang(i)
				hung[i] = true
			}
		case x < 34:
			for s := 0; s < n; s++ { // the first server down from i on
				if j := (i + s) % n; crashed[j] || hung[j] {
					if durable && crashed[j] {
						recoverServer(j)
					} else {
						lb.Restart(j)
					}
					crashed[j], hung[j] = false, false
					break
				}
			}
		case x < 40:
			if corrupt[i] {
				lb.Corrupt(i, nil)
				corrupt[i] = false
			} else if count(corrupt) < e {
				lb.Corrupt(i, FlipByte(rng.Intn(64)))
				corrupt[i] = true
			}
		case x < 45:
			if !sealed[i] && !(durable && crashed[i]) {
				if _, err := lb.Server(i).Reconfig(ReconfigSeal, epoch+1, n, k); err != nil {
					t.Fatalf("seed %d step %d: seal %d: %v", seed, step, i, err)
				}
				sealed[i] = true
			}
		case x < 53:
			for s := 0; s < n; s++ {
				if durable && crashed[s] {
					recoverServer(s)
					crashed[s] = false
				}
				for _, op := range []ReconfigOp{ReconfigSeal, ReconfigActivate} {
					if _, err := lb.Server(s).Reconfig(op, epoch+1, n, k); err != nil {
						t.Fatalf("seed %d step %d: flip of %d: %v", seed, step, s, err)
					}
				}
			}
			epoch++
			sealed = [n]bool{}
			build()
		}

		key := keys[rng.Intn(len(keys))]
		write := rng.Intn(2) == 0
		size := 1 + rng.Intn(300)
		if rng.Intn(16) == 0 {
			size = 3*elemHandoffMin + rng.Intn(1000) // elements that change hands
		}

		// What the fault state does to this operation.
		up, refused := 0, 0
		var newest Tag
		for s := 0; s < n; s++ {
			if crashed[s] || (sealed[s] && !hung[s]) {
				refused++
			}
			if answers(s) {
				up++
				if tag, _, _ := lb.Server(s).Snapshot(key); newest.Less(tag) {
					newest = tag
				}
			}
		}
		holders := 0
		for s := 0; s < n; s++ {
			if tag, _, _ := lb.Server(s).Snapshot(key); answers(s) && tag == newest {
				holders++
			}
		}
		f := 1 // the writer's
		if !write {
			f = readerF
		}
		waits := refused <= f && up < n-f
		if !write && refused <= f && up >= n-f && !newest.IsZero() && holders < k+2*e {
			waits = true // a stale server where SODA_err needs every element
		}
		timeout := 20 * time.Second
		if waits {
			timeout = 5 * time.Millisecond
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		op := diffOp{}
		var err error
		if write {
			value := make([]byte, size)
			rng.Read(value)
			op.desc = fmt.Sprintf("step %d: write %s (%d B)", step, key, size)
			op.tag, err = w.Write(ctx, key, value)
			op.value = value
		} else {
			var res ReadResult
			op.desc = fmt.Sprintf("step %d: read %s", step, key)
			res, err = r.Read(ctx, key)
			op.tag, op.value, op.corrupt = res.Tag, res.Value, fmt.Sprint(res.Corrupt)
		}
		cancel()
		op.class = classify(err)
		var stale *StaleEpochError
		op.stale = count(crashed) == 0 && errors.As(err, &stale)
		if (op.class == "ctx") != waits {
			t.Fatalf("seed %d: %s ended %s (%v); the fault state (crashed %v hung %v sealed %v, newest tag on %d) says waits=%v",
				seed, op.desc, op.class, err, crashed, hung, sealed, holders, waits)
		}
		for deadline := time.Now().Add(5 * time.Second); !legsHome(); time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: %s (%s, %v): its legs are still out\n%s", seed, op.desc, op.class, err, strings.Join(goroutineStanzas(), "\n\n"))
			}
		}
		if waits {
			for s := 0; s < n; s++ {
				if hung[s] {
					lb.Restart(s)
					hung[s] = false
				}
			}
		}
		ops = append(ops, op)
	}
	state := func() (held []string) {
		for _, key := range keys {
			for s := 0; s < n; s++ {
				tag, elem, vlen := lb.Server(s).Snapshot(key)
				held = append(held, fmt.Sprintf("%s on server %d: %v, %d B, element %08x", key, s, tag, vlen, crc32.ChecksumIEEE(elem)))
			}
		}
		return held
	}
	if !durable {
		return ops, state()
	}
	for s := 0; s < n; s++ {
		if crashed[s] {
			recoverServer(s)
		}
	}
	final = state()
	if err := lb.CloseServers(); err != nil {
		t.Fatalf("seed %d: closing the logs: %v", seed, err)
	}
	for s := 0; s < n; s++ {
		recoverServer(s)
	}
	for i, replayed := range state() {
		if final[i] != replayed {
			t.Fatalf("seed %d: live, %s; recovered from its directory, %s", seed, final[i], replayed)
		}
	}
	return ops, final
}

// TestInlineVsLegsSequential: one seeded schedule run through raw
// loopback conns (nothing owed), through wrapped ones (every exchange on
// a leg) and with one server wrapped gives every operation the same
// outcome — class of error, tag, value, corrupt servers named — and
// leaves the same (tag, vlen, element) under every key on every server,
// for SODA and for SODA_err with e=1.
func TestInlineVsLegsSequential(t *testing.T) {
	checkNoLeaks(t)
	diffSequential(t, []int{0, 1}, false)
}

// TestInlineVsLegsSequentialDurable is the same over servers that log
// and sync every record. The raw run logs on the test's goroutine, the
// wrapped one from legs, the mixed one from both; besides what the memory
// run compares, each must replay to what it held (see runDiffSchedule).
func TestInlineVsLegsSequentialDurable(t *testing.T) {
	checkNoLeaks(t)
	diffSequential(t, []int{0}, true)
}

func diffSequential(t *testing.T, es []int, durable bool) {
	t.Helper()
	for _, e := range es {
		for _, seed := range []int64{24, 2400} {
			inline, inlineFinal := runDiffSchedule(t, seed, e, rawConns, durable)
			classes := map[string]int{}
			for _, a := range inline {
				classes[a.class]++
				if a.stale {
					classes["stale"]++
				}
			}
			for _, class := range []string{"ok", "unavailable", "ctx", "stale"} {
				if classes[class] == 0 {
					t.Errorf("e=%d seed %d: no operation ended %s: the schedule does not cover it (%v)", e, seed, class, classes)
				}
			}
			for _, other := range []struct {
				name string
				wrap func([]Conn) []Conn
			}{{"wrapped", opaque}, {"one server wrapped", mixedConns}} {
				legs, legsFinal := runDiffSchedule(t, seed, e, other.wrap, durable)
				for i := range inline {
					a, b := inline[i], legs[i]
					if a.desc != b.desc {
						t.Fatalf("e=%d seed %d: the runs diverged: %q raw, %q %s", e, seed, a.desc, b.desc, other.name)
					}
					if a.class != b.class || a.stale != b.stale || a.tag != b.tag || a.corrupt != b.corrupt ||
						(a.class == "ok" && !bytes.Equal(a.value, b.value)) {
						t.Fatalf("e=%d seed %d: %s: raw %s stale=%v tag %v corrupt %s (%d B), %s %s stale=%v tag %v corrupt %s (%d B)",
							e, seed, a.desc, a.class, a.stale, a.tag, a.corrupt, len(a.value), other.name, b.class, b.stale, b.tag, b.corrupt, len(b.value))
					}
				}
				for i := range inlineFinal {
					if inlineFinal[i] != legsFinal[i] {
						t.Fatalf("e=%d seed %d: final state: raw %s, %s %s", e, seed, inlineFinal[i], other.name, legsFinal[i])
					}
				}
			}
		}
	}
}

// diffValue is a self-describing value, as in bench/: key index, writing
// client, per-client sequence number, a random body and the CRC-32C of
// it all, so a read is checked without trusting the system's tags.
func diffValue(rng *rand.Rand, key, client, seq int) []byte {
	v := make([]byte, 16+rng.Intn(200))
	rng.Read(v[12 : len(v)-4])
	binary.LittleEndian.PutUint32(v[0:], uint32(key))
	binary.LittleEndian.PutUint32(v[4:], uint32(client))
	binary.LittleEndian.PutUint32(v[8:], uint32(seq))
	binary.LittleEndian.PutUint32(v[len(v)-4:], crc32.Checksum(v[:len(v)-4], crc32.MakeTable(crc32.Castagnoli)))
	return v
}

// TestInlineVsLegsConcurrent: clients on raw conns, on wrapped ones and
// on a set with one server wrapped share one cluster and three keys, each
// writing and reading in turn. Every value read must carry its key and an
// intact CRC, and every key's history must pass lin_test.go's real-time
// rules: caller-side and leg exchanges interleave on the same registers,
// and same-key traffic leaves reads waiting on their registrations.
func TestInlineVsLegsConcurrent(t *testing.T) {
	checkNoLeaks(t)
	codec, lb := newCluster(t, 5, 3)
	diffConcurrent(t, codec, loopSets(lb), nil)
}

// TestInlineVsLegsConcurrentDurable is the same over servers that log,
// where the raw-conn clients log on their own goroutines next to the
// others' legs: the two kinds of appender meet on every log's locks. A
// power cut loses nothing acknowledged, so one server at a time is also
// cut and recovered from its disk while the clients run, and the
// histories must still linearize.
func TestInlineVsLegsConcurrentDurable(t *testing.T) {
	checkNoLeaks(t)
	codec, lb := pinnedCluster(t)
	diffConcurrent(t, codec, loopSets(lb), lb)
}

// loopSets gives the four clients of diffConcurrent their conns to lb's
// servers: raw, wrapped, one server wrapped, wrapped.
func loopSets(lb *Loopback) func(client int) []Conn {
	return func(client int) []Conn {
		return []func([]Conn) []Conn{rawConns, opaque, mixedConns, opaque}[client](lb.Conns())
	}
}

// diffConcurrent runs four clients, each on connsOf's conns for it, all to
// one cluster. With cut set it power-cuts and recovers that loopback's
// servers, one at a time, while they run.
func diffConcurrent(t *testing.T, codec *Codec, connsOf func(client int) []Conn, cut *Loopback) {
	t.Helper()
	const seed, clients, opsEach, nkeys = 24, 4, 300, 3
	ctx := testCtx(t)
	hist := make([]*history, nkeys)
	for i := range hist {
		hist[i] = &history{}
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	// One token per finished operation paces the power cuts: a server goes
	// down, comes back forty operations later, and the next goes forty
	// after that, whatever the machine's speed.
	progress := make(chan struct{}, clients*opsEach)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		conns := connsOf(c)
		w := mustWriter(t, fmt.Sprintf("w%d", c), codec, conns)
		r := mustReader(t, fmt.Sprintf("r%d", c), codec, conns)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for j := 0; j < opsEach; j++ {
				progress <- struct{}{}
				ki := rng.Intn(nkeys)
				key, h := fmt.Sprintf("conc/%d", ki), hist[ki]
				if j%2 == 0 {
					value := diffValue(rng, ki, c, j)
					inv := h.begin()
					tag, err := w.Write(ctx, key, value)
					if err != nil {
						t.Errorf("seed %d: client %d write %d: %v", seed, c, j, err)
						return
					}
					h.end(true, inv, tag, string(value))
					continue
				}
				inv := h.begin()
				res, err := r.Read(ctx, key)
				if err != nil {
					t.Errorf("seed %d: client %d read %d: %v", seed, c, j, err)
					return
				}
				h.end(false, inv, res.Tag, string(res.Value))
				if v := res.Value; len(v) > 0 {
					if len(v) < 16 || int(binary.LittleEndian.Uint32(v)) != ki ||
						binary.LittleEndian.Uint32(v[len(v)-4:]) != crc32.Checksum(v[:len(v)-4], castagnoli) {
						t.Errorf("seed %d: client %d read %d of %s: value fails its own check", seed, c, j, key)
						return
					}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(progress)
	}()
	rng := rand.New(rand.NewSource(seed - 1))
	for down, ops := -1, 0; ; ops++ {
		if _, running := <-progress; !running {
			break
		}
		if cut == nil || ops%40 != 39 {
			continue
		}
		if down < 0 {
			down = rng.Intn(cut.Size())
			cut.PowerCut(down)
			continue
		}
		rec, err := cut.Recover(down)
		if err != nil {
			t.Fatalf("seed %d: recover %d: %v", seed, down, err)
		}
		pinSyncs(rec, 0)
		down = -1
	}
	if t.Failed() {
		return
	}
	for _, h := range hist {
		h.check(t)
	}
}

// TestInlineRidesThroughHungServers: with one server hung at any
// position of the pass an inline write and read of a 1 MiB value
// complete, and the hung server's element, which no leg exists to free,
// is freed exactly once. With f+1 hung the write can never mint and the
// read can never fix its target: both wait out the caller's deadline and
// return its error, and the write frees all n elements, once each.
func TestInlineRidesThroughHungServers(t *testing.T) {
	checkNoLeaks(t)
	freed := poisonFreedElems(t)
	codec, lb := newCluster(t, 5, 3)
	w := mustWriter(t, "w", codec, lb.Conns())
	r := mustReader(t, "r", codec, lb.Conns())
	goroutines := startedGoroutines()
	value := elemFor(7, 1<<20)
	// warm is what the conns and writer freed themselves (displaced
	// register buffers are freed cold): the elements nobody stored.
	warm := func() int { return freed.total() - freed.colds() }
	distinct := func(from int) {
		t.Helper()
		freed.mu.Lock()
		defer freed.mu.Unlock()
		seen := map[*byte]bool{}
		for _, p := range freed.ptr[from:] {
			if seen[p] {
				t.Fatalf("buffer %p freed twice within one operation", p)
			}
			seen[p] = true
		}
	}
	for pos := 0; pos < 5; pos++ {
		lb.hang(pos)
		value[0] = byte(pos)
		mark, before := freed.total(), warm()
		if _, err := w.Write(testCtx(t), testKey, value); err != nil {
			t.Fatalf("write with server %d hung: %v", pos, err)
		}
		if got := warm() - before; got != 1 {
			t.Fatalf("write with server %d hung freed %d unsent elements, want the hung server's one", pos, got)
		}
		distinct(mark)
		res, err := r.Read(testCtx(t), testKey)
		if err != nil || !bytes.Equal(res.Value, value) {
			t.Fatalf("read with server %d hung: %d bytes, %v; want the value just written", pos, len(res.Value), err)
		}
		lb.Restart(pos)
	}
	if got := startedGoroutines(); got != goroutines {
		t.Fatalf("riding through one hung server took goroutines: %d before, %d after", goroutines, got)
	}

	lb.hang(1)
	lb.hang(3)
	for _, op := range []struct {
		name string
		run  func(context.Context) error
		free int
	}{
		{"write", func(ctx context.Context) error { _, err := w.Write(ctx, testKey, value); return err }, 5},
		{"read", func(ctx context.Context) error { _, err := r.Read(ctx, testKey); return err }, 0},
	} {
		const deadline = 60 * time.Millisecond
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		mark, before := freed.total(), warm()
		err := op.run(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || time.Since(start) < deadline {
			t.Fatalf("%s with f+1 servers hung returned %v after %v, want the context's error at its %v deadline", op.name, err, time.Since(start), deadline)
		}
		if got := warm() - before; got != op.free || freed.total()-mark != op.free {
			t.Fatalf("%s with f+1 servers hung freed %d elements (%d buffers in all), want %d", op.name, got, freed.total()-mark, op.free)
		}
		distinct(mark)
	}
}

// TestHookInstalledMeansLegs: a delivery hook is handed the protocol's
// goroutines — tests crash servers, seal them and park from inside one —
// so with a hook installed nothing runs on the caller's. The hook here
// crashes a server the moment its initial response has reached the
// reader, between the read's two phases; the read rides through it, and
// neither that delivery nor a write's relay to a registered reader ever
// ran the hook on the goroutine that called Read or Write.
func TestHookInstalledMeansLegs(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	w := mustWriter(t, "w", codec, lb.Conns())
	r := mustReader(t, "r", codec, lb.Conns())
	v1 := []byte("written inline, before any hook")
	if _, err := w.Write(ctx, testKey, v1); err != nil {
		t.Fatal(err)
	}

	caller := thisGoroutine()
	var hooked, onCaller atomic.Int32
	var crash sync.Once
	lb.OnDeliver(func(server int, key, readerID string, d Delivery) {
		hooked.Add(1)
		if thisGoroutine() == caller {
			onCaller.Add(1)
		}
		if server == 2 && d.Initial {
			crash.Do(func() { lb.Crash(2) })
		}
	})
	res, err := r.Read(ctx, testKey)
	if err != nil || !bytes.Equal(res.Value, v1) {
		t.Fatalf("read across the crash = %q, %v; want %q", res.Value, err, v1)
	}
	if hooked.Load() == 0 || onCaller.Load() != 0 {
		t.Fatalf("the hook ran %d times, %d of them on the goroutine that called Read", hooked.Load(), onCaller.Load())
	}

	// A reader registered on server 0 by hand: the write's put-data
	// relays to it, and the relay runs the hook on the put's goroutine.
	subCtx, stop := context.WithCancel(ctx)
	subDone := make(chan error, 1)
	registered, relayed := make(chan struct{}), make(chan struct{}, 8)
	go func() {
		subDone <- lb.Conns()[0].GetData(subCtx, testKey, "by-hand#1", func(d Delivery) {
			if d.Initial {
				close(registered)
			} else {
				relayed <- struct{}{}
			}
		})
	}()
	<-registered
	hooked.Store(0)
	if _, err := w.Write(ctx, testKey, []byte("written with a hook installed")); err != nil {
		t.Fatal(err)
	}
	<-relayed
	if hooked.Load() == 0 || onCaller.Load() != 0 {
		t.Fatalf("the hook ran %d times, %d of them on the goroutine that called Write", hooked.Load(), onCaller.Load())
	}
	stop()
	if err := <-subDone; err != nil {
		t.Fatalf("hand-made subscription ended with %v", err)
	}
}

// TestPendingReadKeepsItsRegistrations: a writer of the same key is
// parked inside a relay with its element on server 0 only, so the read's
// pass fixes its target at that write's tag and finds one element of it.
// Nothing a pass can do brings the others: the read waits on the
// registrations it has — one per server and one reader id for the whole
// read — and returns the writer's value once the writer moves on.
func TestPendingReadKeepsItsRegistrations(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	w := mustWriterOn(t, "w", &Config{Codec: codec, Conns: lb.Conns(), F: 0})
	r := mustReader(t, "r", codec, lb.Conns())
	if _, err := w.Write(ctx, testKey, []byte("version one")); err != nil {
		t.Fatal(err)
	}

	// The relay that parks the writer: a hand-made reader on server 0
	// whose sink blocks on everything but its initial delivery.
	subCtx, stop := context.WithCancel(ctx)
	subDone := make(chan error, 1)
	registered, parked, letGo := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		subDone <- lb.Conns()[0].GetData(subCtx, testKey, "by-hand#1", func(d Delivery) {
			if d.Initial {
				close(registered)
			} else {
				close(parked)
				<-letGo
			}
		})
	}()
	<-registered
	v2 := []byte("version two, stuck after its first put")
	type written struct {
		tag Tag
		err error
	}
	wrote := make(chan written, 1)
	go func() {
		tag, err := w.Write(ctx, testKey, v2)
		wrote <- written{tag, err}
	}()
	<-parked

	registrations := func() (n uint64) {
		for i := 0; i < 5; i++ {
			n += lb.Server(i).MetricsSnapshot().GetDatas
		}
		return n
	}
	before, ids := registrations(), readSeq.Load()
	read := readAsync(ctx, r, testKey)
	waitFor(t, "the read's registration on every server", func() bool { return registrations()-before == 5 })
	select {
	case o := <-read:
		t.Fatalf("read returned %q, %v with one element of its target tag written", o.res.Value, o.err)
	case <-time.After(20 * time.Millisecond):
	}
	close(letGo)
	wr := <-wrote
	if wr.err != nil {
		t.Fatal(wr.err)
	}
	if o := <-read; o.err != nil || o.res.Tag != wr.tag || !bytes.Equal(o.res.Value, v2) {
		t.Fatalf("read = %v %q, %v; want %v %q", o.res.Tag, o.res.Value, o.err, wr.tag, v2)
	}
	if regs, took := registrations()-before, readSeq.Load()-ids; regs != 5 || took != 1 {
		t.Fatalf("the read registered %d times under %d reader ids, want once per server under one", regs, took)
	}
	stop()
	if err := <-subDone; err != nil {
		t.Fatalf("hand-made subscription ended with %v", err)
	}
}

// pendingRead leaves testKey with a complete write and a newer one on
// servers 0 and 1 only — every read's target, and one element short of
// readable — and starts read, which registers with all five servers on its
// own goroutine and is left waiting on those registrations. It returns the
// newer write's tag, value and elements, and where the read will report.
func pendingRead(t *testing.T, c *cluster, read func(context.Context, string) (ReadResult, error)) (t2 Tag, v2 []byte, shards [][]byte, done <-chan error) {
	t.Helper()
	ctx := testCtx(t)
	codec, conns := c.codec, c.conns()
	w := mustWriter(t, "w", codec, conns)
	if _, err := w.Write(ctx, testKey, []byte("written in full")); err != nil {
		t.Fatal(err)
	}
	t2, v2 = Tag{TS: 2, Writer: "w2"}, []byte("written to two servers so far")
	shards, err := codec.EncodeValue(v2)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range conns[:2] {
		if err := c.PutData(ctx, testKey, t2, shards[i], len(v2)); err != nil {
			t.Fatal(err)
		}
	}
	ended := make(chan error, 1)
	go func() {
		res, err := read(ctx, testKey)
		if err == nil && (res.Tag != t2 || !bytes.Equal(res.Value, v2)) {
			err = fmt.Errorf("read = %v %q, want %v %q", res.Tag, res.Value, t2, v2)
		}
		ended <- err
	}()
	waitFor(t, "the read's registration on every server", func() bool {
		for i := range conns {
			if c.server(i).readerCount(testKey) != 1 {
				return false
			}
		}
		return true
	})
	select {
	case err := <-ended:
		t.Fatalf("read ended (%v) with two elements of its target tag written", err)
	case <-time.After(20 * time.Millisecond):
	}
	return t2, v2, shards, ended
}

// TestPendingReadLosesACrashedServer: the registrations a waiting read
// holds were made by its pass, and each is watched by a leg. A server
// that crashes under one is lost to the read — reported to the membership
// view, the read still waiting — and once so many are down that no tag
// can reach k elements the read ends ErrUnavailable, and does not hang.
func TestPendingReadLosesACrashedServer(t *testing.T) {
	checkNoLeaks(t)
	c := on("memory", crash).cluster(t, 5, 3)
	m := NewMembership(5)
	r := mustReaderOn(t, "r", &Config{Codec: c.codec, Conns: c.conns(), F: -1, Membership: m})
	_, _, _, ended := pendingRead(t, c, r.Read)
	c.crash(4)
	waitFor(t, "the read to report the crashed server", func() bool { return m.Health(4) == Suspect })
	if !errors.Is(m.causeOf(4), ErrServerDown) {
		t.Fatalf("server 4 is suspect of %v, want ErrServerDown", m.causeOf(4))
	}
	c.crash(3)
	select {
	case err := <-ended:
		t.Fatalf("read ended (%v) with three servers up and a writer that may yet reach them", err)
	case <-time.After(20 * time.Millisecond):
	}
	c.crash(2)
	select {
	case err := <-ended:
		if !errors.Is(err, ErrUnavailable) || !errors.Is(err, ErrServerDown) {
			t.Fatalf("read with three servers crashed under it ended %v, want ErrUnavailable over ErrServerDown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a read whose registrations died with their servers outlived them")
	}
}

// TestPendingReadEndsOnTheFlip: every server is sealed under a waiting
// read's registrations (on sockets, its streams, which each server ends
// with one epoch NACK on request id 0). A Reader on a view that never
// flips ends with the sealed stale-epoch NACK, leaving nobody registered;
// one on a view, the flip completed and the new configuration installed,
// reads again under it and returns the newer write, which a third put has
// made readable meanwhile.
func TestPendingReadEndsOnTheFlip(t *testing.T) {
	reconfig := func(t *testing.T, c *cluster, op ReconfigOp) {
		t.Helper()
		for i := 0; i < c.n; i++ {
			if _, err := c.server(i).Reconfig(op, 1, 5, 3); err != nil {
				t.Fatalf("server %d: %v", i, err)
			}
		}
	}
	t.Run("Reader", func(t *testing.T) {
		forRows(t, 0, func(t *testing.T, r row) {
			checkNoLeaks(t)
			c := r.cluster(t, 5, 3)
			_, _, _, ended := pendingRead(t, c, mustReader(t, "r", c.codec, c.conns()).Read)
			reconfig(t, c, ReconfigSeal)
			select {
			case err := <-ended:
				var stale *StaleEpochError
				if !errors.Is(err, ErrUnavailable) || !errors.As(err, &stale) || !stale.Sealed || stale.Want != 1 {
					t.Fatalf("read sealed under its registrations ended %v, want ErrUnavailable over a sealed stale-epoch NACK wanting epoch 1", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a read registered before the seal outlived it")
			}
			for i := 0; i < c.n; i++ {
				if n := c.server(i).readerCount(testKey); n != 0 {
					t.Fatalf("%d readers left registered on sealed server %d", n, i)
				}
			}
		})
	})
	t.Run("ViewReader", func(t *testing.T) {
		forRows(t, 0, func(t *testing.T, r row) {
			checkNoLeaks(t)
			ctx := testCtx(t)
			c := r.cluster(t, 5, 3)
			view, err := NewConfigView(&Config{Codec: c.codec, Conns: c.conns(), F: -1})
			if err != nil {
				t.Fatal(err)
			}
			er, err := view.Reader("r")
			if err != nil {
				t.Fatal(err)
			}
			t2, v2, shards, ended := pendingRead(t, c, er.Read)
			reconfig(t, c, ReconfigSeal)
			reconfig(t, c, ReconfigActivate)
			next := c.connsAt(1, 5)
			if err := next[2].PutData(ctx, testKey, t2, shards[2], len(v2)); err != nil {
				t.Fatal(err)
			}
			if err := view.Install(&Config{Codec: c.codec, Conns: next, F: -1}); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-ended:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a Reader flipped under its registrations did not read again under its view's new Config")
			}
		})
	})
}

// TestReadSealedBetweenAdmitAndRegister: every server is sealed in the
// window between a get-data's admission check and its registration
// (the admitted hook, as in TestGetDataFlipBetweenAdmitAndRegister). The
// hook puts the read on legs, whose subscriptions all die of the flip
// they were registered across: a read that its initial deliveries leave
// pending fails with the stale-epoch NACK, and does not hang.
func TestReadSealedBetweenAdmitAndRegister(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	w := mustWriter(t, "w", codec, lb.Conns())
	if _, err := w.Write(ctx, testKey, []byte("written before the seal")); err != nil {
		t.Fatal(err)
	}
	// A newer write stuck on f+1 servers: every read's target, and one
	// element short of readable, so the read is left to its subscriptions.
	t2 := Tag{TS: 2, Writer: "w2"}
	for _, c := range lb.Conns()[:2] {
		if err := c.PutData(ctx, testKey, t2, []byte("half a write"), 36); err != nil {
			t.Fatal(err)
		}
	}
	lb.admitted = func(server int) {
		if _, err := lb.Server(server).Reconfig(ReconfigSeal, 1, 5, 3); err != nil {
			t.Errorf("seal inside the window: %v", err)
		}
	}
	r := mustReader(t, "r", codec, lb.Conns())
	done := make(chan error, 1)
	go func() {
		_, err := r.Read(ctx, testKey)
		done <- err
	}()
	select {
	case err := <-done:
		var stale *StaleEpochError
		if !errors.Is(err, ErrUnavailable) || !errors.As(err, &stale) || !stale.Sealed || stale.Want != 1 {
			t.Fatalf("read across the seal returned %v, want ErrUnavailable over a sealed stale-epoch NACK wanting epoch 1", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a read admitted before the seal and registered after it outlived the seal")
	}
	// A leg the read no longer waits for may still be between its admission
	// and the re-check after it registers, which ends its registration.
	waitFor(t, "no reader registered on a sealed server", func() bool {
		for i := 0; i < 5; i++ {
			if lb.Server(i).readerCount(testKey) != 0 {
				return false
			}
		}
		return true
	})
}

// TestInlineOpsStartNothing: thousands of writes and reads over raw
// loopback conns start no goroutine, wake no parked one — the count of
// live goroutines and of workers parked on every idle list is what it was
// — and check out no fan-out state. Over servers that keep their registers
// in memory, and over servers that sync every record to a device that
// answers at once (see pinnedCluster; fewer operations there: the clock is
// pinned, the fsyncs are real, and on a disk there are five in a row to a
// write). A server that logs has logged exactly the put-datas it counted.
func TestInlineOpsStartNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ops     int
		cluster func(t *testing.T) (*Codec, *Loopback)
	}{
		{"memory", 5000, func(t *testing.T) (*Codec, *Loopback) { return newCluster(t, 5, 3) }},
		{"wal, every record synced", 500, func(t *testing.T) (*Codec, *Loopback) { return pinnedCluster(t) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkNoLeaks(t)
			ctx := testCtx(t)
			codec, lb := tc.cluster(t)
			w := mustWriter(t, "w", codec, lb.Conns())
			r := mustReader(t, "r", codec, lb.Conns())
			goroutines, parked := startedGoroutines(), parkedWorkers()
			value := make([]byte, 128)
			for i := 0; i < tc.ops; i++ {
				key := fmt.Sprintf("k%03d", i%257)
				value[0], value[1] = byte(i), byte(i>>8)
				if _, err := w.Write(ctx, key, value); err != nil {
					t.Fatal(err)
				}
				if res, err := r.Read(ctx, key); err != nil || !bytes.Equal(res.Value, value) {
					t.Fatalf("read %d = %v, %v", i, res.Value, err)
				}
			}
			if got := startedGoroutines(); got > goroutines { // fewer: an earlier test's stragglers went home
				t.Errorf("%d goroutines before %d inline writes and reads, %d after", goroutines, tc.ops, got)
			}
			if got := parkedWorkers(); got != parked {
				t.Errorf("%d workers parked before %d inline writes and reads, %d after", parked, tc.ops, got)
			}
			if w.at.Load().calls.Get() != nil {
				t.Error("an inline write checked out fan-out state")
			}
			for i := 0; i < lb.Size(); i++ {
				if a, p := walCounts(lb.Server(i)); p != uint64(tc.ops) || (lb.Server(i).dur != nil && a != p) {
					t.Errorf("server %d counted %d put-datas and logged %d records, want %d", i, p, a, tc.ops)
				}
			}
		})
	}
}

// BenchmarkSmallOpsParallel is the layer number for the client's quorum
// path: GOMAXPROCS closed-loop clients on one shared Writer and Reader
// over a loopback n5k3 cluster, writes and reads alternating — the
// repository benchmark's loop-small (128 B values over 10 000 keys) and
// loop-large (1 MiB over 64) without its harness. "inline" runs on raw
// loopback conns, "legs" on the same conns wrapped, which is the path
// any other transport takes. Quote it at -cpu 1,2,4: the -cpu 1 row is
// per-op cost, the rows above it add contention between clients. The
// wal rows are wal-small's path: 128 B over servers that sync every put,
// their clocks pinned so the writes stay on the caller on a disk as on a
// tmpfs (see pinnedLoopback), where "inline" logs on the client's
// goroutine unless it finds the log busy (-cpu 2: the other client is in
// it) and "legs" from one leg per server. On a disk the fsyncs are in the
// number.
func BenchmarkSmallOpsParallel(b *testing.B) {
	memory := func(testing.TB) *Loopback { return NewLoopback(5) }
	for _, bc := range []struct {
		name        string
		size, nkeys int
		cluster     func(testing.TB) *Loopback
		wrap        func([]Conn) []Conn
	}{
		{"inline/128B", 128, 10000, memory, rawConns},
		{"legs/128B", 128, 10000, memory, opaque},
		{"inline/1MiB", 1 << 20, 64, memory, rawConns},
		{"legs/1MiB", 1 << 20, 64, memory, opaque},
		{"wal/inline", 128, 10000, pinnedLoopback, rawConns},
		{"wal/legs", 128, 10000, pinnedLoopback, opaque},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := context.Background()
			codec, err := NewCodec(5, 3)
			if err != nil {
				b.Fatal(err)
			}
			conns := bc.wrap(bc.cluster(b).Conns())
			w, err := NewWriter("w", codec, conns)
			if err != nil {
				b.Fatal(err)
			}
			r, err := NewReader("r", codec, conns)
			if err != nil {
				b.Fatal(err)
			}
			value := make([]byte, bc.size)
			keys := make([]string, bc.nkeys)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%05d", i)
			}
			// Every key is written once, from a few goroutines: on a disk
			// the wal rows' fsyncs then group-commit.
			const fillers = 8
			var fill sync.WaitGroup
			fillErrs := make(chan error, fillers)
			for f := 0; f < fillers; f++ {
				fill.Add(1)
				go func() {
					defer fill.Done()
					for i := f; i < len(keys); i += fillers {
						if _, err := w.Write(ctx, keys[i], value); err != nil {
							fillErrs <- err
							return
						}
					}
				}()
			}
			fill.Wait()
			close(fillErrs)
			if err := <-fillErrs; err != nil {
				b.Fatal(err)
			}
			var clients atomic.Uint64
			b.SetBytes(int64(bc.size))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				x := clients.Add(1) * 0x9E3779B97F4A7C15
				for write := true; pb.Next(); write = !write {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					key := keys[x%uint64(len(keys))]
					var err error
					if write {
						_, err = w.Write(ctx, key, value)
					} else {
						_, err = r.Read(ctx, key)
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// TestLegsOnlyForWrappedConns pins what is owed a leg on a healthy
// cluster: nothing on raw conns, everything on wrapped ones, and with one
// server wrapped that server's exchanges only — its put-data, since the
// other four settle the get-tag phase and complete a read without it;
// with a server down a read needs the wrapped one, and sends its one leg
// there. Where an exchange ran is seen from inside it: a hand-made
// reader's relay runs on the goroutine of the put (onPut), a corruption
// transform on the goroutine that registered.
func TestLegsOnlyForWrappedConns(t *testing.T) {
	const ops = 50
	for _, tc := range []struct {
		name                        string
		wrapped                     []int
		putsOnCaller, regsOnCaller  int   // of a write's five put-datas; of the registrations a read made
		getTags, putDatas, getDatas int64 // sent through the wrapped conns by one write and one read
		regsOnCallerOneDown         int
	}{
		{"raw", nil, 5, 4, 0, 0, 0, 4},
		{"one server wrapped", []int{mixedServer}, 4, 4, 0, 1, 0, 3},
		{"wrapped", []int{0, 1, 2, 3, 4}, 0, 0, 5, 5, 5, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkNoLeaks(t)
			ctx := testCtx(t)
			codec, lb := newCluster(t, 5, 3)
			var seen exchanges
			conns := lb.Conns()
			for _, i := range tc.wrapped {
				conns[i] = countedConn{conns[i], &seen}
			}
			w := mustWriter(t, "w", codec, conns)
			r := mustReader(t, "r", codec, conns)
			if _, err := w.Write(ctx, testKey, []byte("so that there is something to relay after")); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the first write's legs", legsHome)
			seen = exchanges{}

			var mu sync.Mutex
			var registeredOn [5]string
			for i := range registeredOn {
				lb.Corrupt(i, func(b []byte) []byte {
					g := thisGoroutine()
					mu.Lock()
					registeredOn[i] = g
					mu.Unlock()
					return b
				})
			}
			read := func(want []byte) (onCaller int) {
				t.Helper()
				mu.Lock()
				registeredOn = [5]string{}
				mu.Unlock()
				res, err := r.Read(ctx, testKey)
				if err != nil || !bytes.Equal(res.Value, want) {
					t.Fatalf("read = %q, %v; want %q", res.Value, err, want)
				}
				waitFor(t, "the read's legs", legsHome)
				mu.Lock()
				defer mu.Unlock()
				for _, g := range registeredOn {
					if g == thisGoroutine() {
						onCaller++
					}
				}
				return onCaller
			}
			var putOn [5]string
			for i := range putOn {
				onPut(t, lb, i, testKey, func() {
					g := thisGoroutine()
					mu.Lock()
					putOn[i] = g
					mu.Unlock()
				})
			}
			write := func(value []byte) (onCaller int) {
				t.Helper()
				if _, err := w.Write(ctx, testKey, value); err != nil {
					t.Fatal(err)
				}
				waitFor(t, "the write's legs", legsHome)
				mu.Lock()
				defer mu.Unlock()
				for i, g := range putOn {
					if g == thisGoroutine() {
						onCaller++
					}
					putOn[i] = ""
				}
				return onCaller
			}
			value := []byte("a value, written again and again")
			for i := 0; i < ops; i++ {
				value[0] = byte(i)
				if n := write(value); n != tc.putsOnCaller {
					t.Fatalf("write %d: %d of 5 put-datas ran on the writer's goroutine, want %d", i, n, tc.putsOnCaller)
				}
				if n := read(value); n != tc.regsOnCaller {
					t.Fatalf("read %d: registered with %d servers on the reader's goroutine, want %d", i, n, tc.regsOnCaller)
				}
			}
			if g, p, d := seen.getTags.Load(), seen.putDatas.Load(), seen.getDatas.Load(); g != ops*tc.getTags || p != ops*tc.putDatas || d != ops*tc.getDatas {
				t.Fatalf("the wrapped conns saw %d get-tags, %d put-datas, %d get-datas in %d writes and reads, want %d, %d, %d of each",
					g, p, d, ops, tc.getTags, tc.putDatas, tc.getDatas)
			}

			lb.Crash(0)
			before := seen.getDatas.Load()
			if n := read(value); n != tc.regsOnCallerOneDown {
				t.Fatalf("read with server 0 down: registered with %d servers on the reader's goroutine, want %d", n, tc.regsOnCallerOneDown)
			}
			if d := seen.getDatas.Load() - before; d != int64(len(tc.wrapped)) {
				t.Fatalf("read with server 0 down sent %d get-datas through the wrapped conns, want one through each", d)
			}
		})
	}

	// Over sockets an exchange is taken once it is queued, whatever the
	// session's writer is busy with, and the caller does not wait for it.
	// Here the test holds server 2's writer in a socket write: a write and a
	// read complete on the other four with no leg, and the write's get-tag
	// and put-data, queued on the held conn, reach its server once the
	// writer is let go.
	t.Run("a MuxConn whose writer is stuck", func(t *testing.T) {
		checkNoLeaks(t)
		const held = 2
		ctx := testCtx(t)
		c := on("sockets", 0).cluster(t, 5, 3)
		codec, conns := c.codec, c.conns()
		mc, core := conns[held].(*MuxConn), c.server(held)
		w := mustWriter(t, "w", codec, conns)
		r := mustReader(t, "r", codec, conns)
		// Primed by a writer that waits for every ack: w's returns on four
		// and cancels the fifth leg, which gives up if its conn is still
		// dialing, and then that server never has the first write.
		prime := mustWriterOn(t, "prime", &Config{Codec: codec, Conns: conns, F: 0})
		if _, err := prime.Write(ctx, testKey, []byte("written to dial the conns")); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the first write on every server", func() bool {
			for i := range conns {
				if c.server(i).MetricsSnapshot().PutDatas != 1 {
					return false
				}
			}
			return true
		})
		waitFor(t, "the first write's legs", legsHome)
		seen := legsSeen(conns)

		sock := plug(t, mc, &sockCounter{held: make(chan struct{})})
		letGo := sync.OnceFunc(func() { close(sock.held) })
		defer letGo()
		value := []byte("written past a conn whose writer is stuck")
		tag, err := w.Write(ctx, testKey, value)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := r.Read(ctx, testKey); err != nil || !bytes.Equal(res.Value, value) {
			t.Fatalf("read = %q, %v; want %q", res.Value, err, value)
		}
		if m := core.MetricsSnapshot(); m.GetTags != 1 || m.PutDatas != 1 || m.GetDatas != 0 || seen.total() != 0 {
			t.Fatalf("behind the stuck writer server %d has served %d get-tags, %d put-datas, %d get-datas, and legs made %d exchanges; want what the first write left and none",
				held, m.GetTags, m.PutDatas, m.GetDatas, seen.total())
		}
		letGo()
		waitFor(t, "the write's queued put-data to land", func() bool {
			got, _, _ := core.Snapshot(testKey)
			return got == tag
		})
		waitFor(t, "the legs", legsHome)
		if m := core.MetricsSnapshot(); m.GetTags != 2 || m.PutDatas != 2 || seen.total() != 0 {
			t.Fatalf("after the stuck writer was let go server %d has served %d get-tags and %d put-datas, and legs made %d exchanges; want the write's one of each, queued, and no leg",
				held, m.GetTags, m.PutDatas, seen.total())
		}
	})
}

// TestLegsNeverAskATagTwice: a write asks each server for its tag at most
// once, and keeps every answer it counted, whoever brought it — its own
// goroutine or a leg. Over raw conns every server answers one get-tag per
// write. With one server wrapped the other four settle the tag and the
// wrapped one is not asked. With server 0 crashed as well, three answers
// and a failure do not settle it: the wrapped server is asked on a leg, and
// the three that answered are not asked again.
func TestLegsNeverAskATagTwice(t *testing.T) {
	const writes = 20
	for _, tc := range []struct {
		name    string
		wrap    func([]Conn) []Conn
		crashed []int
		want    [5]uint64 // get-tags each server answers per write
	}{
		{"raw", rawConns, nil, [5]uint64{1, 1, 1, 1, 1}},
		{"one server wrapped", mixedConns, nil, [5]uint64{1, 1, 1, 0, 1}},
		{"one server wrapped, server 0 crashed", mixedConns, []int{0}, [5]uint64{0, 1, 1, 1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkNoLeaks(t)
			ctx := testCtx(t)
			codec, lb := newCluster(t, 5, 3)
			w := mustWriter(t, "w", codec, tc.wrap(lb.Conns()))
			for _, i := range tc.crashed {
				lb.Crash(i)
			}
			getTags := func() (n [5]uint64) {
				for i := range n {
					n[i] = lb.Server(i).MetricsSnapshot().GetTags
				}
				return n
			}
			before := getTags()
			for i := 0; i < writes; i++ {
				if _, err := w.Write(ctx, testKey, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
				waitFor(t, "the write's legs", legsHome)
			}
			after := getTags()
			for i := range after {
				if got := after[i] - before[i]; got != writes*tc.want[i] {
					t.Errorf("server %d answered %d get-tags in %d writes, want %d each", i, got, writes, tc.want[i])
				}
			}
		})
	}
}

// TestLegsPutPastASlowGetTag: a server's put-data does not wait for its
// own get-tag, only for the mint. Servers 0-2 answer the write's get-tag on
// its goroutine, server 3's answers on a leg and settles the tag; server
// 4's get-tag leg is parked in a slowTagConn, which has no step forms. The
// write returns on four acks, and server 4 is given its element under the
// minted tag all the same, its get-tag still unanswered.
func TestLegsPutPastASlowGetTag(t *testing.T) {
	checkNoLeaks(t)
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	conns := lb.Conns()
	slow := &slowTagConn{Conn: conns[4], release: make(chan struct{})}
	conns[3], conns[4] = opaqueConn{conns[3]}, slow
	defer func() {
		close(slow.release)
		waitFor(t, "the write's legs", legsHome)
	}()
	w := mustWriter(t, "w", codec, conns)
	tag, err := w.Write(ctx, testKey, []byte("given to a server whose get-tag is parked"))
	if err != nil {
		t.Fatal(err)
	}
	var got Tag
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if got, _, _ = lb.Server(4).Snapshot(testKey); got == tag {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server 4 holds %v, want %v", got, tag)
		}
	}
	if n := lb.Server(4).MetricsSnapshot().GetTags; n != 0 {
		t.Fatalf("server 4 answered %d get-tags, want its one still parked", n)
	}
}

// laterConns is a third way to step an exchange, beside a loopConn's
// answering now and a MuxConn's answering on its pump: a laterConn takes
// every exchange, and nothing is answered until the test says so, from its
// own goroutine, as the loopback server under the conn would have.
type laterConns struct {
	conns   []Conn // a *laterConn each
	mu      sync.Mutex
	asked   []*laterAsk    // taken and not yet answered, oldest first
	streams map[uint64]sub // the get-datas answered: their loopback registrations
	ids     uint64
}

type laterConn struct {
	Conn // the server's loopConn: what a leg would run
	set  *laterConns
}

// laterAsk is one exchange a laterConn took.
type laterAsk struct {
	c       *laterConn
	typ     byte
	id      uint64
	key     string
	tag     Tag
	elem    []byte
	vlen    int
	reader  string
	deliver func(Delivery)
	w       waiter
}

func newLaterConns(lb *Loopback) *laterConns {
	set := &laterConns{streams: make(map[uint64]sub)}
	for _, c := range lb.Conns() {
		set.conns = append(set.conns, &laterConn{c, set})
	}
	return set
}

func (c *laterConn) take(a *laterAsk, op stepOp) uint64 {
	a.c, a.w = c, op.take(a.typ)
	c.set.mu.Lock()
	defer c.set.mu.Unlock()
	c.set.ids++
	a.id = c.set.ids
	c.set.asked = append(c.set.asked, a)
	return a.id
}

func (c *laterConn) getTagStep(key string, op stepOp) (Tag, error) {
	c.take(&laterAsk{typ: msgGetTag, key: key}, op)
	return Tag{}, errTaken
}

func (c *laterConn) putDataStep(key string, t Tag, elem []byte, vlen int, op stepOp) error {
	if !handoff(len(elem)) {
		elem = slices.Clone(elem) // borrowed for the call only
	}
	c.take(&laterAsk{typ: msgPutData, key: key, tag: t, elem: elem, vlen: vlen}, op)
	return errTaken
}

func (c *laterConn) getDataStep(key, readerID string, op stepOp, deliver func(Delivery)) (sub, error) {
	id := c.take(&laterAsk{typ: msgGetData, key: key, reader: readerID, deliver: deliver}, op)
	return sub{c: c, id: id}, errTaken
}

// endData takes the get-data back, answered or not: its waiter is never
// answered, unless its server ended the registration first.
func (c *laterConn) endData(s sub, key, readerID string) bool {
	set := c.set
	set.mu.Lock()
	defer set.mu.Unlock()
	if reg, ok := set.streams[s.id]; ok {
		delete(set.streams, s.id)
		return reg.c.endData(reg, key, readerID)
	}
	i := slices.IndexFunc(set.asked, func(a *laterAsk) bool { return a.id == s.id })
	if i >= 0 {
		set.asked = slices.Delete(set.asked, i, i+1)
	}
	return i >= 0
}

// pending waits until n exchanges of type typ are taken and unanswered,
// and returns them, oldest first.
func (set *laterConns) pending(t *testing.T, typ byte, n int) (asks []*laterAsk) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d exchanges of type %d taken", n, typ), func() bool {
		set.mu.Lock()
		defer set.mu.Unlock()
		asks = asks[:0]
		for _, a := range set.asked {
			if a.typ == typ {
				asks = append(asks, a)
			}
		}
		return len(asks) >= n
	})
	return asks
}

// answered is the waiter a laterConn already took, as the stepOp of the
// loopback step that answers the exchange: the registration's end goes to
// it, and it is not taken twice.
type answered struct{ waiter }

func (a answered) take(byte) waiter { return a.waiter }

// answer has a's server answer a. A get-data is answered by registering
// with the server, which delivers its initial state at once; the stream
// stays open until the read or the server ends it.
func (set *laterConns) answer(t *testing.T, a *laterAsk) {
	t.Helper()
	set.mu.Lock()
	defer set.mu.Unlock()
	i := slices.Index(set.asked, a)
	if i < 0 {
		t.Fatalf("exchange %d was answered or taken back already", a.id)
	}
	set.asked = slices.Delete(set.asked, i, i+1)
	ctx, server := testCtx(t), a.c.Index()
	switch a.typ {
	case msgGetTag:
		tag, err := a.c.Conn.GetTag(ctx, a.key)
		a.w.answer(server, &response{tag: tag}, err)
	case msgPutData:
		a.w.answer(server, &response{}, a.c.Conn.PutData(ctx, a.key, a.tag, a.elem, a.vlen))
	case msgGetData:
		reg, err := a.c.Conn.(*loopConn).getDataStep(a.key, a.reader, answered{a.w}, a.deliver)
		if err != nil {
			a.w.answer(server, &response{}, err)
			return
		}
		set.streams[a.id] = reg
	}
}

// TestAnswerLaterStartsNothing: over conns that take every exchange and
// answer it later, from the test's goroutine, a write and a read complete
// with no leg started and no goroutine left behind. The fifth server is
// hung as far as the operations can tell: each completes on the other
// four. Its write exchanges answered after the write returned still count,
// once each — the last of them lets go of the write's call — and its
// get-data, never answered, is taken back when the read ends.
func TestAnswerLaterStartsNothing(t *testing.T) {
	checkNoLeaks(t)
	const late = 4
	ctx := testCtx(t)
	codec, lb := newCluster(t, 5, 3)
	set := newLaterConns(lb)
	w := mustWriter(t, "w", codec, set.conns)
	r := mustReader(t, "r", codec, set.conns)
	seen := legsSeen(set.conns)
	goroutines, parked := startedGoroutines(), parkedWorkers()

	value := []byte("answered later, from the test's goroutine")
	type written struct {
		tag Tag
		err error
	}
	wrote := make(chan written, 1)
	go func() {
		tag, err := w.Write(ctx, testKey, value)
		wrote <- written{tag, err}
	}()
	var lateOnes []*laterAsk
	for _, typ := range []byte{msgGetTag, msgPutData} {
		asks := set.pending(t, typ, 5)
		for _, a := range asks[:late] {
			set.answer(t, a)
		}
		lateOnes = append(lateOnes, asks[late])
	}
	wr := <-wrote
	if wr.err != nil {
		t.Fatalf("write with four servers answering: %v", wr.err)
	}
	wc := (*writeCall)(lateOnes[0].w.(*tagReply))
	if n := wc.refs.Load(); n != 2 {
		t.Fatalf("the returned write's call has %d holders, want its two unanswered exchanges", n)
	}
	for i, a := range lateOnes {
		set.answer(t, a)
		if n := wc.refs.Load(); n != int32(len(lateOnes)-1-i) {
			t.Fatalf("after %d late answers the write's call has %d holders", i+1, n)
		}
	}
	for i := 0; i < lb.Size(); i++ {
		m := lb.Server(i).MetricsSnapshot()
		if tag, _, _ := lb.Server(i).Snapshot(testKey); tag != wr.tag || m.GetTags != 1 || m.PutDatas != 1 {
			t.Fatalf("server %d holds %v after %d get-tags and %d put-datas; want %v after one of each", i, tag, m.GetTags, m.PutDatas, wr.tag)
		}
	}

	read := readAsync(ctx, r, testKey)
	asks := set.pending(t, msgGetData, 5)
	for _, a := range asks[:late] {
		set.answer(t, a)
	}
	if o := <-read; o.err != nil || o.res.Tag != wr.tag || !bytes.Equal(o.res.Value, value) {
		t.Fatalf("read = %v %q, %v; want %v %q", o.res.Tag, o.res.Value, o.err, wr.tag, value)
	}
	set.mu.Lock()
	asked, streams := len(set.asked), len(set.streams)
	set.mu.Unlock()
	if asked != 0 || streams != 0 {
		t.Fatalf("the read left %d get-datas unanswered and %d streams open", asked, streams)
	}
	for i := 0; i < lb.Size(); i++ {
		if n := lb.Server(i).readerCount(testKey); n != 0 {
			t.Fatalf("server %d still has %d readers", i, n)
		}
	}

	if n := seen.total(); n != 0 {
		t.Fatalf("legs made %d exchanges", n)
	}
	if got := parkedWorkers(); got != parked {
		t.Fatalf("%d workers parked before, %d after: a leg was started", parked, got)
	}
	waitFor(t, "the test's own goroutines to exit", func() bool { return startedGoroutines() <= goroutines })
}

// Command sodaload is an open-loop load harness for the SODA multi-key
// register namespace: arrivals are scheduled on a constant-rate clock
// (T_i = start + i/rate) regardless of completions, so a slow system
// shows up as queueing delay and shed arrivals instead of the
// closed-loop trap of the generator politely slowing down with it.
// Latency is measured from an operation's SCHEDULED arrival to its
// completion — queue wait included — and arrivals that find the
// bounded in-flight window full are counted as shed, never silently
// dropped.
//
// Single-run mode drives one transport/key-count/rate/mix combination
// and prints goodput, latency percentiles, and the cluster-wide server
// metric counters:
//
//	go run ./cmd/sodaload -transport loopback -keys 10000 -rate 100000 -duration 3s
//	go run ./cmd/sodaload -transport tcp-mux -keys 64 -rate 400 -read-frac 0
//
// Suite mode (-suite) runs the repository's benchmark set — loopback
// throughput across the full keyspace, write latency over the
// multiplexed TCP transport, and the kill-repair survival run — and
// regenerates BENCH_soda.json deterministically
// (sorted keys, tool-computed derived ratios, narrative notes
// preserved). -compare-schema A B checks two such files have the same
// shape, which is how CI pins regeneration determinism without pinning
// machine-dependent numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/soda"
)

type runConfig struct {
	transport string // loopback | tcp-mux
	n, k      int
	keys      int
	rate      float64 // offered arrivals per second
	duration  time.Duration
	readFrac  float64
	vsize     int
	inflight  int // bounded in-flight window (worker count + queue)
	prewrite  bool
	seed      int64
	// kill enables the fault-injection mode: the cluster is durable
	// (per-node WAL), and a kill loop power-cuts one server at a time
	// mid-load, recovers it from its disk, and heals it through the
	// quarantine → donor-repair path while the generator keeps
	// offering. Healing lag (power cut → back Live) is reported as
	// percentiles. Loopback transport only.
	kill bool
}

// runResult is one load run's outcome; the field set is the JSON
// schema the determinism check pins, so nothing here is omitempty.
type runResult struct {
	Transport    string  `json:"transport"`
	N            int     `json:"n"`
	K            int     `json:"k"`
	Keys         int     `json:"keys"`
	OfferedOpsS  float64 `json:"offered_rate_ops_s"`
	DurationS    float64 `json:"duration_s"`
	ReadFrac     float64 `json:"read_frac"`
	ValueBytes   int     `json:"value_bytes"`
	Inflight     int     `json:"inflight"`
	Arrivals     int64   `json:"arrivals"`
	Completed    int64   `json:"completed_ops"`
	Shed         int64   `json:"shed_arrivals"`
	Errors       int64   `json:"errors"`
	GoodputOpsS  float64 `json:"goodput_ops_s"`
	ReadP50Us    float64 `json:"read_p50_us"`
	ReadP99Us    float64 `json:"read_p99_us"`
	WriteP50Us   float64 `json:"write_p50_us"`
	WriteP99Us   float64 `json:"write_p99_us"`
	ServerRelays uint64  `json:"server_relays"`
	ServerRegGCs uint64  `json:"server_reg_gcs"`
	// Namespace-hygiene gauges/counters: registrations still held at
	// the end of the run (should be ~0 once readers tear down) and
	// empty registers collected during it.
	ServerRegistrations uint64 `json:"server_registrations"`
	ServerRegisterGCs   uint64 `json:"server_register_gcs"`
	// Fault-injection accounting, populated by -kill runs and present
	// (zero) in every run so the schema never shifts: servers killed,
	// healing lag from power cut to readmission, and the cluster-wide
	// quarantine/repair counters behind it.
	Kills                int64   `json:"kills"`
	HealP50Ms            float64 `json:"heal_p50_ms"`
	HealP99Ms            float64 `json:"heal_p99_ms"`
	ServerQuarantines    uint64  `json:"server_quarantines"`
	ServerRepairPuts     uint64  `json:"server_repair_puts"`
	ServerRepairInstalls uint64  `json:"server_repair_installs"`
	ServerRecoveries     uint64  `json:"server_recoveries"`
}

type suiteOutput struct {
	Date       string               `json:"date"`
	GoMaxProcs int                  `json:"gomaxprocs"`
	Go         string               `json:"go"`
	Notes      string               `json:"notes"`
	Runs       map[string]runResult `json:"runs"`
	Derived    map[string]float64   `json:"derived"`
}

func main() {
	var (
		transport = flag.String("transport", "loopback", "loopback | tcp-mux")
		n         = flag.Int("n", 5, "cluster size")
		k         = flag.Int("k", 3, "code dimension (data shards)")
		keys      = flag.Int("keys", 10000, "distinct register keys to spread traffic across")
		rate      = flag.Float64("rate", 100000, "offered arrival rate, ops/s (open loop)")
		duration  = flag.Duration("duration", 3*time.Second, "generation window")
		readFrac  = flag.Float64("read-frac", 0.5, "fraction of arrivals that are reads")
		vsize     = flag.Int("vsize", 128, "value size in bytes")
		inflight  = flag.Int("inflight", 256, "bounded in-flight window; arrivals beyond it are shed")
		kill      = flag.Bool("kill", false, "power-cut/recover/repair servers mid-run (loopback only; durable nodes)")
		seed      = flag.Int64("seed", 1, "op-mix RNG seed")
		suite     = flag.Bool("suite", false, "run the benchmark suite and write -out")
		out       = flag.String("out", "BENCH_soda.json", "suite output file")
		cmpSchema = flag.Bool("compare-schema", false, "compare the JSON schema of two files given as args")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the load run to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile of the load run to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatal(err)
			}
		}()
	}

	if *cmpSchema {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare-schema needs exactly two files, got %d", flag.NArg()))
		}
		if err := compareSchema(flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		fmt.Printf("sodaload: %s and %s have identical schemas\n", flag.Arg(0), flag.Arg(1))
		return
	}

	cfg := runConfig{
		transport: *transport, n: *n, k: *k, keys: *keys, rate: *rate,
		duration: *duration, readFrac: *readFrac, vsize: *vsize,
		inflight: *inflight, prewrite: *readFrac > 0, seed: *seed, kill: *kill,
	}
	if *suite {
		if err := runSuite(cfg, *out); err != nil {
			fatal(err)
		}
		return
	}
	res, err := runLoad(cfg)
	if err != nil {
		fatal(err)
	}
	printResult(res)
}

// runSuite executes the repository benchmark set and regenerates the
// output file: the loopback namespace throughput run at the full key
// count, a write-only offered load over multiplexed TCP, and the
// kill-repair survival run.
func runSuite(base runConfig, outPath string) error {
	tcpDur := min(base.duration, 2*time.Second)
	tcpKeys := min(base.keys, 64)
	tcpRate := math.Min(base.rate, 400)
	runs := []struct {
		name string
		cfg  runConfig
	}{
		{"loopback/namespace", runConfig{
			transport: "loopback", n: base.n, k: base.k, keys: base.keys,
			rate: base.rate, duration: base.duration, readFrac: base.readFrac,
			vsize: base.vsize, inflight: base.inflight, prewrite: true, seed: base.seed,
		}},
		{"tcp-mux/write-lat", runConfig{
			transport: "tcp-mux", n: base.n, k: base.k, keys: tcpKeys,
			rate: tcpRate, duration: tcpDur, readFrac: 0,
			vsize: base.vsize, inflight: 64, seed: base.seed,
		}},
		// The survival run: durable loopback nodes at a modest rate with
		// the kill loop power-cutting and donor-repairing servers
		// mid-load. Goodput through the holes and healing lag are the
		// numbers; the quarantine/repair counters prove the heal path
		// actually ran.
		{"loopback/kill-repair", runConfig{
			transport: "loopback", n: base.n, k: base.k, keys: tcpKeys,
			rate: math.Min(base.rate, 2000), duration: base.duration,
			readFrac: base.readFrac, vsize: base.vsize, inflight: 128,
			prewrite: base.readFrac > 0, seed: base.seed, kill: true,
		}},
	}

	res := suiteOutput{
		Date:       time.Now().Format("2006-01-02"),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Go:         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		Runs:       map[string]runResult{},
		Derived:    map[string]float64{},
	}
	if old, err := os.ReadFile(outPath); err == nil {
		var prev struct {
			Notes string `json:"notes"`
		}
		if json.Unmarshal(old, &prev) == nil {
			res.Notes = prev.Notes
		}
	}
	for _, r := range runs {
		fmt.Fprintf(os.Stderr, "== %s ==\n", r.name)
		rr, err := runLoad(r.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		printResult(rr)
		res.Runs[r.name] = rr
	}

	res.Derived["loopback_goodput_kops_s"] = round2(res.Runs["loopback/namespace"].GoodputOpsS / 1000)
	res.Derived["kill_heal_p99_ms"] = res.Runs["loopback/kill-repair"].HealP99Ms

	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sodaload: wrote %d runs to %s\n", len(res.Runs), outPath)
	return nil
}

// cluster is a running server set behind a []Conn, whatever the
// transport. Kill-mode clusters also carry the loopback (for
// PowerCut/Recover) and the shared membership.
type cluster struct {
	conns   []soda.Conn
	servers []*soda.Server
	lb      *soda.Loopback
	m       *soda.Membership
	close   func()
}

// metrics sums the cluster-wide counters. Read through the loopback
// when there is one: Recover swaps fresh state machines in, and the
// startup slice would keep counting the dead ones.
func (c *cluster) metrics() soda.MetricsSnapshot {
	var ms soda.MetricsSnapshot
	if c.lb != nil {
		for i := 0; i < c.lb.Size(); i++ {
			ms.Add(c.lb.Server(i).MetricsSnapshot())
		}
		return ms
	}
	for _, s := range c.servers {
		ms.Add(s.MetricsSnapshot())
	}
	return ms
}

func startCluster(cfg runConfig) (*cluster, error) {
	switch cfg.transport {
	case "loopback":
		if cfg.kill {
			// Durable nodes (interval fsync keeps the generator honest
			// about protocol cost, not disk cost) so a power-cut node has
			// a disk to come back from.
			dir, err := os.MkdirTemp("", "sodaload-kill-")
			if err != nil {
				return nil, err
			}
			lb, err := soda.NewDurableLoopback(cfg.n, dir, soda.WithFsyncEvery(5*time.Millisecond))
			if err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
			return &cluster{conns: lb.Conns(), lb: lb, m: soda.NewMembership(cfg.n), close: func() {
				lb.CloseServers()
				os.RemoveAll(dir)
			}}, nil
		}
		lb := soda.NewLoopback(cfg.n)
		servers := make([]*soda.Server, cfg.n)
		for i := range servers {
			servers[i] = lb.Server(i)
		}
		return &cluster{conns: lb.Conns(), servers: servers, lb: lb, close: func() {}}, nil
	case "tcp-mux":
		if cfg.kill {
			return nil, fmt.Errorf("-kill needs the loopback transport (PowerCut/Recover are in-process faults)")
		}
		servers := make([]*soda.Server, cfg.n)
		nets := make([]*soda.NetServer, cfg.n)
		addrs := make([]string, cfg.n)
		for i := 0; i < cfg.n; i++ {
			servers[i] = soda.NewServer(i)
			ns, err := soda.ListenAndServe(servers[i], "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			nets[i] = ns
			addrs[i] = ns.Addr()
		}
		conns := soda.TCPMuxConns(addrs)
		return &cluster{conns: conns, servers: servers, close: func() {
			soda.CloseConns(conns)
			for _, ns := range nets {
				ns.Close()
			}
		}}, nil
	default:
		return nil, fmt.Errorf("unknown transport %q", cfg.transport)
	}
}

type workerStats struct {
	readLat, writeLat []int64 // ns, from scheduled arrival to completion
	errs              int64
}

func runLoad(cfg runConfig) (runResult, error) {
	cl, err := startCluster(cfg)
	if err != nil {
		return runResult{}, err
	}
	defer cl.close()
	codec, err := soda.NewCodec(cfg.n, cfg.k)
	if err != nil {
		return runResult{}, err
	}
	var wopts []soda.WriterOption
	var ropts []soda.ReaderOption
	if cl.m != nil {
		// Kill mode: membership-aware clients treat the quarantined
		// server as already failed instead of waiting out its timeout.
		wopts = append(wopts, soda.WithWriterMembership(cl.m))
		ropts = append(ropts, soda.WithReaderMembership(cl.m))
	}
	w, err := soda.NewWriter("load-w", codec, cl.conns, wopts...)
	if err != nil {
		return runResult{}, err
	}
	r, err := soda.NewReader("load-r", codec, cl.conns, ropts...)
	if err != nil {
		return runResult{}, err
	}

	keys := make([]string, cfg.keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("load/%06d", i)
	}
	value := make([]byte, cfg.vsize)
	for i := range value {
		value[i] = byte(i * 31)
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration+60*time.Second)
	defer cancel()

	// Prewrite so reads hit written registers from the first arrival
	// (untimed: it is setup, not load).
	if cfg.prewrite {
		var pwg sync.WaitGroup
		sem := make(chan struct{}, 16)
		var perr atomic.Value
		for _, key := range keys {
			sem <- struct{}{}
			pwg.Add(1)
			go func(key string) {
				defer pwg.Done()
				defer func() { <-sem }()
				if _, err := w.Write(ctx, key, value); err != nil {
					perr.Store(err)
				}
			}(key)
		}
		pwg.Wait()
		if err, _ := perr.Load().(error); err != nil {
			return runResult{}, fmt.Errorf("prewrite: %w", err)
		}
	}

	// The bounded in-flight window: cfg.inflight workers behind an
	// unbuffered channel, so an arrival either hands off to an idle
	// worker immediately or is shed. Queue wait still exists inside the
	// window (a worker may be finishing its previous op) and is part of
	// the measured latency because the clock starts at the SCHEDULED
	// arrival time.
	type job struct {
		sched time.Time
		write bool
		key   string
	}
	jobs := make(chan job, cfg.inflight)
	stats := make([]workerStats, cfg.inflight)
	var wwg sync.WaitGroup
	for wi := 0; wi < cfg.inflight; wi++ {
		wwg.Add(1)
		go func(ws *workerStats) {
			defer wwg.Done()
			for j := range jobs {
				var err error
				if j.write {
					_, err = w.Write(ctx, j.key, value)
				} else {
					_, err = r.Read(ctx, j.key)
				}
				lat := time.Since(j.sched).Nanoseconds()
				if err != nil {
					ws.errs++
					continue
				}
				if j.write {
					ws.writeLat = append(ws.writeLat, lat)
				} else {
					ws.readLat = append(ws.readLat, lat)
				}
			}
		}(&stats[wi])
	}

	start := time.Now()
	deadline := start.Add(cfg.duration)

	// The kill loop, when enabled: rotate through victims, power-cut
	// each mid-load, recover it from its own disk, and heal it through
	// quarantine → donor repair while the generator keeps offering.
	// Healing lag is the operator-visible window: power cut to back
	// Live.
	var (
		kills    int64
		healLags []int64 // ns
		kwg      sync.WaitGroup
	)
	if cfg.kill {
		rp, err := soda.NewRepairer(codec, cl.conns, cl.m,
			soda.WithRepairBackoff(soda.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond}))
		if err != nil {
			return runResult{}, err
		}
		pause := cfg.duration / 4
		downFor := min(cfg.duration/10, 150*time.Millisecond)
		kwg.Add(1)
		go func() {
			defer kwg.Done()
			victim := 1
			for {
				time.Sleep(pause)
				// A cycle started too close to the deadline would measure
				// healing of an idle cluster; stop instead.
				if time.Now().Add(pause).After(deadline) || ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				cl.lb.PowerCut(victim)
				cl.m.MarkSuspect(victim, soda.ErrServerDown)
				time.Sleep(downFor)
				if _, err := cl.lb.Recover(victim); err != nil {
					fmt.Fprintf(os.Stderr, "sodaload: kill loop: recover server %d: %v\n", victim, err)
					return
				}
				for ctx.Err() == nil {
					if _, err := rp.RepairOnce(ctx, victim); err == nil {
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
				if !cl.m.IsLive(victim) {
					return
				}
				kills++
				healLags = append(healLags, time.Since(t0).Nanoseconds())
				victim = victim%(cfg.n-1) + 1 // rotate 1..n-1; index 0 stays up
			}
		}()
	}

	// The open loop: arrival i is due at start + i/rate, whether or not
	// anything has completed. Sleeps only when ahead; when behind, it
	// dispatches the backlog as fast as the shed check allows.
	rng := rand.New(rand.NewSource(cfg.seed))
	interval := time.Duration(float64(time.Second) / cfg.rate)
	var arrivals, shed int64
	for i := int64(0); ; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if sched.After(deadline) {
			break
		}
		if d := time.Until(sched); d > 50*time.Microsecond {
			time.Sleep(d)
		}
		arrivals++
		j := job{
			sched: sched,
			write: rng.Float64() >= cfg.readFrac,
			key:   keys[rng.Intn(len(keys))],
		}
		select {
		case jobs <- j:
		default:
			shed++ // in-flight window full: honest accounting, no blocking
		}
	}
	close(jobs)
	wwg.Wait()
	kwg.Wait()
	elapsed := time.Since(start)

	var readLat, writeLat []int64
	var errs int64
	for i := range stats {
		readLat = append(readLat, stats[i].readLat...)
		writeLat = append(writeLat, stats[i].writeLat...)
		errs += stats[i].errs
	}
	sort.Slice(readLat, func(i, j int) bool { return readLat[i] < readLat[j] })
	sort.Slice(writeLat, func(i, j int) bool { return writeLat[i] < writeLat[j] })
	completed := int64(len(readLat) + len(writeLat))

	sort.Slice(healLags, func(i, j int) bool { return healLags[i] < healLags[j] })
	var quarantines uint64
	if cl.m != nil {
		quarantines = cl.m.Quarantines()
	}
	ms := cl.metrics()
	return runResult{
		Transport:           cfg.transport,
		N:                   cfg.n,
		K:                   cfg.k,
		Keys:                cfg.keys,
		OfferedOpsS:         cfg.rate,
		DurationS:           round2(cfg.duration.Seconds()),
		ReadFrac:            cfg.readFrac,
		ValueBytes:          cfg.vsize,
		Inflight:            cfg.inflight,
		Arrivals:            arrivals,
		Completed:           completed,
		Shed:                shed,
		Errors:              errs,
		GoodputOpsS:         round2(float64(completed) / elapsed.Seconds()),
		ReadP50Us:           pctileUs(readLat, 50),
		ReadP99Us:           pctileUs(readLat, 99),
		WriteP50Us:          pctileUs(writeLat, 50),
		WriteP99Us:          pctileUs(writeLat, 99),
		ServerRelays:        ms.Relays,
		ServerRegGCs:        ms.RegGCs,
		ServerRegistrations: ms.Registrations,
		ServerRegisterGCs:   ms.RegisterGCs,

		Kills:                kills,
		HealP50Ms:            pctileMs(healLags, 50),
		HealP99Ms:            pctileMs(healLags, 99),
		ServerQuarantines:    quarantines,
		ServerRepairPuts:     ms.RepairPuts,
		ServerRepairInstalls: ms.RepairInstalls,
		ServerRecoveries:     ms.Recoveries,
	}, nil
}

func printResult(r runResult) {
	fmt.Printf("%s n=%d k=%d keys=%d offered=%.0f/s for %.2gs (read-frac %.2g, %dB values, inflight %d)\n",
		r.Transport, r.N, r.K, r.Keys, r.OfferedOpsS, r.DurationS, r.ReadFrac, r.ValueBytes, r.Inflight)
	fmt.Printf("  arrivals %d  completed %d  shed %d  errors %d  goodput %.0f ops/s\n",
		r.Arrivals, r.Completed, r.Shed, r.Errors, r.GoodputOpsS)
	fmt.Printf("  read  p50 %8.1fµs  p99 %8.1fµs\n", r.ReadP50Us, r.ReadP99Us)
	fmt.Printf("  write p50 %8.1fµs  p99 %8.1fµs\n", r.WriteP50Us, r.WriteP99Us)
	fmt.Printf("  servers: %d relays, %d registration GCs, %d registrations held, %d registers collected\n",
		r.ServerRelays, r.ServerRegGCs, r.ServerRegistrations, r.ServerRegisterGCs)
	if r.Kills > 0 {
		fmt.Printf("  kills %d  heal p50 %.1fms  p99 %.1fms  (%d quarantines, %d repair-puts, %d installed, %d recoveries)\n",
			r.Kills, r.HealP50Ms, r.HealP99Ms, r.ServerQuarantines, r.ServerRepairPuts, r.ServerRepairInstalls, r.ServerRecoveries)
	}
}

// pctileUs returns the p-th percentile of sorted ns latencies in µs
// (0 when the class saw no ops — write-only runs keep the read fields
// present but zero so the JSON schema never shifts).
func pctileUs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return round2(float64(sorted[idx]) / 1000)
}

// pctileMs is pctileUs for coarser (healing-lag) durations: the p-th
// percentile of sorted ns values in ms.
func pctileMs(sorted []int64, p float64) float64 {
	return round2(pctileUs(sorted, p) / 1000)
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// compareSchema verifies two JSON files have the same key structure —
// same nested field paths, value types ignored for numbers vs numbers.
// This is the determinism contract for BENCH_soda.json: regeneration
// on a different machine changes numbers, never shape.
func compareSchema(aPath, bPath string) error {
	a, err := schemaPaths(aPath)
	if err != nil {
		return err
	}
	b, err := schemaPaths(bPath)
	if err != nil {
		return err
	}
	var diffs []string
	for p := range a {
		if !b[p] {
			diffs = append(diffs, fmt.Sprintf("  only in %s: %s", aPath, p))
		}
	}
	for p := range b {
		if !a[p] {
			diffs = append(diffs, fmt.Sprintf("  only in %s: %s", bPath, p))
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("schemas differ:\n%s", strings.Join(diffs, "\n"))
	}
	return nil
}

func schemaPaths(path string) (map[string]bool, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(buf, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bool{}
	walkSchema(v, "$", out)
	return out, nil
}

func walkSchema(v any, path string, out map[string]bool) {
	switch t := v.(type) {
	case map[string]any:
		for k, sub := range t {
			walkSchema(sub, path+"."+k, out)
		}
	case []any:
		out[path+"[]"] = true
		if len(t) > 0 {
			walkSchema(t[0], path+"[]", out)
		}
	default:
		out[fmt.Sprintf("%s:%T", path, v)] = true
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sodaload:", err)
	os.Exit(1)
}

// Command bench is the repository's benchmark: four closed-loop
// workloads that differ in one layer each, end-to-end metrics from an
// untraced run, and per-layer metrics plus a latency budget from a
// traced run. README.md in this directory defines every metric.
//
//	go run -C bench . -seed 1                      every workload, untraced
//	go run -C bench . -trace 1 -seed 1             every workload, traced
//	go run -C bench . -workload mux-small -seconds 20 -seed 3 -trace 0
//	go run -C bench . -smoke                       quick self-check against BENCHMARK.json
//	go run -C bench . -agree a.json b.json         compare two result files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/soda"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: relative worsening that is a regression
}

// endToEnd and perLayer are the metric lists; BENCHMARK.json repeats
// them for the driver and -smoke fails when the two differ.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"write_p99_us", "us", "lower", 0.25},
	{"read_p99_us", "us", "lower", 0.25},
	{"storage_overhead", "B/B", "lower", 0.001},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "gf256_muladd_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "rs_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "rs_reconstruct_ns", Unit: "ns", Better: "lower"},
	{Name: "rs_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "codec_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "codec_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "codec_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "server_gettag_ns", Unit: "ns", Better: "lower"},
	{Name: "server_put_ns", Unit: "ns", Better: "lower"},
	{Name: "server_register_ns", Unit: "ns", Better: "lower"},
	{Name: "wal_put_ns", Unit: "ns", Better: "lower"},
	{Name: "wal_bytes_per_user_byte", Unit: "B/B", Better: "lower"},
	{Name: "wal_group_syncs_per_append", Unit: "ratio", Better: "higher"},
	{Name: "snapshots", Unit: "count", Better: "lower"},
	{Name: "rpc_gettag_us", Unit: "us", Better: "lower"},
	{Name: "rpc_putdata_us", Unit: "us", Better: "lower"},
	{Name: "rpc_getdata_first_us", Unit: "us", Better: "lower"},
	{Name: "rpcs_per_op", Unit: "count", Better: "lower"},
	{Name: "wire_bytes_per_user_byte_write", Unit: "B/B", Better: "lower"},
	{Name: "wire_bytes_per_user_byte_read", Unit: "B/B", Better: "lower"},
	{Name: "relays_per_read", Unit: "count", Better: "lower"},
	{Name: "client_write_self_us", Unit: "us", Better: "lower"},
	{Name: "client_read_self_us", Unit: "us", Better: "lower"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "heap_inuse_mb", Unit: "MB", Better: "lower"},
	{Name: "gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// config is what one invocation fixes for every workload it runs.
type config struct {
	seed      uint64
	measure   time.Duration
	warmup    time.Duration
	setupReps int           // set-ups timed per run; setup_s is their median
	probe     time.Duration // time budget of each direct-call probe
	waldir    string
}

// outDir, under bench/, takes everything a run writes.
const outDir = "out"

type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // timings: ops behind the figure
}

type result struct {
	Workload   string           `json:"workload"`
	Correct    bool             `json:"correct"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	FirstError string           `json:"first_error,omitempty"`
	Metrics    map[string]value `json:"metrics"`
	Budgets    []budget         `json:"budgets,omitempty"` // traced runs: indexed opRead, opWrite
}

type resultSet struct {
	Env     env      `json:"env"`
	Trace   bool     `json:"trace"`
	Results []result `json:"results"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "seed of every client's op stream")
		seconds  = flag.Float64("seconds", 30, "measured window in seconds, after a 2 s untimed warm-up; a traced run spends half untraced and half traced")
		trace    = flag.Int("trace", 0, "1: the traced run (per-layer metrics and budget); 0: end-to-end metrics")
		waldir   = flag.String("waldir", "", "parent directory of the WAL directories (default out/wal, under a private tmpfs where the kernel allows one)")
		jsonOut  = flag.String("json", "", "also write the results to this file")
		smoke    = flag.Bool("smoke", false, "run every workload for 1 s, untraced and traced, and check the emitted names against ../BENCHMARK.json")
		agree    = flag.Bool("agree", false, "compare two result files: -agree base.json new.json")
	)
	flag.Parse()
	if *waldir == "" && !*agree {
		*waldir = filepath.Join(outDir, "wal")
		if code, ran := runOnPrivateTmpfs(*waldir); ran {
			os.Exit(code)
		}
	}
	var err error
	switch {
	case *agree:
		err = agreeFiles(flag.Args())
	case *smoke:
		err = runSmoke(*waldir)
	default:
		cfg := config{seed: *seed, measure: time.Duration(*seconds * float64(time.Second)), warmup: 2 * time.Second,
			setupReps: 3, probe: 200 * time.Millisecond, waldir: *waldir}
		err = runMain(cfg, *workload, *trace == 1, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func runMain(cfg config, workload string, traced bool, jsonOut string) error {
	specs := workloads
	if workload != "all" {
		sp, ok := findWorkload(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		specs = []spec{sp}
	}
	set := resultSet{Env: readEnv(cfg), Trace: traced}
	set.Env.print()
	for _, sp := range specs {
		res, err := runWorkload(sp, cfg, traced)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		res.print(traced)
		set.Results = append(set.Results, res)
	}
	if traced && len(specs) == len(workloads) {
		printDifferential(set.Results)
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	var bad error
	for _, res := range set.Results {
		if !res.Correct {
			bad = errors.Join(bad, fmt.Errorf("%s: %d of %d ops failed or a check did not hold: %s", res.Workload, res.Failed, res.Attempted, res.FirstError))
		}
	}
	if len(set.Results) == 1 {
		if err := set.Results[0].printContractLine(); err != nil {
			return err
		}
	}
	return bad
}

// printContractLine prints the one-object summary a driver reads from
// the last line of a single-workload run.
func (r *result) printContractLine() error {
	type plain struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]plain `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]plain{}}
	for name, v := range r.Metrics {
		out.Metrics[name] = plain{v.Value, v.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (r *result) print(traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		line := fmt.Sprintf("%s %s %.6g %s", r.Workload, d.Name, v.Value, v.Unit)
		if v.Samples > 0 {
			line += fmt.Sprintf(" n=%d", v.Samples)
		}
		fmt.Println(line)
	}
	fmt.Printf("# %s: attempted %d, failed %d (failed_frac %g)\n", r.Workload, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	for _, b := range r.Budgets {
		b.print(r.Workload)
	}
}

func (r *result) set(name string, v float64, samples int) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				r.Metrics[name] = value{Value: v, Unit: d.Unit, Samples: samples}
				return
			}
		}
	}
	panic("bench: metric " + name + " is in neither list")
}

func runWorkload(sp spec, cfg config, traced bool) (result, error) {
	res := result{Workload: sp.name, Metrics: map[string]value{}}
	runtime.GC() // an earlier workload's garbage is not this one's set-up cost
	var h *harness
	var setups []float64
	reps := cfg.setupReps
	if traced {
		reps = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	for range reps {
		if h != nil {
			if err := h.cl.close(); err != nil {
				return res, err
			}
		}
		var d time.Duration
		var err error
		if h, d, err = setUp(sp, cfg.waldir); err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
	}
	var err error
	if traced {
		err = tracedRun(h, cfg, &res)
	} else {
		win := h.run(cfg.seed, h.w, h.r, cfg.warmup, cfg.measure, false)
		h.sweep()
		res.set("ops_per_s", win.opsPerSec(), win.ops())
		res.set("write_p50_us", win.latencyUS(opWrite, 50), win.count(opWrite))
		res.set("read_p50_us", win.latencyUS(opRead, 50), win.count(opRead))
		res.set("write_p99_us", win.latencyUS(opWrite, 99), win.count(opWrite))
		res.set("read_p99_us", win.latencyUS(opRead, 99), win.count(opRead))
		res.set("storage_overhead", h.storageOverhead(), 0)
		res.set("setup_s", median(setups), 0)
	}
	err = errors.Join(err, h.cl.close())
	res.Attempted, res.Failed = h.attempted.Load(), h.failed.Load()
	if h.firstErr != nil {
		res.FirstError = h.firstErr.Error()
	}
	res.Correct = res.Failed == 0
	return res, err
}

// tracedRun measures the workload untraced for half the window and
// traced for the other half, probes the layers directly, and fills the
// per-layer metrics and the budgets. A broken cost-model check counts
// as a failed op.
func tracedRun(h *harness, cfg config, res *result) error {
	half := cfg.measure / 2
	before := serverCounters(h.cl.servers)

	gc0, cpu0 := gcCPU()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := h.run(cfg.seed, h.w, h.r, cfg.warmup, half, false)
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := gcCPU()
	res.set("allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(plain.ops()), 0)
	res.set("alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(plain.ops()), 0)
	gcFrac := 0.0 // the runtime updates these at GC cycles: no cycle, no CPU spent
	if cpu1 > cpu0 {
		gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	res.set("gc_cpu_frac", gcFrac, 0)

	tw, tr, err := h.newClients("traced", traceConns(h.cl.conns))
	if err != nil {
		return err
	}
	win := h.run(cfg.seed, tw, tr, 0, half, true)
	res.set("trace_overhead_frac", 1-win.opsPerSec()/plain.opsPerSec(), 0)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.set("heap_inuse_mb", float64(m1.HeapInuse)/1e6, 0)
	h.sweep()

	after := serverCounters(h.cl.servers)
	appends := after.WALAppends - before.WALAppends
	groupSyncs := 0.0
	if appends > 0 {
		groupSyncs = float64(after.WALGroupSyncs-before.WALGroupSyncs) / float64(appends)
	}
	res.set("wal_group_syncs_per_append", groupSyncs, int(appends))
	res.set("snapshots", float64(after.Snapshots-before.Snapshots), 0)

	agg := mergeTraces(win.traces)
	res.set("rpc_gettag_us", medianUS(agg.rpcDur[rpcGetTag]), len(agg.rpcDur[rpcGetTag]))
	res.set("rpc_putdata_us", medianUS(agg.rpcDur[rpcPutData]), len(agg.rpcDur[rpcPutData]))
	res.set("rpc_getdata_first_us", medianUS(agg.rpcDur[rpcGetData]), len(agg.rpcDur[rpcGetData]))
	res.set("client_write_self_us", medianUS(agg.self[opWrite]), len(agg.self[opWrite]))
	res.set("client_read_self_us", medianUS(agg.self[opRead]), len(agg.self[opRead]))
	reads, writes := float64(agg.ops[opRead]), float64(agg.ops[opWrite])
	v := float64(h.sp.valueSize)
	elem := float64(shardSize(h.sp.valueSize))
	wireW, wireR := float64(agg.putBytes)/(writes*v), float64(agg.gotBytes)/(reads*v)
	relays := float64(agg.relays) / reads
	res.set("rpcs_per_op", float64(agg.rpcs)/(reads+writes), int(reads+writes))
	res.set("wire_bytes_per_user_byte_write", wireW, int(writes))
	res.set("wire_bytes_per_user_byte_read", wireR, int(reads))
	res.set("relays_per_read", relays, int(reads))
	// The paper's costs, in element bytes: a write sends each server one
	// element, n/k of the value plus padding; a read receives one from
	// each server plus one per relay, (dw+1)*n/k with dw = relays/n.
	modelW, modelR := nServers*elem/v, (nServers+relays)*elem/v
	fmt.Printf("# %s: wire bytes per user byte: write %.6g (model n/k with padding %.6g), read %.6g (model (relays_per_read/n+1)*n/k with padding %.6g)\n",
		h.sp.name, wireW, modelW, wireR, modelR)
	if wireW > modelW*(1+1e-9) || wireR > modelR*(1+1e-9) {
		h.fail(fmt.Errorf("wire bytes per user byte exceed the cost model: write %g > %g or read %g > %g", wireW, modelW, wireR, modelR))
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(outDir, "trace-"+h.sp.name+".jsonl"), win.traces); err != nil {
		return err
	}

	layers, err := probeLayers(h.sp.valueSize, cfg.probe, cfg.waldir)
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	for name, v := range layers {
		res.set(name, v, 0)
	}
	walNS := 0.0
	if h.sp.transport == "wal" {
		walNS = layers["wal_put_ns"]
	}
	// A Write encodes into pooled scratch: the copy of the value stays in
	// client self and the codec row is rs.EncodeInto. codec_encode_ns
	// (EncodeValue) also allocates the n elements, which a Write does not.
	res.Budgets = []budget{
		opRead: newBudget("read", plain.latencyUS(opRead, 50), medianUS(agg.self[opRead]), medianUS(agg.blocked[opRead]),
			layers["codec_decode_ns"], layers["server_register_ns"], 0),
		opWrite: newBudget("write", plain.latencyUS(opWrite, 50), medianUS(agg.self[opWrite]), medianUS(agg.blocked[opWrite]),
			layers["rs_encode_ns"], layers["server_gettag_ns"]+layers["server_put_ns"], walNS),
	}
	return nil
}

func serverCounters(servers []*soda.Server) soda.MetricsSnapshot {
	var sum soda.MetricsSnapshot
	for _, s := range servers {
		sum.Add(s.Metrics().Snapshot())
	}
	return sum
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// mergeTraces concatenates the clients' aggregates.
func mergeTraces(traces []*clientTrace) *clientTrace {
	agg := &clientTrace{}
	for _, tr := range traces {
		for kind := range tr.self {
			agg.ops[kind] += tr.ops[kind]
			agg.self[kind] = append(agg.self[kind], tr.self[kind]...)
			agg.blocked[kind] = append(agg.blocked[kind], tr.blocked[kind]...)
		}
		for r := range tr.rpcDur {
			agg.rpcDur[r] = append(agg.rpcDur[r], tr.rpcDur[r]...)
		}
		agg.rpcs += tr.rpcs
		agg.putBytes += tr.putBytes
		agg.gotBytes += tr.gotBytes
		agg.relays += tr.relays
	}
	return agg
}

// budget splits one op type's median latency into layers. self and
// blocked come from the trace (op span minus, and equal to, the union of
// its RPC spans); codec, apply and wal are the direct probes. The codec
// runs inside the client's self time and the server inside the RPC
// spans, so each probe is subtracted from the span that contains it.
type budget struct {
	Op          string  `json:"op"`
	CodecUS     float64 `json:"codec_us"`
	ClientUS    float64 `json:"client_self_us"`
	ServerUS    float64 `json:"server_apply_us"`
	WALUS       float64 `json:"wal_us"`
	TransportUS float64 `json:"transport_us"`
	SumUS       float64 `json:"sum_us"`
	MeasuredUS  float64 `json:"measured_p50_us"` // untraced
	Unexplained float64 `json:"unexplained_us"`
}

func newBudget(op string, measuredUS, selfUS, blockedUS, codecNS, applyNS, walNS float64) budget {
	b := budget{Op: op, CodecUS: codecNS / 1e3, ServerUS: applyNS / 1e3, WALUS: walNS / 1e3, MeasuredUS: measuredUS}
	b.ClientUS = selfUS - b.CodecUS
	b.TransportUS = blockedUS - b.ServerUS - b.WALUS
	b.SumUS = b.CodecUS + b.ClientUS + b.ServerUS + b.WALUS + b.TransportUS
	b.Unexplained = measuredUS - b.SumUS
	return b
}

func (b budget) print(workload string) {
	fmt.Printf("# budget %s %s (us): client self %.3g + codec %.3g + transport %.3g + server apply %.3g + wal %.3g = %.4g; measured p50 %.4g; unexplained %.3g (%.1f%%)\n",
		workload, b.Op, b.ClientUS, b.CodecUS, b.TransportUS, b.ServerUS, b.WALUS, b.SumUS, b.MeasuredUS, b.Unexplained, 100*b.Unexplained/b.MeasuredUS)
}

// printDifferential reads each layer's cost from outside, as a
// difference between two workloads that differ only in that layer, and
// sets it beside the traced figure.
func printDifferential(results []result) {
	by := map[string]result{}
	for _, r := range results {
		by[r.Workload] = r
	}
	p50 := func(workload string, kind int) float64 { return by[workload].Budgets[kind].MeasuredUS }
	transport := func(workload string, kind int) float64 { return by[workload].Budgets[kind].TransportUS }
	loopW, loopR := p50("loop-small", opWrite), p50("loop-small", opRead)
	fmt.Printf("# differential transport: mux-small - loop-small write p50 = %.4g us, read p50 = %.4g us; traced transport rows differ by %.4g us (write), %.4g us (read)\n",
		p50("mux-small", opWrite)-loopW, p50("mux-small", opRead)-loopR,
		transport("mux-small", opWrite)-transport("loop-small", opWrite), transport("mux-small", opRead)-transport("loop-small", opRead))
	walDiff, walPut, walR := p50("wal-small", opWrite)-loopW, by["wal-small"].Metrics["wal_put_ns"].Value/1e3, p50("wal-small", opRead)
	fmt.Printf("# differential WAL: wal-small - loop-small write p50 = %.4g us = %.2f x wal_put_ns (%.4g us) on the blocking path; read p50 %.4g vs %.4g us (control, %+.1f%%)\n",
		walDiff, walDiff/walPut, walPut, walR, loopR, 100*(walR/loopR-1))
	fmt.Printf("# differential value size: loop-large - loop-small write p50 = %.4g us (rs_encode %.4g us), read p50 = %.4g us (codec_decode %.4g us)\n",
		p50("loop-large", opWrite)-loopW, by["loop-large"].Metrics["rs_encode_ns"].Value/1e3,
		p50("loop-large", opRead)-loopR, by["loop-large"].Metrics["codec_decode_ns"].Value/1e3)
}

// finite reports whether every metric of the result is a number.
func (r *result) finite() error {
	for name, v := range r.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s %s is %v", r.Workload, name, v.Value)
		}
	}
	return nil
}

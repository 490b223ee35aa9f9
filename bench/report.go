package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/gf256"
)

// env is the header of every result: what a number was measured on, so
// it is never read without knowing whether it was scheduler- or
// device-bound.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu_model"`
	Kernel     string  `json:"gf256_kernel"`
	Clients    int     `json:"clients"`
	WALDir     string  `json:"wal_dir"`
	WALFS      string  `json:"wal_fs"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	Slices     int     `json:"window_slices"`
	Seed       uint64  `json:"seed"`
	Commit     string  `json:"git_commit"`
}

func readEnv(cfg config) env {
	e := env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: "unknown", Kernel: gf256.KernelName(), Clients: clientCount(),
		WALDir: cfg.waldir, WALFS: "unknown",
		WindowS: cfg.measure.Seconds(), WarmupS: cfg.warmup.Seconds(), Slices: windowSlices,
		Seed: cfg.seed, Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if abs, err := filepath.Abs(cfg.waldir); err == nil {
		e.WALDir = abs
		e.WALFS = fsType(abs)
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// fsType names the filesystem of the longest mount point that contains
// path, from /proc/self/mounts.
func fsType(path string) string {
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		under := mount == "/" || path == mount || strings.HasPrefix(path, mount+"/")
		if under && len(mount) > len(best) {
			best, kind = mount, f[2]
		}
	}
	return kind
}

func (e env) print() {
	fmt.Printf("# env: nproc %d, GOMAXPROCS %d, %s, cpu %q, gf256 kernel %s, %d closed-loop clients\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPU, e.Kernel, e.Clients)
	fmt.Printf("# env: window %g s in %d slices after %g s warm-up, seed %d, commit %s, wal dir %s (%s)\n",
		e.WindowS, e.Slices, e.WarmupS, e.Seed, e.Commit, e.WALDir, e.WALFS)
	fmt.Println("# latency here is processor and kernel time on one machine: the servers share the clients' process and 127.0.0.1 carries no network delay")
}

// benchmarkFile is BENCHMARK.json, as far as this program checks it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// runSmoke runs every workload briefly, untraced and traced, and fails
// unless the workloads and the metrics emitted are exactly the lists in
// ../BENCHMARK.json, with every figure a number and no timing zero: the
// file and the program cannot drift apart.
func runSmoke(waldir string) error {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, sp := range workloads {
		want = append(want, sp.name)
	}
	if !reflect.DeepEqual(names, want) {
		return fmt.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		return fmt.Errorf("BENCHMARK.json end_to_end %+v, program emits %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		return fmt.Errorf("BENCHMARK.json per_layer %+v, program emits %+v", file.PerLayer, perLayer)
	}

	cfg := config{seed: 1, measure: time.Second, warmup: 100 * time.Millisecond, setupReps: 1,
		probe: 20 * time.Millisecond, waldir: waldir}
	for _, sp := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(sp, cfg, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d ops failed: %s", sp.name, res.Failed, res.Attempted, res.FirstError)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				return fmt.Errorf("%s (traced %v): %d metrics emitted, %d listed", sp.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok {
					return fmt.Errorf("%s: metric %s not emitted", sp.name, d.Name)
				}
				if !traced && v.Value == 0 {
					return fmt.Errorf("%s: %s is zero", sp.name, d.Name)
				}
			}
			if err := res.finite(); err != nil {
				return err
			}
			res.print(traced)
		}
	}
	fmt.Println("smoke: ok")
	return nil
}

// agreeFiles compares two result files per (workload, end-to-end
// metric): how much worse the second is than the first, as a share of
// the first, against the metric's bound.
func agreeFiles(paths []string) error {
	if len(paths) != 2 {
		return errors.New("-agree takes two result files: base.json new.json")
	}
	var sets [2]resultSet
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if sets[i].Trace {
			return fmt.Errorf("%s holds a traced run; end-to-end metrics come from untraced runs", p)
		}
	}
	newer := map[string]result{}
	for _, r := range sets[1].Results {
		newer[r.Workload] = r
	}
	exceeded := 0
	fmt.Printf("%-11s %-17s %14s %14s %9s %7s\n", "workload", "metric", "base", "new", "worse by", "bound")
	for _, base := range sets[0].Results {
		other, ok := newer[base.Workload]
		if !ok {
			return fmt.Errorf("%s: workload %s missing", paths[1], base.Workload)
		}
		if base.Failed != 0 || other.Failed != 0 {
			fmt.Printf("%-11s failed ops: base %d, new %d\n", base.Workload, base.Failed, other.Failed)
			exceeded++
		}
		for _, d := range endToEnd {
			a, b := base.Metrics[d.Name].Value, other.Metrics[d.Name].Value
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-11s %-17s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", base.Workload, d.Name, a, b, 100*worse, 100*d.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d comparisons exceed their bound", exceeded)
	}
	return nil
}

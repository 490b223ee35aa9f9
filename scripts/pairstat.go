//go:build ignore

// pairstat is the arithmetic half of bench-pairs.sh: it reads the
// result lines the script collected (one JSON object per run, parent
// and change side by side per pair) and BENCHMARK.json, and prints the
// comparison table. Run through the script, not by hand.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

type benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// run is the last line of one `go run -C bench . -workload W`.
type run struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	benchFile := flag.String("benchmark", "BENCHMARK.json", "the benchmark declaration")
	dir := flag.String("dir", "", "directory of <workload>.parent.jsonl and <workload>.change.jsonl")
	listWorkloads := flag.Bool("workloads", false, "print the benchmark's workload names and exit")
	flag.Parse()
	var bm benchmark
	data, err := os.ReadFile(*benchFile)
	if err == nil {
		err = json.Unmarshal(data, &bm)
	}
	if err != nil {
		fatal(err)
	}
	if *listWorkloads {
		for _, w := range bm.Workloads {
			fmt.Println(w.Name)
		}
		return
	}

	failed := false
	fmt.Printf("%-11s %-17s %12s %24s %12s %24s %8s %5s %5s  %s\n",
		"workload", "metric", "parent p50", "[q1, q3]", "change p50", "[q1, q3]", "change", "won", "lost", "verdict")
	for _, w := range flag.Args() {
		parent, err := readRuns(filepath.Join(*dir, w+".parent.jsonl"))
		if err != nil {
			fatal(err)
		}
		change, err := readRuns(filepath.Join(*dir, w+".change.jsonl"))
		if err != nil {
			fatal(err)
		}
		if len(parent) != len(change) || len(parent) == 0 {
			fatal(fmt.Errorf("%s: %d parent runs, %d change runs", w, len(parent), len(change)))
		}
		for i := range parent {
			for side, r := range [2]run{parent[i], change[i]} {
				if r.Failed != 0 || r.Attempted == 0 {
					fmt.Printf("%-11s pair %d, %s: %d of %d ops failed\n", w, i+1, [2]string{"parent", "change"}[side], r.Failed, r.Attempted)
					failed = true
				}
			}
		}
		for _, m := range bm.EndToEnd {
			var p, c []float64
			won, lost := 0, 0
			for i := range parent {
				a, b := parent[i].Metrics[m.Name].Value, change[i].Metrics[m.Name].Value
				p, c = append(p, a), append(c, b)
				if m.Better == "higher" {
					a, b = b, a
				}
				switch { // lower is better from here on; a tie counts for neither
				case b < a:
					won++
				case b > a:
					lost++
				}
			}
			pq, cq := quartiles(p), quartiles(c)
			// worse is how much worse the change's median is, as a share of
			// the parent's; negative when it is better.
			worse := (cq[1] - pq[1]) / pq[1]
			if m.Better == "higher" {
				worse = -worse
			}
			beyondSpread := abs(cq[1]-pq[1]) > pq[2]-pq[0]
			pairs := len(parent)
			verdict := "ok"
			switch {
			case pq[0] == pq[2] && cq[0] == cq[2] && pq[1] == cq[1]:
				verdict = "identical" // an exact count: every run of both sides, bit for bit
			case pairs < 10:
				verdict = "-" // the rule needs ten pairs
			case 10*won >= 9*pairs && worse < 0 && beyondSpread:
				verdict = "gain"
			case worse > m.Bound, 10*lost >= 9*pairs && worse > 0 && beyondSpread:
				verdict = "worse"
			case (pq[2]-pq[0])/pq[1] > m.Bound, (cq[2]-cq[0])/cq[1] > m.Bound:
				verdict = "unresolved" // the runs spread wider than the bound
			}
			fmt.Printf("%-11s %-17s %12.6g %24s %12.6g %24s %+7.1f%% %2d/%-2d %2d/%-2d  %s\n",
				w, m.Name, pq[1], span(pq), cq[1], span(cq), 100*(cq[1]-pq[1])/pq[1], won, pairs, lost, pairs, verdict)
		}
	}
	fmt.Println("# gain: won >= 9/10 of the pairs and the medians differ by more than the parent's q3-q1; worse: median worse by more")
	fmt.Println("# than the bound, or the mirror image of gain; unresolved: either side's q3-q1 exceeds the bound; identical: every run")
	fmt.Println("# of both sides printed the same value; -: fewer than ten pairs, no verdict. change: of the median, parent as base")
	if failed {
		os.Exit(1)
	}
}

func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: run %d printed no result line: %w", path, len(runs)+1, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// quartiles returns q1, the median and q3 by linear interpolation.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func span(q [3]float64) string { return fmt.Sprintf("[%.6g, %.6g]", q[0], q[2]) }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pairstat:", err)
	os.Exit(2)
}

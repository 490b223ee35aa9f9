// Command sodavet is the repo's project-invariant static analyzer: a
// stdlib-only go-vet-style driver that loads and typechecks every
// package in the module and runs the internal/lint analyzer suite
// (atomicmix, lockhold, errwrap, epochframe, poolsafe, testonly) over
// it. testonly counts every package's references, selected or not, so
// linting one package still sees the uses in bench/, cmd/ and the
// examples.
//
// Usage:
//
//	sodavet [-json] [-rules atomicmix,errwrap] [-list] [packages...]
//
// Packages default to ./... relative to the module root (found by
// walking up from the working directory). Exit status: 0 clean,
// 1 findings, 2 usage or load failure.
//
// Suppress a finding at one site with
//
//	//lint:ignore <rule> <reason>
//
// on the flagged line or the line above it. The reason is mandatory
// and the rule name must exist; malformed directives fail the run and
// cannot themselves be suppressed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	rules := flag.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := flag.Bool("list", false, "list registered analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All
	if *rules != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range lint.All {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*rules, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "sodavet: unknown rule %q (known: %s)\n", name, strings.Join(lint.Rules(), ", "))
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sodavet:", err)
		os.Exit(2)
	}
	pkgs, err := lint.LoadModule(root, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "sodavet:", err)
		os.Exit(2)
	}

	diags := lint.Run(pkgs, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "sodavet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "sodavet: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the nearest
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Command tracepvet is the repository's custom static-analysis suite: a
// go vet-style multichecker enforcing, at the source level, the invariants
// the test suite otherwise only catches at runtime — the zero-allocation
// cycle loop, byte-identical (order-deterministic) sweeps, snapshot
// completeness of CopyFrom/ResetStats/reset, and explicit wire-format tags.
//
// Usage:
//
//	go run ./cmd/tracepvet ./...
//	go run ./cmd/tracepvet -only noalloc,maprange ./internal/proc
//	go run ./cmd/tracepvet -list ./...   # dump the //tracep:noalloc set
//
// Exit status is 0 when the tree is clean, 1 when any analyzer reports a
// finding, and 2 on driver errors (unparseable code, broken packages).
// See internal/lint for the analyzers and the //tracep: directive language.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tracep/internal/analysis"
	"tracep/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list //tracep:noalloc-marked functions and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tracepvet [-only a,b] [-list] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers(lint.NewWorld(nil)) {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, _ := os.Getwd()
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracepvet:", err)
		os.Exit(2)
	}
	world := lint.NewWorld(pkgs)

	if *list {
		funcs := world.NoallocFuncs()
		sort.Strings(funcs)
		for _, fn := range funcs {
			fmt.Println(fn)
		}
		return
	}

	analyzers := lint.Analyzers(world)
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		if len(keep) > 0 {
			names := make([]string, 0, len(keep))
			for name := range keep { //tracep:orderinvariant sorted below
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Fprintf(os.Stderr, "tracepvet: unknown analyzer(s): %s\n", strings.Join(names, ", "))
			os.Exit(2)
		}
		analyzers = sel
	}

	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracepvet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			f.Pos.Filename = rel
		}
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

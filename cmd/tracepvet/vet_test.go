package main

import (
	"strings"
	"testing"

	"tracep/internal/analysis"
	"tracep/internal/analysis/analysistest"
	"tracep/internal/lint"
)

// single adapts a World-free analyzer to analysistest.Run's build hook.
func single(a *analysis.Analyzer) func([]*analysis.Package) []*analysis.Analyzer {
	return func([]*analysis.Package) []*analysis.Analyzer {
		return []*analysis.Analyzer{a}
	}
}

func TestNoAllocAnalyzer(t *testing.T) {
	analysistest.Run(t, "testdata", []string{"./src/noalloc"},
		func(pkgs []*analysis.Package) []*analysis.Analyzer {
			return []*analysis.Analyzer{lint.NoAlloc(lint.NewWorld(pkgs))}
		})
}

func TestMapRangeAnalyzer(t *testing.T) {
	analysistest.Run(t, "testdata", []string{"./src/maprange"}, single(lint.MapRange()))
}

func TestCloneCompleteAnalyzer(t *testing.T) {
	analysistest.Run(t, "testdata", []string{"./src/clonecomplete"}, single(lint.CloneComplete()))
}

func TestStatsCompleteAnalyzer(t *testing.T) {
	analysistest.Run(t, "testdata", []string{"./src/statscomplete"}, single(lint.StatsComplete()))
}

func TestResetCompleteAnalyzer(t *testing.T) {
	analysistest.Run(t, "testdata", []string{"./src/resetcomplete"}, single(lint.ResetComplete()))
}

func TestWireJSONAnalyzer(t *testing.T) {
	analysistest.Run(t, "testdata", []string{"./src/wirejson"}, single(lint.WireJSON()))
}

// TestDirectiveAnalyzer checks the directive validator without want
// comments: its findings sit on the directive comments themselves, where a
// same-line expectation comment cannot be attached.
func TestDirectiveAnalyzer(t *testing.T) {
	pkgs, err := analysis.Load("testdata", "./src/directive")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings, err := analysis.Run(pkgs, []*analysis.Analyzer{lint.Directive()})
	if err != nil {
		t.Fatalf("running directive analyzer: %v", err)
	}
	want := []string{
		`unknown directive "//tracep:noaloc"`,
		`//tracep:allow requires a reason`,
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(want), findings)
	}
	for i, substr := range want {
		if !strings.Contains(findings[i].Message, substr) {
			t.Errorf("finding %d = %q, want a message containing %q", i, findings[i].Message, substr)
		}
	}
}

// TestRepoClean runs the full analyzer suite over the repository itself, so
// `go test ./...` enforces the invariants even where CI's explicit tracepvet
// step is not wired up.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	world := lint.NewWorld(pkgs)
	findings, err := analysis.Run(pkgs, lint.Analyzers(world))
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if n := len(world.NoallocFuncs()); n < 100 {
		t.Errorf("only %d //tracep:noalloc marks found; the cycle-loop closure should be well past 100", n)
	}
}

// Package lint holds tracepvet's project-specific analyzers. They enforce,
// at the source level, the invariants the repository otherwise only checks
// at runtime:
//
//   - noalloc: functions marked //tracep:noalloc (the warmed cycle loop)
//     must contain no heap-allocating constructs, and may only call other
//     noalloc functions or whitelisted leaves. Guards the PR-5 zero-alloc
//     engine (proc.TestSteadyStateAllocs) structurally.
//   - maprange: map iteration in non-test code is an error unless the loop
//     is marked //tracep:orderinvariant, guarding byte-identity of sweeps
//     against ci-baseline.json.
//   - clonecomplete / statscomplete: CopyFrom and ResetStats methods must
//     mention every field of their receiver struct (or the field is marked
//     //tracep:noclone / //tracep:nostats), so new state cannot silently
//     miss the snapshot machinery.
//   - resetcomplete: the same contract for reset methods — above all
//     proc.Processor's, the one construction path of a reused engine —
//     with //tracep:keep marking arenas deliberately retained across
//     resets.
//   - wirejson: in a struct that carries any json tag, every exported field
//     must carry one, keeping the server/client wire format explicit.
//   - directive: every //tracep: comment must be well-formed and known.
//
// All directives are ordinary comments:
//
//	//tracep:noalloc                      (function or interface-method doc)
//	//tracep:allow <reason>               (this line and the next)
//	//tracep:orderinvariant [reason]      (this line and the next)
//	//tracep:noclone [reason]             (struct field doc or trailing)
//	//tracep:nostats [reason]             (struct field doc or trailing)
//	//tracep:keep [reason]                (struct field doc or trailing)
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tracep/internal/analysis"
)

const prefix = "//tracep:"

// World is the project-wide fact base shared by the analyzers: which
// functions (and interface methods) are marked noalloc, and which module the
// analyzed tree belongs to — calls within that module must target marked
// functions, calls outside it must target the whitelist.
type World struct {
	// noalloc maps types.Func.FullName() of marked functions and interface
	// methods. Keys are strings, not objects, because the same function is a
	// distinct types.Object in its defining package's source view and in
	// importers' export-data views.
	noalloc map[string]bool
	// modules holds the module paths of the analyzed packages; a callee
	// whose package lies under one of them is "ours" and must be marked.
	modules map[string]bool
}

// NewWorld scans every package for //tracep:noalloc marks and returns the
// shared fact base. It must see all packages of the run before any analyzer
// executes so cross-package calls resolve against complete facts.
func NewWorld(pkgs []*analysis.Package) *World {
	w := &World{noalloc: make(map[string]bool), modules: make(map[string]bool)}
	for _, pkg := range pkgs {
		if pkg.Module != "" {
			w.modules[pkg.Module] = true
		}
		for _, f := range pkg.Files {
			w.collectMarks(pkg, f)
		}
	}
	return w
}

func (w *World) collectMarks(pkg *analysis.Package, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if hasDirective(d.Doc, "noalloc") {
				if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
					w.noalloc[fn.FullName()] = true
				}
			}
		case *ast.GenDecl:
			// Interface methods may be marked too: a call through the
			// interface is then trusted (its implementations are expected to
			// be marked themselves, which tracepvet checks wherever they are
			// called directly).
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				it, ok := ts.Type.(*ast.InterfaceType)
				if !ok {
					continue
				}
				for _, m := range it.Methods.List {
					if !hasDirective(m.Doc, "noalloc") || len(m.Names) == 0 {
						continue
					}
					for _, name := range m.Names {
						if fn, ok := pkg.Info.Defs[name].(*types.Func); ok {
							w.noalloc[fn.FullName()] = true
						}
					}
				}
			}
		}
	}
}

// isNoalloc reports whether fn is marked //tracep:noalloc.
func (w *World) isNoalloc(fn *types.Func) bool { return w.noalloc[fn.FullName()] }

// isLocal reports whether pkg belongs to the analyzed module tree.
func (w *World) isLocal(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	for mod := range w.modules { //tracep:orderinvariant any-match test
		if path == mod || strings.HasPrefix(path, mod+"/") {
			return true
		}
	}
	return false
}

// NoallocFuncs returns the FullNames of all marked functions, for tooling
// (cmd/tracepvet -list and the escape-analysis cross-check).
func (w *World) NoallocFuncs() []string {
	out := make([]string, 0, len(w.noalloc))
	for name := range w.noalloc { //tracep:orderinvariant caller sorts
		out = append(out, name)
	}
	return out
}

// Analyzers returns the full tracepvet suite bound to w.
func Analyzers(w *World) []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NoAlloc(w),
		MapRange(),
		CloneComplete(),
		StatsComplete(),
		ResetComplete(),
		WireJSON(),
		Directive(),
	}
}

// ---- directive parsing ----

// directive is one parsed //tracep: comment.
type directive struct {
	pos  token.Pos
	line int
	name string // "noalloc", "allow", ...
	args string // trailing free text (reason)
}

func parseDirective(c *ast.Comment) (directive, bool) {
	if !strings.HasPrefix(c.Text, prefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(c.Text, prefix)
	name, args, _ := strings.Cut(rest, " ")
	return directive{pos: c.Pos(), name: name, args: strings.TrimSpace(args)}, true
}

func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if d, ok := parseDirective(c); ok && d.name == name {
			return true
		}
	}
	return false
}

// fileDirs indexes a file's line-scoped directives. A directive on line N
// applies to line N and line N+1, so it works both as a trailing comment on
// the flagged line and as a standalone comment immediately above it.
type fileDirs struct {
	fset     *token.FileSet
	allow    map[int]bool
	orderinv map[int]bool
}

func collectFileDirs(fset *token.FileSet, f *ast.File) *fileDirs {
	fd := &fileDirs{fset: fset, allow: map[int]bool{}, orderinv: map[int]bool{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, ok := parseDirective(c)
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			switch d.name {
			case "allow":
				fd.allow[line] = true
			case "orderinvariant":
				fd.orderinv[line] = true
			}
		}
	}
	return fd
}

func (fd *fileDirs) allowed(pos token.Pos) bool {
	line := fd.fset.Position(pos).Line
	return fd.allow[line] || fd.allow[line-1]
}

func (fd *fileDirs) orderInvariant(pos token.Pos) bool {
	line := fd.fset.Position(pos).Line
	return fd.orderinv[line] || fd.orderinv[line-1]
}

// Directive returns the analyzer that validates //tracep: comments
// themselves: unknown or malformed directives are errors, so a typo cannot
// silently disable a suppression or a mark.
func Directive() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "directive",
		Doc:  "check that every //tracep: comment is a known, well-formed directive",
	}
	known := map[string]bool{
		"noalloc": true, "allow": true, "orderinvariant": true,
		"noclone": true, "nostats": true, "keep": true,
	}
	a.Run = func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d, ok := parseDirective(c)
					if !ok {
						continue
					}
					if !known[d.name] {
						pass.Reportf(c.Pos(), "unknown directive %q (known: allow, keep, noalloc, noclone, nostats, orderinvariant)", prefix+d.name)
						continue
					}
					if d.name == "allow" && d.args == "" {
						pass.Reportf(c.Pos(), "%sallow requires a reason", prefix)
					}
				}
			}
		}
		return nil
	}
	return a
}

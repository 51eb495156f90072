// Package analysis is the project's static-analysis suite: three
// analyzers that mechanically enforce the invariants the system's
// correctness and performance claims rest on — the claim→log→apply
// ordering of the persist path, the zero-measured-cost telemetry budget
// of the hot query path, and typed wire refusals in the daemon.
//
// The framework mirrors golang.org/x/tools/go/analysis in miniature —
// an Analyzer runs over one type-checked package and reports position
// diagnostics — but is built on the standard library alone: packages
// are enumerated with `go list -export -deps -json` and type-checked
// from source with go/types, importing dependencies from the compiler's
// export data (see load.go). That keeps the linter runnable with
// nothing but the Go toolchain: `go run ./cmd/sfclint ./...`.
//
// Invariant escape hatches are source annotations, one comment
// directive per rule, each requiring a reason:
//
//	//sfc:hotpath                      (on a func: opt into hotpathclock)
//	//sfc:allowclock <reason>          (suppress a hotpathclock finding)
//	//sfc:walok <reason>               (suppress a walorder finding)
//	//sfc:rawerr <reason>              (suppress a wireerrs finding)
//
// DESIGN.md's "Invariant catalog" section lists each enforced invariant
// with its analyzer and escape hatch.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects a single type-checked
// package through its Pass and reports findings via Pass.Report.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CI output.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags      *[]Diagnostic
	directives map[string][]Directive // file name -> directives, line-sorted
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Directive is one parsed //sfc:<name> <args> source annotation.
type Directive struct {
	Name string // "hotpath", "nocap", ...
	Args string // everything after the name, trimmed
	Line int    // line the comment sits on
}

// DirectivePrefix introduces an annotation comment.
const DirectivePrefix = "//sfc:"

// parseDirectives indexes every //sfc: comment in the pass's files by
// file name. Called lazily; the index is retained for the pass.
func (p *Pass) parseDirectives() {
	if p.directives != nil {
		return
	}
	p.directives = make(map[string][]Directive)
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		var ds []Directive
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if d, ok := ParseDirective(c.Text); ok {
					d.Line = p.Fset.Position(c.Pos()).Line
					ds = append(ds, d)
				}
			}
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a].Line < ds[b].Line })
		p.directives[name] = ds
	}
}

// ParseDirective parses one comment line as an //sfc: annotation.
func ParseDirective(text string) (Directive, bool) {
	if !strings.HasPrefix(text, DirectivePrefix) {
		return Directive{}, false
	}
	rest := strings.TrimPrefix(text, DirectivePrefix)
	name, args, _ := strings.Cut(rest, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return Directive{}, false
	}
	return Directive{Name: name, Args: strings.TrimSpace(args)}, true
}

// DocDirective finds a named directive in a declaration's doc comment
// groups (any of which may be nil).
func DocDirective(name string, docs ...*ast.CommentGroup) (Directive, bool) {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if d, ok := ParseDirective(c.Text); ok && d.Name == name {
				return d, true
			}
		}
	}
	return Directive{}, false
}

// Suppressed reports whether pos is covered by a named suppression
// directive with a non-empty reason: the directive must sit on the same
// line as pos or on the line directly above it. Reasons are mandatory —
// a bare directive suppresses nothing, so every escape hatch in the
// tree documents why it is sound.
func (p *Pass) Suppressed(pos token.Pos, name string) bool {
	p.parseDirectives()
	position := p.Fset.Position(pos)
	for _, d := range p.directives[position.Filename] {
		if d.Name != name || d.Args == "" {
			continue
		}
		if d.Line == position.Line || d.Line == position.Line-1 {
			return true
		}
	}
	return false
}

// namedOrPointee unwraps one level of pointer and reports the named
// type underneath, if any.
func namedOrPointee(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isPkgType reports whether t (possibly behind a pointer) is the named
// type pkgSuffix.name, matching the declaring package by path suffix.
func isPkgType(t types.Type, pkgSuffix, name string) bool {
	n := namedOrPointee(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && strings.HasSuffix(n.Obj().Pkg().Path(), pkgSuffix)
}

// calleeFunc resolves a call expression to the declared func or method
// object it invokes, nil for indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

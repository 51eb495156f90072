package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CapForward catches the silent-capability-loss bug class that has
// bitten every provider wrapper so far: a type that wraps a
// core.Provider (a struct implementing Provider with a field that is
// itself a Provider, or one annotated //sfc:wrapper) must either
// forward every optional capability interface or declare why not with
// //sfc:nocap <Iface> <reason> on the type's doc comment. Without the
// forward, a wrapped engine silently degrades: batch queries fall back
// to loops, rebalancing goes dark, snapshots stop reaching the inner
// store.
var CapForward = &Analyzer{
	Name: "capforward",
	Doc:  "provider wrappers must forward every optional capability interface or carry //sfc:nocap <Iface> <reason>",
	Run:  runCapForward,
}

// capabilities is the optional capability surface of internal/core, in
// report order.
var capabilities = []string{
	"BatchQuerier",
	"BatchWriter",
	"Rebalancer",
	"Persister",
	"Enumerator",
	"BulkInserter",
}

func runCapForward(pass *Pass) error {
	core := ImportWithSuffix(pass.Pkg, "internal/core")
	if core == nil {
		return nil // package is nowhere near the provider surface
	}
	provider := lookupInterface(core, "Provider")
	if provider == nil {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				checkWrapper(pass, core, provider, gd, ts)
			}
		}
	}
	return nil
}

func checkWrapper(pass *Pass, core *types.Package, provider *types.Interface, gd *ast.GenDecl, ts *ast.TypeSpec) {
	obj, ok := pass.Info.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	ptr := types.NewPointer(named)
	if !types.Implements(ptr, provider) {
		return // not itself a provider, so nothing downstream is lost
	}
	_, optIn := DocDirective("wrapper", ts.Doc, gd.Doc)
	if !optIn && !holdsProviderField(st, provider) {
		return
	}

	nocaps := make(map[string]bool)
	for _, d := range DocDirectives("nocap", ts.Doc, gd.Doc) {
		iface, reason, _ := strings.Cut(d.Args, " ")
		if iface != "" && strings.TrimSpace(reason) != "" {
			nocaps[iface] = true
		}
	}
	for _, capName := range capabilities {
		iface := lookupInterface(core, capName)
		if iface == nil {
			continue
		}
		if types.Implements(ptr, iface) || nocaps[capName] {
			continue
		}
		pass.Reportf(ts.Name.Pos(), "%s wraps a core.Provider but does not forward %s; implement it or annotate //sfc:nocap %s <reason>", ts.Name.Name, capName, capName)
	}
}

// holdsProviderField reports whether any struct field is itself a
// Provider — the structural signature of a wrapper.
func holdsProviderField(st *types.Struct, provider *types.Interface) bool {
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if types.Implements(ft, provider) {
			return true
		}
		if _, ok := ft.Underlying().(*types.Interface); !ok {
			if types.Implements(types.NewPointer(ft), provider) {
				return true
			}
		}
	}
	return false
}

// lookupInterface resolves a named interface from a package scope.
func lookupInterface(pkg *types.Package, name string) *types.Interface {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

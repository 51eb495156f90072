package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WALOrder enforces the claim→log→apply rule that makes crash recovery
// sound: in any package that owns WAL append primitives (appendAdd /
// appendRemove / appendBatch methods), a function that mutates a wrapped
// core provider must also append to the WAL, and no mutation may precede
// the first WAL append on the straight-line path — memory must never run
// ahead of disk, or a concurrent reader could see a write the log then
// refuses. (The claim precedes the log and is not a mutation: a durable
// wrapper asks its provider whether it holds the id, inside the write
// section that then logs and applies the write, and for a link nobody
// wraps the store's remove primitive checks its mirror in the critical
// section that logs. So the rule checks "log, then apply".) There is no
// rollback arm: an insert undone after a failed append was visible in
// between. Suppress with //sfc:walok <reason> on the call line or the
// function's doc comment (e.g. recovery, which Restores a provider from
// records already on disk).
var WALOrder = &Analyzer{
	Name: "walorder",
	Doc:  "provider state mutation must not precede the corresponding WAL append (claim→log→apply)",
	Run:  runWALOrder,
}

// walPrimitives are the method names that constitute a WAL append; a
// package is subject to walorder only if it declares at least one.
var walPrimitives = map[string]bool{
	"appendAdd":    true,
	"appendRemove": true,
	"appendBatch":  true,
}

func runWALOrder(pass *Pass) error {
	logFuncs := collectLogFuncs(pass)
	if logFuncs == nil {
		return nil // package declares no WAL primitives; rule not in force
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := DocDirective("walok", fd.Doc); ok {
				continue
			}
			checkWALOrder(pass, fd, logFuncs)
		}
	}
	return nil
}

// collectLogFuncs finds every function in the package that reaches a
// WAL append primitive, transitively, by fixpoint over direct calls.
// Returns nil if the package declares no primitive at all.
func collectLogFuncs(pass *Pass) map[*types.Func]bool {
	logFuncs := make(map[*types.Func]bool)
	type fnBody struct {
		fn   *types.Func
		body *ast.BlockStmt
	}
	var fns []fnBody
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			// Primitives qualify only as methods: a free helper that
			// happens to share the name (e.g. a record encoder) is not
			// an append to this store's log.
			if walPrimitives[fn.Name()] && fd.Recv != nil {
				logFuncs[fn] = true
			}
			fns = append(fns, fnBody{fn, fd.Body})
		}
	}
	if len(logFuncs) == 0 {
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, f := range fns {
			if logFuncs[f.fn] {
				continue
			}
			ast.Inspect(f.body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := calleeFunc(pass.Info, call); callee != nil && logFuncs[callee] {
					logFuncs[f.fn] = true
					changed = true
					return false
				}
				return true
			})
		}
	}
	return logFuncs
}

// checkWALOrder verifies one function: every provider mutation needs a
// WAL append somewhere in the function, and must come after the first.
func checkWALOrder(pass *Pass, fd *ast.FuncDecl, logFuncs map[*types.Func]bool) {
	fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
	if fn != nil && walPrimitives[fn.Name()] {
		return // the primitives themselves sit below the rule
	}

	// First pass: the position of the first WAL append on the
	// straight-line spelling of the function.
	firstLog := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if firstLog.IsValid() {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := calleeFunc(pass.Info, call); callee != nil && (logFuncs[callee] || walPrimitives[callee.Name()]) {
				firstLog = call.Pos()
				return false
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass.Info, call)
		if callee == nil || !isProviderMutation(pass, call, callee) || pass.Suppressed(call.Pos(), "walok") {
			return true
		}
		if !firstLog.IsValid() {
			pass.Reportf(call.Pos(), "%s mutates provider state but %s never appends to the WAL; log before applying or annotate //sfc:walok <reason>", callee.Name(), fd.Name.Name)
		} else if call.Pos() < firstLog {
			pass.Reportf(call.Pos(), "%s precedes the first WAL append in %s; claim, log, then apply (or annotate //sfc:walok <reason>)", callee.Name(), fd.Name.Name)
		}
		return true
	})
}

// isProviderMutation reports whether the call mutates provider state:
// a mutation-named method invoked on a value typed core.Provider.
func isProviderMutation(pass *Pass, call *ast.CallExpr, callee *types.Func) bool {
	switch callee.Name() {
	case "Add", "Insert", "AddBatch", "InsertBatch", "Restore", "Remove", "RemoveBatch":
	default:
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv := pass.Info.TypeOf(sel.X)
	return recv != nil && isPkgType(recv, "internal/core", "Provider")
}

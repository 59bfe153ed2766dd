package analysis

import (
	"go/ast"
	"go/types"
)

// MapIterAnalyzer guards the artifacts whose bytes are contract: golden
// JSON/CSV/SVG files, NDJSON run histories, manifest hashes, Prometheus
// text. Go's map iteration order is deliberately randomized, so a
// `range` over a map whose body writes into an encoder, string
// builder, writer, or an escaping slice produces different bytes every
// run — exactly the class of bug that silently breaks golden tests and
// -verify-manifest.
//
// Flagged: a range statement whose X is map-typed and whose body
//   - calls a method on a *strings.Builder, *bytes.Buffer,
//     *bufio.Writer, *json.Encoder, or *csv.Writer (or passes one as
//     an argument),
//   - calls fmt.Fprint/Fprintf/Fprintln or io.WriteString, or any
//     method named Write/WriteString/WriteByte/WriteRune, or
//   - appends to a slice declared outside the loop, unless that slice
//     later flows through a sort call in the same function (the
//     collect-keys-then-sort idiom is the sanctioned fix).
//
// The remedy is always the same: collect the keys, sort them, range
// over the sorted slice.
var MapIterAnalyzer = &Analyzer{
	Name: "mapiter",
	Doc:  "forbid map iteration that writes to encoders, builders, writers, or escaping slices unsorted",
	Run:  runMapIter,
}

// sinkTypes are the named types whose methods (or presence as an
// argument) mark a loop body as producing ordered output.
var sinkTypes = map[[2]string]bool{
	{"strings", "Builder"}:       true,
	{"bytes", "Buffer"}:          true,
	{"bufio", "Writer"}:          true,
	{"encoding/json", "Encoder"}: true,
	{"encoding/csv", "Writer"}:   true,
}

// writerMethodNames mark io.Writer-shaped calls regardless of the
// receiver's concrete type.
var writerMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

func runMapIter(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		// Walk function by function so escaping appends can consult
		// the statements that follow the loop.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkMapRanges(pass, body)
			}
			return true
		})
	}
}

// checkMapRanges inspects one function body (not descending into
// nested function literals, which get their own visit).
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapBody(pass, body, rng)
		return true
	})
}

// checkMapBody reports ordered-output writes inside one map-range body.
func checkMapBody(pass *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	info := pass.Pkg.Info
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sink, what := callWritesOutput(info, n); sink {
				pass.Reportf(n.Pos(), "map iteration writes to %s; iteration order is randomized — collect and sort the keys first", what)
			}
			// append to a slice declared outside the range statement
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && isBuiltin(info, id, "append") && len(n.Args) > 0 {
				if target, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
					obj := info.Uses[target]
					if obj != nil && obj.Pos() < rng.Pos() && !sortedAfter(info, fnBody, rng, obj) {
						pass.Reportf(n.Pos(), "map iteration appends to %q, which escapes the loop unsorted; sort it before use (or sort the keys first)", target.Name)
					}
				}
			}
		}
		return true
	})
}

// callWritesOutput reports whether the call writes bytes to an ordered
// sink, and names the sink for the message.
func callWritesOutput(info *types.Info, call *ast.CallExpr) (bool, string) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			sig := fn.Type().(*types.Signature)
			if sig.Recv() == nil {
				// Package-level writers: fmt.Fprint*, io.WriteString.
				pkg, name := fn.Pkg().Path(), fn.Name()
				if pkg == "fmt" && (name == "Fprint" || name == "Fprintf" || name == "Fprintln") {
					return true, "a writer via fmt." + name
				}
				if pkg == "io" && name == "WriteString" {
					return true, "a writer via io.WriteString"
				}
			} else {
				recv := sig.Recv().Type()
				if p, tn, ok := namedType(recv); ok && sinkTypes[[2]string{p, tn}] {
					return true, "a " + p + "." + tn
				}
				if writerMethodNames[fn.Name()] {
					return true, "a writer (" + fn.Name() + ")"
				}
				if fn.Name() == "Encode" {
					if p, tn, ok := namedType(recv); ok && p == "encoding/json" && tn == "Encoder" {
						return true, "a json.Encoder"
					}
				}
			}
		}
	}
	// A sink passed as an argument (the helper-function pattern).
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok {
			if p, tn, ok := namedType(tv.Type); ok && sinkTypes[[2]string{p, tn}] {
				return true, "a " + p + "." + tn + " passed to a helper"
			}
		}
	}
	return false, ""
}

// sortedAfter reports whether obj (a slice variable appended to inside
// the range loop) is passed to a sort call somewhere after the loop in
// the same function body — the collect-then-sort idiom.
func sortedAfter(info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !isSortCall(info, call) {
			return true
		}
		for _, arg := range call.Args {
			uses := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
					uses = true
				}
				return !uses
			})
			if uses {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall recognizes the stdlib sorting entry points.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := funcFor(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			return true
		}
	case "slices":
		switch fn.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}

// isBuiltin reports whether id denotes the named builtin function.
func isBuiltin(info *types.Info, id *ast.Ident, name string) bool {
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

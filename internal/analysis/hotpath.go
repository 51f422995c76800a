package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Hotpath polices the per-packet execution path: code reachable from the
// packet-processing roots must not call the wall clock, allocate maps, or
// format strings — each is an order-of-magnitude cost on a path the
// benchmarks measure in nanoseconds, and each has crept in before via an
// innocent-looking helper.
//
// Roots are the sim.Switch methods Process, ProcessSeq (the entry point of
// every runtime-driven packet) and runPassContained, any RunFast method,
// plus any function whose doc comment carries an `//hp4:hotpath` line
// (which is how fixtures and future fast paths opt in). The walk is transitive over
// same-package calls. fmt.Errorf is exempt: error construction happens on
// the fault path, after the fast path has already been abandoned.
// Deliberate exceptions (the latency histogram's own clock reads: one pair
// per unit of work, a Process call being a one-packet unit) carry
// `//hp4:allow hotpath` suppressions.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "flag wall-clock reads, map allocation and fmt calls reachable from packet-processing roots",
	Run:  runHotpath,
}

// hotpathDirective marks additional roots.
const hotpathDirective = "//hp4:hotpath"

func runHotpath(pass *Pass) error {
	// Index every function's body and same-package callees.
	type fn struct {
		decl *ast.FuncDecl
		name string
	}
	decls := map[*types.Func]fn{}
	var roots []*types.Func
	rootName := map[*types.Func]string{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				if t := recvTypeName(pass, fd); t != "" {
					name = t + "." + fd.Name.Name
				}
			}
			decls[obj] = fn{fd, name}
			if isHotpathRoot(pass, fd) {
				roots = append(roots, obj)
				rootName[obj] = name
			}
		}
	}

	// Breadth-first closure from the roots, remembering which root made
	// each function hot (first reach wins — enough for the message).
	via := map[*types.Func]string{}
	queue := []*types.Func{}
	for _, r := range roots {
		via[r] = rootName[r]
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		d, ok := decls[f]
		if !ok {
			continue
		}
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := samePackageCallee(pass, call); callee != nil {
				if _, seen := via[callee]; !seen {
					via[callee] = via[f]
					queue = append(queue, callee)
				}
			}
			return true
		})
	}

	// Flag the violations inside every hot function.
	for f, root := range via {
		d, ok := decls[f]
		if !ok {
			continue
		}
		checkHotBody(pass, d.decl, d.name, root)
	}
	return nil
}

// isHotpathRoot recognizes the packet-processing entry points.
func isHotpathRoot(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if strings.HasPrefix(c.Text, hotpathDirective) {
				return true
			}
		}
	}
	if fd.Recv == nil {
		return false
	}
	// Any RunFast method is a sim.FastHandler implementation: it runs once
	// per packet under the switch's read lock, so it is a root whether or
	// not its author remembered the //hp4:hotpath directive.
	if fd.Name.Name == "RunFast" {
		return true
	}
	if recvTypeName(pass, fd) != "Switch" {
		return false
	}
	switch fd.Name.Name {
	case "Process", "ProcessSeq", "runPassContained":
		return true
	}
	return false
}

// checkHotBody reports the forbidden constructs in one hot function.
func checkHotBody(pass *Pass, fd *ast.FuncDecl, name, root string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if pkg, fun := stdlibCallee(pass, e); pkg != "" {
				switch {
				case pkg == "time" && (fun == "Now" || fun == "Since"):
					pass.Reportf(e.Pos(), "time.%s in %s, reachable from hot path root %s", fun, name, root)
				case pkg == "fmt" && fun != "Errorf":
					pass.Reportf(e.Pos(), "fmt.%s in %s, reachable from hot path root %s", fun, name, root)
				}
			}
			if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
				if t := pass.TypesInfo.Types[e.Args[0]].Type; t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						pass.Reportf(e.Pos(), "map allocation in %s, reachable from hot path root %s", name, root)
					}
				}
			}
		case *ast.CompositeLit:
			if t := pass.TypesInfo.Types[e].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(e.Pos(), "map literal in %s, reachable from hot path root %s", name, root)
				}
			}
		}
		return true
	})
}

// stdlibCallee resolves pkg.Fun() calls on an imported package, returning
// the package path and function name.
func stdlibCallee(pass *Pass, call *ast.CallExpr) (pkgPath, fun string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Lockorder enforces the repository's leaf-mutex doctrines. Each concurrent
// subsystem with a breaker/broadcast leaf mutex documents a hierarchy, and
// this analyzer checks the same shape in all of them: while the leaf is
// held, code must not call back up into the subsystem it sits under.
//
// Doctrines (each is vacuous in packages that lack its type names, so one
// analyzer covers dpmu, runtime and ctl without package-specific wiring):
//
//   - dpmu (internal/core/dpmu/health.go): healthTracker.mu guards every
//     vdev's breaker.Breaker (internal/breaker, which has no lock of its
//     own) together with the PID map and the probe budgets. While it is
//     held: no sim.Switch method calls (a table write needs the switch write
//     lock, and a faulting packet holds the switch read lock while blocking
//     on health.mu — the PR-4 bypass-rewire deadlock) except the lock-free
//     quarantine accessors, no DPMU mutex acquisition, no re-entry.
//
//   - runtime (internal/runtime/health.go): ioHealth.mu guards every port's
//     breaker.Breaker together with the reattach schedule and the ring
//     watchdog's cursors. While it is held: no Runtime method calls
//     (enforcement needs rt.mu and joins RX/TX goroutines that may
//     themselves be blocked in noteError — the same ABBA shape at the I/O
//     layer), no Transport.Close (blocks on socket teardown), no Runtime
//     mutex acquisition, no re-entry.
//
//   - ctl (internal/core/ctl): while the event hub's mu is held, no Journal
//     method calls (appendBatch/snapshot fsync to disk; a slow disk must
//     never stall every event long-poller), no Ctl.wmu acquisition (writes
//     publish events, so wmu sits above hub.mu), no re-entry.
//
// The check is transitive over same-package calls: a helper that performs a
// forbidden operation poisons every caller that invokes it under the leaf.
// Types are matched by name (healthTracker, Switch, DPMU, ioHealth,
// Runtime, Transport, hub, Journal, Ctl) so the regression fixtures can
// reproduce each shape outside the real packages.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc:  "flag subsystem calls and lock acquisitions while a leaf mutex (dpmu health, runtime port health, ctl event hub) is held",
	Run:  runLockorder,
}

// muRef names one mutex: a field on a named type.
type muRef struct {
	typeName string // named type owning the mutex field
	field    string // the mutex field's name
	label    string // display name in diagnostics, e.g. "health.mu"
}

// recvRule forbids method calls on one named receiver type while the leaf
// is held. With only set, just those methods are forbidden; otherwise every
// method is, minus the allow set.
type recvRule struct {
	typeName string
	label    string // display prefix, e.g. "sim.Switch"
	allow    map[string]bool
	only     map[string]bool
}

func (r recvRule) forbids(method string) bool {
	if r.only != nil {
		return r.only[method]
	}
	return !r.allow[method]
}

// lockDoctrine is one leaf-mutex hierarchy.
type lockDoctrine struct {
	leaf  muRef
	upper []muRef // mutexes that must not be acquired under the leaf
	recvs []recvRule
}

var lockDoctrines = []lockDoctrine{
	{
		leaf:  muRef{"healthTracker", "mu", "health.mu"},
		upper: []muRef{{"DPMU", "mu", "DPMU mutex"}},
		recvs: []recvRule{{
			typeName: "Switch",
			label:    "sim.Switch",
			// Lock-free atomics on the quarantine table, designed to be
			// called under health.mu.
			allow: map[string]bool{"QuarantineRemaining": true, "SetQuarantine": true},
		}},
	},
	{
		leaf:  muRef{"ioHealth", "mu", "ioHealth.mu"},
		upper: []muRef{{"Runtime", "mu", "Runtime mutex"}},
		recvs: []recvRule{
			{typeName: "Runtime", label: "Runtime"},
			{typeName: "Transport", label: "Transport", only: map[string]bool{"Close": true}},
		},
	},
	{
		leaf:  muRef{"hub", "mu", "hub.mu"},
		upper: []muRef{{"Ctl", "wmu", "Ctl.wmu"}},
		recvs: []recvRule{{typeName: "Journal", label: "Journal"}},
	},
}

// lockOp is one forbidden operation, with the position it occurs at and a
// human description.
type lockOp struct {
	pos  ast.Node
	desc string
}

// funcFacts is the per-function summary pass 1 computes for one doctrine.
type funcFacts struct {
	decl *ast.FuncDecl
	name string
	// ops anywhere in the body, regardless of local lock state — what a
	// caller executes if it invokes this function under the leaf.
	ops []lockOp
	// same-package callees anywhere in the body.
	calls []*types.Func
	// ops performed while this function itself holds the leaf.
	heldOps []lockOp
	// same-package calls made while the leaf is held.
	heldCalls []heldCall
}

type heldCall struct {
	pos    ast.Node
	callee *types.Func
}

func runLockorder(pass *Pass) error {
	for _, doc := range lockDoctrines {
		runLockDoctrine(pass, doc)
	}
	return nil
}

func runLockDoctrine(pass *Pass, doc lockDoctrine) {
	facts := map[*types.Func]*funcFacts{}
	var order []*types.Func
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
			facts[obj] = collectLockFacts(pass, fd, doc)
			order = append(order, obj)
		}
	}

	// Fixpoint: poisoned(f) holds a representative forbidden op reachable
	// from f (its own or via same-package calls), or nil.
	poisoned := map[*types.Func]*lockOp{}
	chain := map[*types.Func]string{}
	for changed := true; changed; {
		changed = false
		for _, f := range order {
			if poisoned[f] != nil {
				continue
			}
			ff := facts[f]
			if len(ff.ops) > 0 {
				poisoned[f] = &ff.ops[0]
				chain[f] = ff.name
				changed = true
				continue
			}
			for _, callee := range ff.calls {
				if op := poisoned[callee]; op != nil {
					poisoned[f] = op
					chain[f] = ff.name + " -> " + chain[callee]
					changed = true
					break
				}
			}
		}
	}

	for _, f := range order {
		ff := facts[f]
		for _, op := range ff.heldOps {
			pass.Reportf(op.pos.Pos(), "%s while %s is held (in %s)", op.desc, doc.leaf.label, ff.name)
		}
		for _, hc := range ff.heldCalls {
			if op := poisoned[hc.callee]; op != nil {
				pass.Reportf(hc.pos.Pos(), "call under %s reaches %s (via %s)", doc.leaf.label, op.desc, chain[hc.callee])
			}
		}
	}
}

// collectLockFacts walks one function body in source order, tracking
// whether the doctrine's leaf mutex is held. The linear approximation is
// deliberate: the doctrines' critical sections are straight-line
// lock...unlock spans (or defer-unlocked whole functions), and a
// conditional lock would itself be a doctrine violation worth noticing by
// other means.
func collectLockFacts(pass *Pass, fd *ast.FuncDecl, doc lockDoctrine) *funcFacts {
	ff := &funcFacts{decl: fd, name: fd.Name.Name}
	if fd.Recv != nil {
		if t := recvTypeName(pass, fd); t != "" {
			ff.name = t + "." + fd.Name.Name
		}
	}

	// Unlock calls syntactically under a defer keep the lock held until
	// function exit, so they must not clear the walker's held state.
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})

	held := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isMuCall(pass, call, doc.leaf, "Lock"):
			if held {
				ff.heldOps = append(ff.heldOps, lockOp{call, doc.leaf.label + " re-entry"})
			}
			if !deferred[call] {
				held = true
			}
			// A leaf lock anywhere poisons callers already holding it.
			ff.ops = append(ff.ops, lockOp{call, doc.leaf.label + " acquisition"})
		case isMuCall(pass, call, doc.leaf, "Unlock"):
			if !deferred[call] {
				held = false
			}
		case isUpperMuCall(pass, call, doc.upper) != nil:
			ref := isUpperMuCall(pass, call, doc.upper)
			op := lockOp{call, ref.label + " acquisition"}
			ff.ops = append(ff.ops, op)
			if held {
				ff.heldOps = append(ff.heldOps, op)
			}
		default:
			if rule, m := forbiddenRecvMethod(pass, call, doc.recvs); rule != nil {
				op := lockOp{call, fmt.Sprintf("%s.%s call", rule.label, m)}
				ff.ops = append(ff.ops, op)
				if held {
					ff.heldOps = append(ff.heldOps, op)
				}
			} else if callee := samePackageCallee(pass, call); callee != nil {
				ff.calls = append(ff.calls, callee)
				if held {
					ff.heldCalls = append(ff.heldCalls, heldCall{call, callee})
				}
			}
		}
		return true
	})
	return ff
}

// isMuCall reports whether call is `<expr>.<field>.<method>()` where
// <expr>'s type is a named type with the reference's name.
func isMuCall(pass *Pass, call *ast.CallExpr, ref muRef, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	mu, ok := sel.X.(*ast.SelectorExpr)
	if !ok || mu.Sel.Name != ref.field {
		return false
	}
	return namedTypeName(pass.TypesInfo.Types[mu.X].Type) == ref.typeName
}

// isUpperMuCall matches Lock/RLock on any of the doctrine's upper mutexes.
func isUpperMuCall(pass *Pass, call *ast.CallExpr, upper []muRef) *muRef {
	for i := range upper {
		if isMuCall(pass, call, upper[i], "Lock") || isMuCall(pass, call, upper[i], "RLock") {
			return &upper[i]
		}
	}
	return nil
}

// forbiddenRecvMethod returns the matching rule and method name when call
// is a forbidden method call on one of the doctrine's receiver types.
func forbiddenRecvMethod(pass *Pass, call *ast.CallExpr, recvs []recvRule) (*recvRule, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil, ""
	}
	recv := namedTypeName(s.Recv())
	for i := range recvs {
		if recvs[i].typeName == recv && recvs[i].forbids(sel.Sel.Name) {
			return &recvs[i], sel.Sel.Name
		}
	}
	return nil, ""
}

// samePackageCallee resolves a direct call to a function or method defined
// in the package under analysis.
func samePackageCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	}
	f, ok := obj.(*types.Func)
	if !ok || f.Pkg() != pass.Pkg {
		return nil
	}
	return f
}

// namedTypeName returns the name of the (possibly pointered) named type,
// or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// recvTypeName names a method's receiver type for diagnostics.
func recvTypeName(pass *Pass, fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	return namedTypeName(pass.TypesInfo.Types[fd.Recv.List[0].Type].Type)
}

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is codalint's one held-lock walker. It walks every
// function body once, tracking which lock domains are held at each
// statement, and records what the two lock reporters need:
//
//   - lock-order graph edges: domain A held while B is acquired,
//     directly or through any chain of static calls (the engine's
//     lockset summaries carry the callee side);
//   - same-domain nesting and ascending-ID findings, raised at the
//     acquire or the loop that violates them;
//   - blocking sites reached with locks held: channel send and
//     receive, a select with no default, range over a channel, calls
//     the engine marks as blocking, and the cross-primitive wait roots.
//
// lockhold reports held-across-blocking from the sites; lockorder
// reports cycles, nesting and cross-primitive waits from the rest. A
// Lock/Unlock call is recognized in one place, lockOpDomain.
//
// Branch analysis distinguishes must-hold from may-hold: a lock
// released (or acquired) on only some paths is weakly held after the
// branch. Weak holds still produce ordering edges, but never the
// same-domain or cross-primitive findings, so conditional unlock
// idioms (simtime.Queue unlocking either the Sim or its own mutex
// before parking) do not produce false positives. lockhold keeps its
// own reading of a weak hold: one acquired only inside a branch does
// not count, one released only inside a branch (`if … { mu.Unlock();
// return }`) still does, since the fall-through really holds it.

// heldLock is one held domain during the walk.
type heldLock struct {
	pos  token.Pos
	weak bool // held on only some paths: orders, but is not a must-hold
	cond bool // acquired only inside a branch or loop body (implies weak)
	// owner is the mutex expression at a direct Lock/RLock; nil when a
	// lockVolume-style helper opened the section.
	owner ast.Expr
}

// lockEdge is one lock-order graph edge with its first witness.
type lockEdge struct {
	from, to string
	pos      token.Position // acquire site of `to` while `from` is held
	via      string         // call chain reaching the acquire ("" = direct)
	weak     bool           // the held side was a may-hold
}

// blockSite is one blocking operation reached with locks held.
type blockSite struct {
	node *FuncNode
	pos  token.Pos
	what string
	// blocking: lockhold reports it (every blocking operation).
	// waits: lockorder's cross-primitive check reports it (a wait
	// for a signal: receive, select, range, Wait, sleep).
	blocking, waits bool
	held            map[string]heldLock
}

// lockWalk is the result of walking every function once.
type lockWalk struct {
	nodes   []*FuncNode          // every node, in deterministic order
	edges   map[string]*lockEdge // "from\x00to" → first witness
	nesting []Finding            // same-domain and ascending-ID findings
	sites   []blockSite
}

// heldLocks walks every function in the engine and caches the result.
func (e *Engine) heldLocks() *lockWalk {
	if e.walk != nil {
		return e.walk
	}
	w := &lockWalk{nodes: e.sortedNodes(), edges: make(map[string]*lockEdge)}
	for _, n := range w.nodes {
		sc := &heldWalk{eng: e, w: w, pkg: n.Pkg, node: n}
		sc.block(n.body().List, map[string]heldLock{})
	}
	e.walk = w
	return w
}

// heldWalk walks one function's body tracking held lock domains.
type heldWalk struct {
	eng  *Engine
	w    *lockWalk
	pkg  *Package
	node *FuncNode
}

func (sc *heldWalk) pos(p token.Pos) token.Position { return sc.pkg.Fset.Position(p) }

// addEdge records a lock-order edge, keeping the first witness.
func (sc *heldWalk) addEdge(from, to string, pos token.Pos, via string, weak bool) {
	key := from + "\x00" + to
	if _, ok := sc.w.edges[key]; ok {
		return
	}
	sc.w.edges[key] = &lockEdge{from: from, to: to, pos: sc.pos(pos), via: via, weak: weak}
}

func (sc *heldWalk) report(pos token.Pos, format string, args ...any) {
	sc.w.nesting = append(sc.w.nesting, Finding{
		Pos:      sc.pos(pos),
		Analyzer: "lockorder",
		Message:  fmt.Sprintf(format, args...),
	})
}

func (sc *heldWalk) block(stmts []ast.Stmt, held map[string]heldLock) {
	for _, stmt := range stmts {
		sc.stmt(stmt, held)
	}
}

func copyHeld(held map[string]heldLock) map[string]heldLock {
	out := make(map[string]heldLock, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// branch walks a conditionally executed body and merges its lock
// effects back as may-holds.
func (sc *heldWalk) branch(stmts []ast.Stmt, held map[string]heldLock) {
	child := copyHeld(held)
	sc.block(stmts, child)
	mergeMay(held, child)
}

// mergeMay folds a branch's held set into its parent's: domains it
// acquired become weakly (and conditionally) held, domains it released
// weaken the parent's hold.
func mergeMay(held, child map[string]heldLock) {
	for d, h := range child {
		if _, ok := held[d]; !ok {
			h.weak, h.cond = true, true
			held[d] = h
		}
	}
	for d, h := range held {
		if c, ok := child[d]; (!ok || c.weak) && !h.weak {
			h.weak = true
			held[d] = h
		}
	}
}

func (sc *heldWalk) stmt(stmt ast.Stmt, held map[string]heldLock) {
	switch x := stmt.(type) {
	case *ast.ExprStmt:
		sc.expr(x.X, held)
	case *ast.DeferStmt:
		if _, delta := lockOpDomain(sc.pkg, x.Call); delta < 0 {
			return // deferred unlock: held to the end of the function
		}
		if callee := sc.eng.resolveCallee(sc.pkg, x.Call.Fun); callee != nil {
			for _, bal := range callee.locks.net {
				if bal < 0 {
					return // deferred unlock helper (incl. unlock-all literals)
				}
			}
		}
		sc.expr(x.Call, held)
	case *ast.GoStmt:
		// The spawned goroutine runs on its own stack; only the
		// arguments are evaluated here.
		for _, arg := range x.Call.Args {
			sc.expr(arg, held)
		}
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			sc.expr(e, held)
		}
		for _, e := range x.Lhs {
			sc.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			sc.expr(e, held)
		}
	case *ast.SendStmt:
		sc.site(x.Pos(), "channel send", true, false, held)
		sc.expr(x.Chan, held)
		sc.expr(x.Value, held)
	case *ast.IncDecStmt:
		sc.expr(x.X, held)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						sc.expr(v, held)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		sc.stmt(x.Stmt, held)
	case *ast.BlockStmt:
		sc.block(x.List, held)
	case *ast.IfStmt:
		if x.Init != nil {
			sc.stmt(x.Init, held)
		}
		sc.expr(x.Cond, held)
		sc.branch(x.Body.List, held)
		if x.Else != nil {
			child := copyHeld(held)
			sc.stmt(x.Else, child)
			mergeMay(held, child)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			sc.stmt(x.Init, held)
		}
		if x.Cond != nil {
			sc.expr(x.Cond, held)
		}
		sc.loop(x.Body, nil, x.For, held)
		if x.Post != nil {
			sc.stmt(x.Post, copyHeld(held))
		}
	case *ast.RangeStmt:
		if t := sc.pkg.TypesInfo.Types[x.X].Type; t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				sc.site(x.For, "range over channel", true, true, held)
			}
		}
		sc.expr(x.X, held)
		sc.loop(x.Body, x.X, x.For, held)
	case *ast.SwitchStmt:
		if x.Init != nil {
			sc.stmt(x.Init, held)
		}
		if x.Tag != nil {
			sc.expr(x.Tag, held)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				sc.branch(cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				sc.branch(cc.Body, held)
			}
		}
	case *ast.SelectStmt:
		if !selectHasDefault(x) {
			sc.site(x.Select, "select with no default", true, true, held)
		}
		// The comm clauses are covered by the select-level site (and
		// never block when a default exists); only bodies are walked.
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				sc.branch(cc.Body, held)
			}
		}
	}
}

// loop walks a for/range body and enforces the ascending-ID rule on
// any domain the body accumulates (acquires without releasing): the
// iteration must be provably ordered, or two loops can interleave in
// opposite orders. Accumulated domains stay held (weakly: the loop may
// run zero times) for the code after the loop.
func (sc *heldWalk) loop(body *ast.BlockStmt, rangeX ast.Expr, loopPos token.Pos, held map[string]heldLock) {
	child := copyHeld(held)
	sc.block(body.List, child)
	for _, d := range sortedKeys(child) {
		h := child[d]
		if _, ok := held[d]; ok {
			continue
		}
		if !h.weak && !sc.orderedIteration(rangeX, h, loopPos) {
			sc.report(h.pos,
				"loop in %s accumulates %s locks across iterations in unproven order; sort the slice before the loop or range an ordered provider (ascending-ID rule)",
				sc.node.Name, d)
		}
	}
	mergeMay(held, child)
}

// orderedIteration reports whether the loop's lock order is provably
// ascending: it ranges over a variable sorted earlier in this
// function, over the result of an ordered provider, or the acquire
// indexes into such a sorted variable.
func (sc *heldWalk) orderedIteration(rangeX ast.Expr, h heldLock, loopPos token.Pos) bool {
	sortedBefore := func(id *ast.Ident) bool {
		obj := sc.pkg.TypesInfo.Uses[id]
		if obj == nil {
			return false
		}
		p, ok := sc.node.locks.sortedVars[obj]
		return ok && p < loopPos
	}
	for rangeX != nil {
		if pe, ok := rangeX.(*ast.ParenExpr); ok {
			rangeX = pe.X
			continue
		}
		break
	}
	switch rx := rangeX.(type) {
	case *ast.CallExpr:
		if callee := sc.eng.resolveCallee(sc.pkg, rx.Fun); callee != nil && callee.locks.ordered {
			return true
		}
	case *ast.Ident:
		if sortedBefore(rx) {
			return true
		}
	}
	// Index-loop shape: vols[i].mu.Lock() with vols sorted before.
	for e := h.owner; e != nil; {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			if id, ok := x.X.(*ast.Ident); ok && sortedBefore(id) {
				return true
			}
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			e = nil
		}
	}
	return false
}

// expr walks an expression, routing calls through call() and recording
// direct receives as blocking sites. Nested function literals run on
// their own schedule and are skipped: if one is invoked right here,
// the engine's call edge already carries its effects.
func (sc *heldWalk) expr(expr ast.Expr, held map[string]heldLock) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				sc.site(x.Pos(), "channel receive", true, true, held)
			}
		case *ast.CallExpr:
			sc.call(x, held)
		}
		return true
	})
}

// call applies one call's lock effects: direct Lock/Unlock, blocking
// sites, edges and same-domain findings from the callee's acquire set,
// and held-region open/close from the callee's lock balance.
func (sc *heldWalk) call(call *ast.CallExpr, held map[string]heldLock) {
	if d, delta := lockOpDomain(sc.pkg, call); delta != 0 {
		if delta < 0 {
			delete(held, d)
			return
		}
		owner := call.Fun.(*ast.SelectorExpr).X
		sc.acquire(d, call.Pos(), owner, held)
		return
	}
	if len(held) > 0 {
		if reason, blocks := sc.eng.BlockReason(sc.pkg, call); blocks {
			sc.site(call.Pos(), fmt.Sprintf("blocking call %s (%s)",
				exprText(sc.pkg.Fset, call.Fun), reason), true, false, held)
		}
		if k := crossPrimRoot(calleeObj(sc.pkg, call.Fun)); k != "" {
			sc.site(call.Pos(), k, false, true, held)
		}
	}
	callee := sc.eng.resolveCallee(sc.pkg, call.Fun)
	if callee == nil {
		return
	}
	for _, d := range sortedKeys(callee.Acquires) {
		via := callee.Name
		if chain := callee.Acquires[d]; chain != "" {
			via += ": " + chain
		}
		if h, ok := held[d]; ok {
			if !h.weak {
				sc.report(call.Pos(),
					"%s calls %s which acquires %s (line %d) while %s is already held: self-deadlock on the same instance, unordered multi-lock on two",
					sc.node.Name, callee.Name, d, sc.pos(h.pos).Line, d)
			}
			continue
		}
		for _, from := range sortedKeys(held) {
			if from != d {
				sc.addEdge(from, d, call.Pos(), via, held[from].weak)
			}
		}
	}
	// A positive balance means the callee handed us an open critical
	// section (lockVolume); a negative one closed ours (unlock helper).
	for d, bal := range callee.locks.net {
		if _, ok := held[d]; !ok && bal > 0 {
			held[d] = heldLock{pos: call.Pos()}
		}
		if bal < 0 {
			delete(held, d)
		}
	}
}

// acquire handles a direct Lock/RLock of domain d at pos.
func (sc *heldWalk) acquire(d string, pos token.Pos, owner ast.Expr, held map[string]heldLock) {
	if h, ok := held[d]; ok {
		if !h.weak {
			sc.report(pos,
				"%s acquires %s while already holding it (acquired line %d): self-deadlock on the same instance, unordered multi-lock on two",
				sc.node.Name, d, sc.pos(h.pos).Line)
		}
	} else {
		for _, from := range sortedKeys(held) {
			if from != d {
				sc.addEdge(from, d, pos, "", held[from].weak)
			}
		}
	}
	if h, ok := held[d]; !ok || h.weak {
		held[d] = heldLock{pos: pos, owner: owner}
	}
}

// site records a blocking operation reached with locks held.
func (sc *heldWalk) site(pos token.Pos, what string, blocking, waits bool, held map[string]heldLock) {
	if len(held) == 0 {
		return
	}
	sc.w.sites = append(sc.w.sites, blockSite{
		node: sc.node, pos: pos, what: what,
		blocking: blocking, waits: waits, held: copyHeld(held),
	})
}

// crossPrimRoot classifies fn as a wait-for-a-signal primitive for the
// cross-primitive deadlock shape. Blocking I/O (rpc2, WAL, sftp) is
// lockhold's business, not a signal wait.
func crossPrimRoot(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "sync" && name == "Wait":
		return "sync." + recvTypeName(fn) + ".Wait"
	case path == "time" && name == "Sleep":
		return "time.Sleep"
	case pathIs(path, "internal/simtime") && name == "Sleep":
		return "clock.Sleep"
	}
	return ""
}

// sortedKeys returns a map's keys in lexicographic order, for
// deterministic propagation and reporting.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is codalint's interprocedural core: a call graph over every
// loaded package plus per-function effect summaries, propagated to a
// fixpoint across package boundaries. The maporder, lockhold, and
// leakcheck analyzers are thin queries over these summaries.
//
// The graph is built from static calls only: package-level functions,
// methods on concrete named types, method values, and immediately
// invoked function literals. Calls through interface methods are not
// devirtualized; instead, a small set of well-known interface methods
// (simtime.Clock.Sleep, crashfs.File.Sync, io.Writer.Write, ...) are
// effect roots matched by package-path suffix, so the repository's own
// blocking and serialization primitives are recognized whether they are
// reached through the interface or the concrete type. A function
// literal is a node of its own: its effects reach the enclosing
// function only through a real call edge (immediate invocation), so
// registering a callback does not smear the callback's effects onto the
// registrar.

// FuncNode is one function (declared or literal) in the call graph.
type FuncNode struct {
	Obj  *types.Func   // declared functions and methods; nil for literals
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declared functions
	Pkg  *Package
	Name string // human-readable: "(*Server).Checkpoint", "New$1"

	Calls  []*FuncNode // static callees, deduplicated, in call-site order
	Spawns []SpawnSite // goroutine launch sites in this function's body

	// Blocks: the function can park its goroutine — transitively
	// reaches a channel operation or a blocking primitive (simtime
	// waits, rpc2/sftp calls, WAL fsync, time.Sleep, ...).
	Blocks   bool
	BlockVia string // first-cause chain, e.g. "(*Node).Call: channel receive"

	// Serializes: the function transitively writes to order-sensitive
	// output — an encoder, a writer, a WAL append, an obs event.
	Serializes bool
	SerialVia  string

	// Allocates: the function transitively allocates heap memory on its
	// steady-state path (see alloc.go for what counts and what is
	// exempt). Queried by allocscan from //codalint:hotpath roots.
	Allocates bool
	AllocVia  string

	// allocSites: this function's own direct allocation sites, in
	// source order; the seed for the Allocates bit.
	allocSites []allocSite
	// poolNew: the function is a sync.Pool New constructor — its
	// allocations are the pool's amortized backing store.
	poolNew bool

	// Endless: the function transitively enters a condition-less for
	// loop with no reachable exit (no return, no break that targets the
	// loop), so it can never be stopped once started.
	Endless    bool
	EndlessVia string
	EndlessPos token.Pos
	// selectBreakOnly: the endless loop's only would-be exits are break
	// statements that target an enclosing select or switch, not the
	// loop — the classic shutdown bug leakcheck exists to catch.
	selectBreakOnly bool

	// Acquires: lock domains this function may acquire, directly or
	// through any chain of static calls, mapped to the via-chain that
	// reaches the Lock ("" = locked in this very body). Domains follow
	// lockguard's naming convention and are rendered as
	// "pkg.Type.field" ("server.volume.mu") or "pkg.var" for
	// package-level mutexes. The goroutine bodies launched by `go`
	// statements are excluded: their acquires happen on another stack.
	Acquires map[string]string
	// locks holds the rest of the lockset summary (see locksets.go).
	locks lockSummary
}

// SpawnSite is one goroutine launch: a go statement or an x.Go(fn) call
// on a clock-like spawner.
type SpawnSite struct {
	Pos    token.Pos
	Target *FuncNode // nil when the spawned function cannot be resolved
	Label  string    // how the site reads: "go func literal", "clock.Go((*Venus).trickleDaemon)"
}

// Engine is the whole-program analysis state shared by the
// interprocedural analyzers.
type Engine struct {
	nodes []*FuncNode
	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	byPkg map[*Package][]*FuncNode
	walk  *lockWalk // the held-lock walk, computed on first use
}

// NewEngine builds the call graph and runs the summary fixpoint over
// pkgs. Cross-package edges resolve because the loader shares types.Func
// objects between a package and its importers.
func NewEngine(pkgs []*Package) *Engine {
	e := &Engine{
		byObj: make(map[*types.Func]*FuncNode),
		byLit: make(map[*ast.FuncLit]*FuncNode),
		byPkg: make(map[*Package][]*FuncNode),
	}
	for _, pkg := range pkgs {
		e.collect(pkg)
	}
	for _, pkg := range pkgs {
		e.markPoolConstructors(pkg)
	}
	for _, n := range e.nodes {
		e.scanDirect(n)
		e.scanAllocs(n)
		e.scanLocksets(n)
	}
	e.fixpoint()
	return e
}

// PkgNodes returns the nodes whose bodies live in pkg, in source order.
func (e *Engine) PkgNodes(pkg *Package) []*FuncNode { return e.byPkg[pkg] }

// collect registers a node for every function declaration and every
// function literal in pkg.
func (e *Engine) collect(pkg *Package) {
	add := func(n *FuncNode) {
		e.nodes = append(e.nodes, n)
		e.byPkg[pkg] = append(e.byPkg[pkg], n)
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			n := &FuncNode{Decl: fd, Pkg: pkg, Name: declName(fd)}
			if obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				n.Obj = obj
				e.byObj[obj] = n
			}
			add(n)
		}
		// Literals anywhere in the file (inside declarations, composite
		// literals, variable initializers). Each becomes its own node,
		// named after the enclosing declaration.
		ast.Inspect(file, func(node ast.Node) bool {
			lit, ok := node.(*ast.FuncLit)
			if !ok {
				return true
			}
			n := &FuncNode{Lit: lit, Pkg: pkg, Name: e.litName(pkg, file, lit)}
			e.byLit[lit] = n
			add(n)
			return true
		})
	}
}

// declName renders a FuncDecl's display name.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	star := ""
	if se, ok := recv.(*ast.StarExpr); ok {
		recv = se.X
		star = "*"
	}
	base := recv
	for {
		switch x := base.(type) {
		case *ast.IndexExpr:
			base = x.X
		case *ast.IndexListExpr:
			base = x.X
		case *ast.Ident:
			return "(" + star + x.Name + ")." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// litName names a literal after the innermost enclosing function
// declaration: "(*Venus).New$1".
func (e *Engine) litName(pkg *Package, file *ast.File, lit *ast.FuncLit) string {
	enclosing := "func"
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if ok && fd.Pos() <= lit.Pos() && lit.End() <= fd.End() {
			enclosing = declName(fd)
			break
		}
	}
	pos := pkg.Fset.Position(lit.Pos())
	return enclosing + "$" + "L" + itoa(pos.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// body returns the node's statement block.
func (n *FuncNode) body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// inspectOwn walks the node's body, skipping nested function literals
// (they are nodes of their own).
func (n *FuncNode) inspectOwn(fn func(ast.Node) bool) {
	root := ast.Node(n.body())
	ast.Inspect(root, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		return fn(node)
	})
}

// resolveCallee maps a call expression's function operand to a graph
// node, when the call is static.
func (e *Engine) resolveCallee(pkg *Package, fun ast.Expr) *FuncNode {
	switch x := fun.(type) {
	case *ast.FuncLit:
		return e.byLit[x]
	case *ast.ParenExpr:
		return e.resolveCallee(pkg, x.X)
	case *ast.Ident:
		if fn, ok := pkg.TypesInfo.Uses[x].(*types.Func); ok {
			return e.byObj[fn]
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.TypesInfo.Selections[x]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return e.byObj[fn]
			}
			return nil
		}
		// Qualified identifier: pkg.Func.
		if fn, ok := pkg.TypesInfo.Uses[x.Sel].(*types.Func); ok {
			return e.byObj[fn]
		}
	}
	return nil
}

// calleeObj reports the types.Func a call expression invokes (interface
// methods included), for effect-root matching.
func calleeObj(pkg *Package, fun ast.Expr) *types.Func {
	switch x := fun.(type) {
	case *ast.ParenExpr:
		return calleeObj(pkg, x.X)
	case *ast.Ident:
		fn, _ := pkg.TypesInfo.Uses[x].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pkg.TypesInfo.Selections[x]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pkg.TypesInfo.Uses[x.Sel].(*types.Func)
		return fn
	}
	return nil
}

// pathIs reports whether pkgPath denotes the named repository package,
// whatever module path it sits under ("repro/internal/wal",
// "internal/wal" for fixtures, "faux/internal/wal" in test modules).
func pathIs(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// recvTypeName returns the bare name of a method's receiver type, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return "" // interface receivers are matched by package+name only
	}
	return ""
}

// blockRoot classifies fn as a known blocking primitive and returns the
// reason, or "".
func blockRoot(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "time" && name == "Sleep":
		return "time.Sleep"
	case path == "sync" && name == "Wait":
		return "sync." + recvTypeName(fn) + ".Wait"
	case path == "os" && name == "Sync":
		return "os.File.Sync (fsync)"
	case pathIs(path, "internal/simtime"):
		switch name {
		case "Sleep":
			return "simtime Sleep (parks until the clock advances)"
		case "Get", "GetTimeout":
			return "simtime.Queue." + name + " (parks until an item or the deadline)"
		case "Run":
			return "simtime.Sim.Run (drives a whole simulation)"
		}
	case pathIs(path, "internal/rpc2"):
		switch name {
		case "Call", "Transfer", "AwaitTransfer", "MultiRPC":
			return "rpc2 " + name + " (network round-trip)"
		}
	case pathIs(path, "internal/sftp"):
		switch name {
		case "Send", "Await":
			return "sftp " + name + " (bulk transfer)"
		}
	case pathIs(path, "internal/wal"):
		switch name {
		case "Append", "Sync", "Reset", "Close", "Open":
			return "wal " + name + " (fsync)"
		}
	case pathIs(path, "internal/crashfs"):
		switch name {
		case "Sync", "SyncDir":
			return "crashfs " + name + " (fsync)"
		}
	}
	return ""
}

// serialRoot classifies fn as a known order-sensitive output sink and
// returns the reason, or "".
func serialRoot(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "encoding/gob" && (name == "Encode" || name == "EncodeValue"):
		return "gob." + name
	case path == "encoding/json" && name == "Encode":
		return "json.Encoder.Encode"
	case path == "encoding/binary" && name == "Write":
		return "binary.Write"
	case path == "fmt" && (name == "Fprintf" || name == "Fprint" || name == "Fprintln"):
		return "fmt." + name
	case path == "io" && name == "Write":
		return "io.Writer.Write"
	case (path == "bytes" || path == "strings" || path == "bufio") &&
		strings.HasPrefix(name, "Write") && recvTypeName(fn) != "":
		return path + "." + recvTypeName(fn) + "." + name
	case pathIs(path, "internal/wal") && name == "Append":
		return "wal Append (journal record order is durable)"
	case pathIs(path, "internal/obs") && (name == "Event" || name == "Dump"):
		return "obs " + name + " (trace/dump order is compared byte-for-byte)"
	}
	return ""
}

// spawnCall reports whether a call expression is a goroutine spawner of
// the clock.Go shape — a method named Go whose single argument is a
// func() — and returns that argument.
func spawnCall(pkg *Package, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Go" || len(call.Args) != 1 {
		return nil, false
	}
	fn := calleeObj(pkg, call.Fun)
	if fn == nil {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 {
		return nil, false
	}
	arg, ok := sig.Params().At(0).Type().Underlying().(*types.Signature)
	if !ok || arg.Params().Len() != 0 || arg.Results().Len() != 0 {
		return nil, false
	}
	return call.Args[0], true
}

// scanDirect records a node's local effects: call edges, spawn sites,
// direct blocking operations, direct sinks, and endless loops.
func (e *Engine) scanDirect(n *FuncNode) {
	pkg := n.Pkg
	n.inspectOwn(func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			if callee := e.resolveCallee(pkg, x.Fun); callee != nil {
				n.Calls = append(n.Calls, callee)
			}
			obj := calleeObj(pkg, x.Fun)
			if r := blockRoot(obj); r != "" && !n.Blocks {
				n.Blocks, n.BlockVia = true, r
			}
			if r := serialRoot(obj); r != "" && !n.Serializes {
				n.Serializes, n.SerialVia = true, r
			}
			if arg, ok := spawnCall(pkg, x); ok {
				n.Spawns = append(n.Spawns, SpawnSite{
					Pos:    x.Pos(),
					Target: e.resolveCallee(pkg, arg),
					Label:  "Go(" + targetLabel(e, pkg, arg) + ")",
				})
			}
		case *ast.GoStmt:
			n.Spawns = append(n.Spawns, SpawnSite{
				Pos:    x.Pos(),
				Target: e.resolveCallee(pkg, x.Call.Fun),
				Label:  "go " + targetLabel(e, pkg, x.Call.Fun),
			})
		case *ast.SendStmt:
			if !n.Blocks {
				n.Blocks, n.BlockVia = true, "channel send"
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !n.Blocks {
				n.Blocks, n.BlockVia = true, "channel receive"
			}
		case *ast.SelectStmt:
			if !selectHasDefault(x) && !n.Blocks {
				n.Blocks, n.BlockVia = true, "select with no default"
			}
		case *ast.RangeStmt:
			if t := pkg.TypesInfo.Types[x.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok && !n.Blocks {
					n.Blocks, n.BlockVia = true, "range over channel"
				}
			}
		case *ast.ForStmt:
			if x.Cond == nil && !n.Endless {
				exits, selectBreaks := loopExits(x)
				if !exits {
					n.Endless = true
					n.EndlessVia = "for loop with no exit"
					n.EndlessPos = x.For
					n.selectBreakOnly = selectBreaks
					if selectBreaks {
						n.EndlessVia = "for loop whose only break targets an inner select/switch, not the loop"
					}
				}
			}
		}
		return true
	})
	n.Calls = dedupeNodes(n.Calls)
}

// targetLabel renders a spawned expression for diagnostics.
func targetLabel(e *Engine, pkg *Package, fun ast.Expr) string {
	if n := e.resolveCallee(pkg, fun); n != nil {
		return n.Name
	}
	if _, ok := fun.(*ast.FuncLit); ok {
		return "func literal"
	}
	return "dynamic function"
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// loopExits reports whether a condition-less for loop has a reachable
// exit: a return, a goto, a labeled break (labels are not resolved, so
// any labeled break conservatively counts), or a bare break that
// actually targets this loop rather than an inner select/switch/for.
// selectBreaks is true when the only break statements found target an
// inner construct — the classic `for { select { case <-done: break } }`
// shutdown bug.
func loopExits(loop *ast.ForStmt) (exits, selectBreaks bool) {
	var walk func(node ast.Node, breakTargetsLoop bool)
	walk = func(node ast.Node, breakTargetsLoop bool) {
		ast.Inspect(node, func(nd ast.Node) bool {
			switch x := nd.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				exits = true
			case *ast.BranchStmt:
				switch x.Tok {
				case token.GOTO:
					exits = true
				case token.BREAK:
					switch {
					case x.Label != nil, breakTargetsLoop:
						exits = true
					default:
						selectBreaks = true
					}
				}
			case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt,
				*ast.SwitchStmt, *ast.TypeSwitchStmt:
				if nd != node {
					walk(nd, false)
					return false
				}
			}
			return true
		})
	}
	walk(loop.Body, true)
	if exits {
		selectBreaks = false
	}
	return exits, selectBreaks
}

func dedupeNodes(in []*FuncNode) []*FuncNode {
	seen := make(map[*FuncNode]bool, len(in))
	out := in[:0]
	for _, n := range in {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// fixpoint propagates Blocks, Serializes, Allocates, and Endless
// through the call graph until nothing changes. The facts are monotone bits, so
// iteration converges; passes are over a deterministically sorted node
// list so via-chains are reproducible run to run.
func (e *Engine) fixpoint() {
	nodes := e.sortedNodes()
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			for _, c := range n.Calls {
				if c.Blocks && !n.Blocks {
					n.Blocks, n.BlockVia = true, c.Name+": "+c.BlockVia
					changed = true
				}
				if c.Serializes && !n.Serializes {
					n.Serializes, n.SerialVia = true, c.Name+": "+c.SerialVia
					changed = true
				}
				if c.Allocates && !n.Allocates && !n.poolNew {
					n.Allocates, n.AllocVia = true, c.Name+": "+c.AllocVia
					changed = true
				}
				if c.Endless && !n.Endless {
					n.Endless = true
					n.EndlessVia = c.Name + ": " + c.EndlessVia
					n.EndlessPos = c.EndlessPos
					n.selectBreakOnly = c.selectBreakOnly
					changed = true
				}
			}
			if n.propagateLocksets() {
				changed = true
			}
		}
	}
}

// sortedNodes returns every node in source order (file, offset), so
// passes over the graph are reproducible run to run.
func (e *Engine) sortedNodes() []*FuncNode {
	nodes := make([]*FuncNode, len(e.nodes))
	copy(nodes, e.nodes)
	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].sortKey() < nodes[j].sortKey()
	})
	return nodes
}

func (n *FuncNode) sortKey() string {
	pos := n.Pkg.Fset.Position(n.body().Pos())
	return pos.Filename + "\x00" + pad(pos.Offset)
}

func pad(n int) string {
	s := itoa(n)
	return strings.Repeat("0", 10-len(s)) + s
}

// BlockReason reports whether calling fun blocks, resolving first
// through the call graph and then through the primitive roots.
func (e *Engine) BlockReason(pkg *Package, call *ast.CallExpr) (string, bool) {
	if n := e.resolveCallee(pkg, call.Fun); n != nil {
		if n.Blocks {
			return n.Name + ": " + n.BlockVia, true
		}
		return "", false
	}
	if r := blockRoot(calleeObj(pkg, call.Fun)); r != "" {
		return r, true
	}
	return "", false
}

// SerialReason reports whether calling fun writes order-sensitive
// output.
func (e *Engine) SerialReason(pkg *Package, call *ast.CallExpr) (string, bool) {
	if n := e.resolveCallee(pkg, call.Fun); n != nil {
		if n.Serializes {
			return n.Name + ": " + n.SerialVia, true
		}
		return "", false
	}
	if r := serialRoot(calleeObj(pkg, call.Fun)); r != "" {
		return r, true
	}
	return "", false
}

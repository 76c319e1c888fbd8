package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Lockorder is the whole-program lock-order and deadlock-cycle
// analyzer. It is a reporter over the engine's held-lock walk
// (lockwalk.go), which opens regions at direct Lock calls and at
// lockVolume-style helper calls (callees whose direct Lock/Unlock
// balance is positive) and consults the engine's lockset summaries to
// build the static lock-order graph: an edge A → B means some function
// holds a lock of domain A while acquiring one of domain B, possibly
// through a chain of static calls crossing any number of package
// boundaries.
//
// Four queries run over that graph and the walk itself:
//
//  1. every cycle in the graph is a potential deadlock, reported once
//     with a witness acquire site for each edge in the cycle;
//  2. a (transitive) acquire of a domain already held is reported at
//     the acquire site: on the same instance it self-deadlocks, on two
//     instances it is an unordered multi-lock;
//  3. a loop that accumulates same-domain locks across iterations
//     (lock without unlock in the body) must be provably ordered —
//     the collection sorted by a sort call before the loop, or ranged
//     off an ordered provider (a function that returns a slice it
//     sorted, like the server's volumesByID) — otherwise two such
//     loops can interleave in opposite orders: the ascending-ID rule;
//  4. a lock held across a direct channel receive, select, WaitGroup
//     Wait, or clock sleep is a cross-primitive deadlock shape when
//     some other function needs the same domain on its way to
//     signalling (send, close, Done, Cond.Signal): the holder parks
//     waiting for a signal the signaller can never deliver.
//
// Only must-holds take part in 2 and 4; may-holds (a lock released or
// acquired on only some paths) still produce ordering edges.
type Lockorder struct {
	eng      *Engine
	done     bool
	findings []Finding // global, filtered per package in Analyze
}

// NewLockorder returns the analyzer; the engine is bound by Run.
func NewLockorder() *Lockorder { return &Lockorder{} }

// Name implements Analyzer.
func (*Lockorder) Name() string { return "lockorder" }

// Doc implements Analyzer.
func (*Lockorder) Doc() string {
	return "whole-program lock-order graph: deadlock cycles, unordered same-domain multi-locks (ascending-ID rule), locks held across receive/Wait/sleep a signaller needs"
}

// Bind implements interprocAnalyzer.
func (l *Lockorder) Bind(e *Engine) { l.eng = e }

// Analyze implements Analyzer. The graph and findings are global,
// computed once over every package the engine was built from; each
// package reports the findings anchored in its own files.
func (l *Lockorder) Analyze(pkg *Package) []Finding {
	if l.eng == nil {
		l.Bind(NewEngine([]*Package{pkg}))
	}
	l.compute()
	mine := make(map[string]bool, len(pkg.Files))
	for _, f := range pkg.Files {
		mine[pkg.Fset.Position(f.Pos()).Filename] = true
	}
	var out []Finding
	for _, f := range l.findings {
		if mine[f.Pos.Filename] {
			out = append(out, f)
		}
	}
	return out
}

// compute derives the global findings from the engine's held-lock walk.
func (l *Lockorder) compute() {
	if l.done {
		return
	}
	l.done = true
	w := l.eng.heldLocks()
	l.findings = append(l.findings, w.nesting...)
	l.cycleFindings(w.edges)
	l.crossPrimFindings(w)
}

func (l *Lockorder) report(pos token.Position, format string, args ...any) {
	l.findings = append(l.findings, Finding{
		Pos:      pos,
		Analyzer: "lockorder",
		Message:  fmt.Sprintf(format, args...),
	})
}

// cycleFindings reports every strongly connected component of the
// lock-order graph (self-loops excluded; those surface as same-domain
// findings at their sites) as one potential deadlock.
func (l *Lockorder) cycleFindings(edges map[string]*lockEdge) {
	adj := make(map[string][]string)
	domains := map[string]bool{}
	for _, key := range sortedKeys(edges) {
		e := edges[key]
		if e.from == e.to {
			continue
		}
		adj[e.from] = append(adj[e.from], e.to)
		domains[e.from], domains[e.to] = true, true
	}
	for _, scc := range stronglyConnected(sortedKeys(domains), adj) {
		if len(scc) < 2 {
			continue
		}
		in := make(map[string]bool, len(scc))
		for _, d := range scc {
			in[d] = true
		}
		var internal []*lockEdge
		for _, key := range sortedKeys(edges) {
			e := edges[key]
			if e.from != e.to && in[e.from] && in[e.to] {
				internal = append(internal, e)
			}
		}
		anchor := internal[0].pos
		for _, e := range internal[1:] {
			if posLess(e.pos, anchor) {
				anchor = e.pos
			}
		}
		parts := make([]string, len(internal))
		for i, e := range internal {
			via := ""
			if e.via != "" {
				via = " via " + e.via
			}
			parts[i] = fmt.Sprintf("%s -> %s at %s:%d%s",
				e.from, e.to, filepath.Base(e.pos.Filename), e.pos.Line, via)
		}
		l.report(anchor, "potential deadlock: lock-order cycle between %s: %s; pick one global order and release before acquiring against it",
			strings.Join(scc, ", "), strings.Join(parts, "; "))
	}
}

// crossPrimFindings reports every blocking site whose held domain some
// other function needs on its way to signalling a waiter.
func (l *Lockorder) crossPrimFindings(w *lockWalk) {
	for _, s := range w.sites {
		if !s.waits {
			continue
		}
		for _, d := range sortedKeys(s.held) {
			if s.held[d].weak {
				continue
			}
			for _, g := range w.nodes {
				if g == s.node || !g.locks.signals {
					continue
				}
				if _, ok := g.Acquires[d]; !ok {
					continue
				}
				l.report(s.node.Pkg.Fset.Position(s.pos), "%s held across %s in %s, but %s acquires %s on its way to signalling (%s): the holder can park waiting for a signal that needs its own lock",
					d, s.what, s.node.Name, g.Name, d, g.locks.signalsVia)
				break
			}
		}
	}
}

// posLess orders token.Positions by (file, line, column).
func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// stronglyConnected returns the SCCs of the graph (Kosaraju), each
// sorted internally, in deterministic order.
func stronglyConnected(order []string, adj map[string][]string) [][]string {
	seen := make(map[string]bool)
	var finish []string
	var dfs1 func(v string)
	dfs1 = func(v string) {
		seen[v] = true
		for _, w := range adj[v] {
			if !seen[w] {
				dfs1(w)
			}
		}
		finish = append(finish, v)
	}
	for _, v := range order {
		if !seen[v] {
			dfs1(v)
		}
	}
	rev := make(map[string][]string)
	for v, ws := range adj {
		for _, w := range ws {
			rev[w] = append(rev[w], v)
		}
	}
	assigned := make(map[string]bool)
	var sccs [][]string
	var comp []string
	var dfs2 func(v string)
	dfs2 = func(v string) {
		assigned[v] = true
		comp = append(comp, v)
		for _, w := range rev[v] {
			if !assigned[w] {
				dfs2(w)
			}
		}
	}
	for i := len(finish) - 1; i >= 0; i-- {
		if v := finish[i]; !assigned[v] {
			comp = nil
			dfs2(v)
			sort.Strings(comp)
			sccs = append(sccs, comp)
		}
	}
	return sccs
}

// LockGraphDOT builds the whole-program lock-order graph over pkgs and
// renders it in Graphviz DOT form, weak (may-hold) edges dashed — the
// `codalint -lockgraph` entry point.
func LockGraphDOT(pkgs []*Package) string {
	edges := NewEngine(pkgs).heldLocks().edges
	var b strings.Builder
	b.WriteString("digraph lockorder {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, key := range sortedKeys(edges) {
		e := edges[key]
		attrs := fmt.Sprintf("label=%q", fmt.Sprintf("%s:%d", filepath.Base(e.pos.Filename), e.pos.Line))
		if e.weak {
			attrs += ", style=dashed"
		}
		fmt.Fprintf(&b, "  %q -> %q [%s];\n", e.from, e.to, attrs)
	}
	b.WriteString("}\n")
	return b.String()
}

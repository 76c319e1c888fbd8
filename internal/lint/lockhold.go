package lint

import "fmt"

// Lockhold reports mutexes held across transitively-blocking calls: a
// critical section that spans a simtime wait, an rpc2/sftp round-trip, a
// WAL fsync, or a bare channel operation serializes every other user of
// that lock behind the slowest I/O in the system — the exact shape the
// server's lock-wait histogram can only observe after the fact, caught
// here at lint time.
//
// It is a reporter over the engine's held-lock walk (lockwalk.go). A
// region opens at `x.Lock()` / `x.RLock()` on a mutex following the
// repository's naming convention (`mu`, or a `Mu` suffix) and closes at
// the matching Unlock; `defer x.Unlock()` holds the lock to the end of
// the function. Within a held region, a finding is reported for every
// channel operation and for every call that the interprocedural engine
// marks as blocking — whether the callee blocks directly or five static
// calls (and any number of package boundaries) away.
//
// Only direct Lock/RLock holds count: sections opened by helper methods
// (lockVolume) are lockorder's business. A lock acquired only inside a
// branch is not held after it, and an early `Unlock(); return` inside
// a branch does not release the lock for the code that follows the
// branch (the fall-through really does still hold it).
type Lockhold struct {
	eng *Engine
}

// NewLockhold returns the analyzer; the engine is bound by Run.
func NewLockhold() *Lockhold { return &Lockhold{} }

// Name implements Analyzer.
func (*Lockhold) Name() string { return "lockhold" }

// Doc implements Analyzer.
func (*Lockhold) Doc() string {
	return "mutexes must not be held across blocking calls (simtime waits, rpc2/sftp, WAL fsync, channel ops)"
}

// Bind implements interprocAnalyzer.
func (l *Lockhold) Bind(e *Engine) { l.eng = e }

// Analyze implements Analyzer: one finding per direct hold at each
// blocking site in pkg's functions.
func (l *Lockhold) Analyze(pkg *Package) []Finding {
	if l.eng == nil {
		l.Bind(NewEngine([]*Package{pkg}))
	}
	var out []Finding
	for _, s := range l.eng.heldLocks().sites {
		if !s.blocking || s.node.Pkg != pkg {
			continue
		}
		for _, d := range sortedKeys(s.held) {
			h := s.held[d]
			if h.owner == nil || h.cond {
				continue
			}
			out = append(out, Finding{
				Pos:      pkg.Fset.Position(s.pos),
				Analyzer: l.Name(),
				Message: fmt.Sprintf("%s (acquired line %d) held across %s in %s; release before blocking or move the I/O out of the critical section",
					exprText(pkg.Fset, h.owner), pkg.Fset.Position(h.pos).Line, s.what, s.node.Name),
			})
		}
	}
	return out
}

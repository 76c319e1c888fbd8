package main

import (
	"sync"
	"time"

	"repro/internal/crashfs"
	"repro/internal/netsim"
)

// The traced run measures two layers at their public boundary with
// pass-through wrappers: every network endpoint (netsim.PacketConn) and
// every journal filesystem (crashfs.FS). A wrapper forwards each call
// unchanged and only counts it; the benchmark's test checks that a traced
// run's simulated outcome equals an untraced one's.

// boundary accumulates the counts of one wrapped layer.
type boundary struct {
	mu    sync.Mutex
	calls int64
	bytes int64
	ns    []int64 // wall time of each timed call
}

func (b *boundary) record(n int, d time.Duration) {
	b.mu.Lock()
	b.calls++
	b.bytes += int64(n)
	b.ns = append(b.ns, int64(d))
	b.mu.Unlock()
}

// addBytes counts n bytes without a call (journal writes: the timed calls
// of the FS boundary are its syncs).
func (b *boundary) addBytes(n int) {
	b.mu.Lock()
	b.bytes += int64(n)
	b.mu.Unlock()
}

// snapshot copies the counts and resets them.
func (b *boundary) snapshot() (calls, bytes int64, ns []int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	calls, bytes, ns = b.calls, b.bytes, b.ns
	b.calls, b.bytes, b.ns = 0, 0, nil
	return calls, bytes, ns
}

// countingConn is a pass-through netsim.PacketConn counting sent packets,
// their payload bytes and the wall time each Send takes. It keeps no
// reference to a payload after Send returns, as the interface requires.
type countingConn struct {
	netsim.PacketConn
	b *boundary
}

func (c countingConn) Send(dst string, payload []byte) error {
	start := wall.Now()
	err := c.PacketConn.Send(dst, payload)
	c.b.record(len(payload), since(start))
	return err
}

// countingFS is a pass-through crashfs.FS whose files count written bytes
// and time each Sync.
type countingFS struct {
	crashfs.FS
	b *boundary
}

func (f countingFS) Create(name string) (crashfs.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return countingFile{file, f.b}, nil
}

func (f countingFS) Open(name string) (crashfs.File, error) {
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return countingFile{file, f.b}, nil
}

type countingFile struct {
	crashfs.File
	b *boundary
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.b.addBytes(n)
	return n, err
}

func (f countingFile) Sync() error {
	start := wall.Now()
	err := f.File.Sync()
	f.b.record(0, since(start))
	return err
}

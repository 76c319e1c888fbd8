package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/crashfs"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// probe measures one round of a workload. A round alternates set-up
// intervals (startSetup … begin) with timed intervals (begin … end); the
// probe sums each kind. Every round records wall time and the peak live
// heap of its timed intervals. A traced round also attaches an obs
// registry, wraps every endpoint and journal, and profiles CPU and heap
// allocation during the timed intervals only.
type probe struct {
	traced bool

	setup, wall time.Duration
	peakHeap    uint64

	mark     time.Time
	sampler  *heapSampler
	cpuProf  bytes.Buffer
	heapBase map[string]int64
	rt0      runtimeCounters

	// Traced only.
	regs []*obs.Registry
	net  boundary
	disk boundary
	acc  layerAcc
	errs []error
}

// wall is the benchmark's own clock. The probe, the wrappers and the
// closed loops time the program on the real clock.
var wall simtime.Real

// since is the wall time elapsed since t.
func since(t time.Time) time.Duration { return wall.Now().Sub(t) }

func newProbe(traced bool) *probe {
	return &probe{traced: traced, acc: newLayerAcc()}
}

// registry returns a fresh registry on clock for a traced round, nil (an
// inert registry everywhere in the program) for an untraced one.
func (p *probe) registry(clock simtime.Clock) *obs.Registry {
	if !p.traced {
		return nil
	}
	reg := obs.NewRegistry(clock)
	p.regs = append(p.regs, reg)
	return reg
}

// conn wraps an endpoint in a traced round.
func (p *probe) conn(c netsim.PacketConn) netsim.PacketConn {
	if !p.traced {
		return c
	}
	return countingConn{c, &p.net}
}

// fs wraps a journal filesystem in a traced round.
func (p *probe) fs(f crashfs.FS) crashfs.FS {
	if !p.traced {
		return f
	}
	return countingFS{f, &p.disk}
}

func (p *probe) startSetup() { p.mark = wall.Now() }

// begin closes a set-up interval and opens a timed one. It collects
// garbage first, so a timed interval does not pay for its set-up's
// garbage and the heap sampler starts from a fresh live-heap figure.
func (p *probe) begin() {
	p.setup += since(p.mark)
	runtime.GC()
	if p.traced {
		p.heapBase = p.allocByModule()
		p.cpuProf.Reset()
		if err := pprof.StartCPUProfile(&p.cpuProf); err != nil {
			p.errs = append(p.errs, fmt.Errorf("start CPU profile: %w", err))
		}
	}
	p.rt0 = readRuntimeCounters()
	p.sampler = startHeapSampler()
	p.mark = wall.Now()
}

// end closes a timed interval.
func (p *probe) end() {
	p.wall += since(p.mark)
	if peak := p.sampler.stop(); peak > p.peakHeap {
		p.peakHeap = peak
	}
	rt := readRuntimeCounters()
	p.acc.CpuS += rt.CpuS - p.rt0.CpuS
	p.acc.GcCPU += rt.GcCPU - p.rt0.GcCPU
	p.acc.UsedCPU += rt.UsedCPU - p.rt0.UsedCPU
	p.acc.AllocBytes += rt.AllocBytes - p.rt0.AllocBytes
	if !p.traced {
		return
	}
	pprof.StopCPUProfile()
	if prof, err := decodeProfile(p.cpuProf.Bytes()); err != nil {
		p.errs = append(p.errs, fmt.Errorf("CPU profile: %w", err))
	} else {
		for mod, ns := range byModule(prof, prof.valueIndex("cpu")) {
			p.acc.Cpu[mod] += ns
		}
	}
	runtime.GC()
	for mod, b := range p.allocByModule() {
		p.acc.Alloc[mod] += b - p.heapBase[mod]
	}
}

// allocByModule attributes the process's cumulative allocated bytes, as
// of the last completed GC, to modules.
func (p *probe) allocByModule() map[string]int64 {
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		p.errs = append(p.errs, fmt.Errorf("heap profile: %w", err))
		return nil
	}
	prof, err := decodeProfile(buf.Bytes())
	if err != nil {
		p.errs = append(p.errs, fmt.Errorf("heap profile: %w", err))
		return nil
	}
	return byModule(prof, prof.valueIndex("alloc_space"))
}

// collect folds a finished world's registries and boundary counts into
// the round's per-layer totals. Call it once the world has quiesced.
func (p *probe) collect() {
	if !p.traced {
		return
	}
	for _, reg := range p.regs {
		if err := p.acc.addRegistry(reg); err != nil {
			p.errs = append(p.errs, err)
		}
	}
	p.regs = nil
	p.acc.addBoundaries(&p.net, &p.disk)
}

// runtimeCounters are process-wide cumulative counters.
type runtimeCounters struct {
	CpuS       float64 // user+system CPU seconds (getrusage)
	GcCPU      float64 // GC CPU seconds (runtime estimate)
	UsedCPU    float64 // non-idle CPU seconds (runtime estimate)
	AllocBytes float64 // cumulative heap allocation
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readRuntimeCounters() runtimeCounters {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return runtimeCounters{
		CpuS:       tv(ru.Utime) + tv(ru.Stime),
		GcCPU:      s[0].Value.Float64(),
		UsedCPU:    s[1].Value.Float64() - s[2].Value.Float64(),
		AllocBytes: float64(s[3].Value.Uint64()),
	}
}

// heapSampler polls the live heap (the bytes marked reachable by the
// latest GC) and keeps the largest value seen.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

const heapSamplePeriod = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.poll()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			select {
			case <-h.stopc:
				return
			default:
			}
			wall.Sleep(heapSamplePeriod)
			h.poll()
		}
	}()
	return h
}

func (h *heapSampler) poll() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// stop ends sampling and returns the peak, including one last sample.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.wg.Wait()
	h.poll()
	return h.peak
}

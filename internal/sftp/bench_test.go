package sftp

import (
	"runtime"
	"testing"

	"repro/internal/netmon"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// The ship benchmarks pin the per-fragment framing paths at zero
// steady-state heap allocations (pooled buffers, recycled as soon as
// the send callback returns). Enforced by benchgate against
// bench_baseline.json.

func BenchmarkAllocShipData(b *testing.B) {
	e := &Engine{send: func(dst string, p []byte) error { return nil }}
	data := make([]byte, DataPacketSize)
	e.shipData("dst", 1, 0, 1, uint64(len(data)), obs.SpanContext{}, data) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.shipData("dst", 1, uint32(i), uint32(b.N), uint64(len(data)), obs.SpanContext{}, data)
	}
}

func BenchmarkAllocShipAck(b *testing.B) {
	e := &Engine{send: func(dst string, p []byte) error { return nil }}
	e.shipAck("dst", 1, 0, 0) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.shipAck("dst", 1, uint32(i), 0xff)
	}
}

// BenchmarkAllocDeliverData pins steady-state in-window delivery at zero
// allocations: once a transfer's buffer has grown, each fragment is
// copied to its offset and acked from pooled framing. The transfer is
// rewound rather than completed, so every iteration is an in-order
// fragment landing in already-grown space.
func BenchmarkAllocDeliverData(b *testing.B) {
	const frags = 16 * WindowPackets
	total := uint32(frags + 1) // never completes
	totalBytes := uint64(total) * DataPacketSize
	data := make([]byte, DataPacketSize)
	payloads := make([][]byte, frags)
	for i := range payloads {
		payloads[i] = appendData(nil, 1, uint32(i), total, totalBytes, obs.SpanContext{}, data)
	}
	clock := simtime.NewSim(simtime.Epoch1995)
	e := NewEngine(clock, netmon.NewMonitor(clock), func(string, []byte) error { return nil }, nil, "b")
	for _, p := range payloads {
		e.Deliver("a", p) // grow the buffer and warm the pool
	}
	t := e.incoming[key{"a", 1}]
	// A collection inside the timed loop would empty sync.Pool and charge
	// the pool's re-allocation to this benchmark: settle the set-up
	// garbage now, then re-warm the pool with one duplicate fragment.
	runtime.GC()
	e.Deliver("a", payloads[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := i % frags
		if seq == 0 {
			t.cum, t.ahead = 0, 0
		}
		e.Deliver("a", payloads[seq])
	}
}

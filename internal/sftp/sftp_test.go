package sftp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// node bundles an endpoint with an Engine and a pump goroutine.
type node struct {
	ep     *netsim.Endpoint
	engine *Engine
}

func newPair(s *simtime.Sim, n *netsim.Network) (a, b *node) {
	return newPairWith(s, n, nil)
}

// newPairWith is newPair with both engines recording into reg.
func newPairWith(s *simtime.Sim, n *netsim.Network, reg *obs.Registry) (a, b *node) {
	mk := func(name string) *node {
		ep := n.Host(name)
		mon := netmon.NewMonitor(s)
		eng := NewEngine(s, mon, ep.Send, reg, name)
		s.Go(func() {
			for {
				payload, src, ok := ep.Recv()
				if !ok {
					return
				}
				eng.Deliver(src, payload)
			}
		})
		return &node{ep: ep, engine: eng}
	}
	return mk("a"), mk("b")
}

func runTransfer(t *testing.T, params netsim.LinkParams, size int) time.Duration {
	t.Helper()
	s := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(s, 42)
	net.SetDefaults(params)
	var elapsed time.Duration
	s.Run(func() {
		a, b := newPair(s, net)
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i * 7)
		}
		done := simtime.NewQueue[error](s)
		start := s.Now()
		s.Go(func() { done.Put(a.engine.Send("b", 1, data, obs.SpanContext{})) })
		got, err := b.engine.Await("a", 1, time.Hour)
		if err != nil {
			t.Errorf("Await: %v", err)
		}
		if sendErr, _ := done.Get(); sendErr != nil {
			t.Errorf("Send: %v", sendErr)
		}
		elapsed = s.Now().Sub(start)
		if !bytes.Equal(got, data) {
			t.Errorf("payload corrupted: got %d bytes, want %d", len(got), len(data))
		}
	})
	return elapsed
}

func TestTransferSmall(t *testing.T) {
	runTransfer(t, netsim.Ethernet.Params(), 100)
}

func TestTransferOnePacketExactly(t *testing.T) {
	runTransfer(t, netsim.Ethernet.Params(), DataPacketSize)
}

func TestTransferZeroLength(t *testing.T) {
	runTransfer(t, netsim.Ethernet.Params(), 0)
}

func TestTransferMegabyteEthernet(t *testing.T) {
	elapsed := runTransfer(t, netsim.Ethernet.Params(), 1<<20)
	// 1 MB at 10 Mb/s is ~0.88 s on the wire; allow protocol overhead.
	if elapsed > 3*time.Second {
		t.Errorf("1MB over Ethernet took %v", elapsed)
	}
}

func TestTransferModemThroughput(t *testing.T) {
	size := 64 << 10
	elapsed := runTransfer(t, netsim.Modem.Params(), size)
	ideal := time.Duration(float64(size*8) / 9600 * float64(time.Second))
	if elapsed < ideal {
		t.Errorf("transfer faster than line rate: %v < %v", elapsed, ideal)
	}
	if elapsed > ideal*13/10 {
		t.Errorf("modem transfer %v exceeds 1.3× ideal %v", elapsed, ideal)
	}
}

func TestTransferSurvivesLoss(t *testing.T) {
	p := netsim.WaveLan.Params()
	p.LossRate = 0.10
	runTransfer(t, p, 256<<10)
}

func TestTransferSevereLoss(t *testing.T) {
	p := netsim.ISDN.Params()
	p.LossRate = 0.30
	runTransfer(t, p, 32<<10)
}

func TestConcurrentTransfers(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(s, 3)
	net.SetDefaults(netsim.WaveLan.Params())
	s.Run(func() {
		a, b := newPair(s, net)
		const nt = 4
		done := simtime.NewQueue[error](s)
		for i := 0; i < nt; i++ {
			id := uint64(i + 1)
			data := bytes.Repeat([]byte{byte(id)}, 20<<10)
			s.Go(func() { done.Put(a.engine.Send("b", id, data, obs.SpanContext{})) })
		}
		for i := 0; i < nt; i++ {
			id := uint64(i + 1)
			got, err := b.engine.Await("a", id, time.Hour)
			if err != nil {
				t.Fatalf("Await %d: %v", id, err)
			}
			if len(got) != 20<<10 || got[0] != byte(id) {
				t.Errorf("transfer %d corrupted", id)
			}
		}
		for i := 0; i < nt; i++ {
			if err, _ := done.Get(); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
	})
}

func TestSendFailsOnDeadLink(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(s, 4)
	s.Run(func() {
		a, _ := newPair(s, net)
		net.SetUp("a", "b", false)
		err := a.engine.Send("b", 9, make([]byte, 5000), obs.SpanContext{})
		if !errors.Is(err, ErrTransferFailed) {
			t.Errorf("Send over dead link: %v, want ErrTransferFailed", err)
		}
	})
}

func TestAwaitTimeout(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(s, 5)
	s.Run(func() {
		_, b := newPair(s, net)
		_, err := b.engine.Await("a", 77, 5*time.Second)
		if !errors.Is(err, ErrAwaitTimeout) {
			t.Errorf("Await with no sender: %v, want ErrAwaitTimeout", err)
		}
	})
}

func TestBandwidthEstimateAfterTransfer(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(s, 6)
	net.SetDefaults(netsim.Modem.Params())
	s.Run(func() {
		a, b := newPair(s, net)
		mon := netmon.NewMonitor(s)
		a.engine.mon = mon
		data := make([]byte, 24<<10)
		done := simtime.NewQueue[error](s)
		s.Go(func() { done.Put(a.engine.Send("b", 1, data, obs.SpanContext{})) })
		if _, err := b.engine.Await("a", 1, time.Hour); err != nil {
			t.Fatal(err)
		}
		done.Get()
		bw := mon.Peer("b").Bandwidth()
		if bw < 6000 || bw > 9600 {
			t.Errorf("estimated bandwidth %d b/s over a 9600 b/s modem", bw)
		}
	})
}

// Property: any payload (up to 64 KB) survives a 5%-lossy link intact.
func TestTransferIntegrityProperty(t *testing.T) {
	f := func(seed int64, sizeRaw uint16) bool {
		size := int(sizeRaw) // 0..65535
		s := simtime.NewSim(simtime.Epoch1995)
		p := netsim.WaveLan.Params()
		p.LossRate = 0.05
		net := netsim.New(s, seed)
		net.SetDefaults(p)
		ok := true
		s.Run(func() {
			a, b := newPair(s, net)
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(seed>>uint(i%8) + int64(i))
			}
			done := simtime.NewQueue[error](s)
			s.Go(func() { done.Put(a.engine.Send("b", 1, data, obs.SpanContext{})) })
			got, err := b.engine.Await("a", 1, time.Hour)
			errSend, _ := done.Get()
			ok = err == nil && errSend == nil && bytes.Equal(got, data)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// ---- Receive path: validation, idle sweep, differential model ----

// frame builds one DATA payload the way a sender's shipData does.
func frame(id uint64, seq, total uint32, totalBytes uint64, data []byte) []byte {
	return appendData(nil, id, seq, total, totalBytes, obs.SpanContext{}, data)
}

// fragments frames every DATA payload of transfer id carrying data.
func fragments(id uint64, data []byte) [][]byte {
	total := uint32(max(1, (len(data)+DataPacketSize-1)/DataPacketSize))
	out := make([][]byte, total)
	for i := range out {
		lo := min(i*DataPacketSize, len(data))
		hi := min(lo+DataPacketSize, len(data))
		out[i] = frame(id, uint32(i), total, uint64(len(data)), data[lo:hi])
	}
	return out
}

// ackLog is a send callback that records every ack the engine ships.
type ackLog struct{ acks []ackInfo }

func (l *ackLog) send(_ string, p []byte) error {
	if _, cum, bitmap, ok := decodeAck(p); ok && p[0] == tagAck {
		l.acks = append(l.acks, ackInfo{cum: cum, bitmap: bitmap})
	}
	return nil
}

// crasher is the 44-byte DATA fragment that once panicked a receiver
// with makeslice: cap out of range: one data byte, total=1 and
// totalBytes=2^62.
var crasher = frame(7, 0, 1, 1<<62, []byte{0xAA})

// TestRejectsBadFragments: each malformed or inconsistent fragment is
// dropped unacked under its reason, none opens state it should not, and
// the node goes on serving a real transfer afterwards.
func TestRejectsBadFragments(t *testing.T) {
	if len(crasher) != 44 {
		t.Fatalf("crasher is %d bytes, want 44", len(crasher))
	}
	s := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(s, 11)
	net.SetDefaults(netsim.Ethernet.Params())
	reg := obs.NewRegistry(s)
	s.Run(func() {
		a, b := newPairWith(s, net, reg)
		log := &ackLog{}
		e := NewEngine(s, netmon.NewMonitor(s), log.send, reg, "b")
		deliver := func(p []byte) { e.Deliver("a", p) }

		deliver(crasher)
		deliver(crasher[:dataHeader-1])                                            // malformed: short header
		deliver(frame(8, 0, 2, DataPacketSize, make([]byte, DataPacketSize)))      // header: total disagrees with totalBytes
		deliver(frame(9, 2, 2, 2*DataPacketSize, make([]byte, DataPacketSize)))    // seq: past the last fragment
		deliver(frame(10, 0, 2, 2*DataPacketSize, make([]byte, 10)))               // length: short middle slot
		deliver(frame(10, 1, 2, 2*DataPacketSize-1, make([]byte, DataPacketSize))) // length: long final slot
		if len(log.acks) != 0 || len(e.incoming) != 0 {
			t.Fatalf("rejected fragments left %d acks, %d partial transfers", len(log.acks), len(e.incoming))
		}

		// A transfer's later fragments must agree with its first header
		// and lie within a window of its cumulative count.
		big := uint32(2 * WindowPackets)
		bigBytes := uint64(big) * DataPacketSize
		deliver(frame(11, 0, big, bigBytes, make([]byte, DataPacketSize)))
		deliver(frame(11, 1, big+1, bigBytes+DataPacketSize, make([]byte, DataPacketSize)))
		deliver(frame(11, WindowPackets+1, big, bigBytes, make([]byte, DataPacketSize)))
		if len(log.acks) != 1 || log.acks[0] != (ackInfo{cum: 1}) {
			t.Fatalf("acks %v, want only the first fragment's {1 0}", log.acks)
		}

		want := map[string]int64{"too_large": 1, "malformed": 1, "header": 1, "seq": 1, "length": 2, "mismatch": 1, "window": 1}
		for reason, n := range want {
			if got := reg.Counter("sftp_rejected_fragments_total", obs.L("reason", reason)).Value(); got != n {
				t.Errorf("rejections{reason=%s} = %d, want %d", reason, got, n)
			}
		}

		// Still serving: the crasher over the wire, then a real transfer.
		if err := a.ep.Send("b", crasher); err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte("still up"), 1000)
		done := simtime.NewQueue[error](s)
		s.Go(func() { done.Put(a.engine.Send("b", 1, data, obs.SpanContext{})) })
		got, err := b.engine.Await("a", 1, time.Hour)
		if err != nil {
			t.Fatalf("Await after crasher: %v", err)
		}
		if sendErr, _ := done.Get(); sendErr != nil {
			t.Fatalf("Send after crasher: %v", sendErr)
		}
		if !bytes.Equal(got, data) {
			t.Error("transfer after crasher corrupted")
		}
		if n := reg.Counter("sftp_rejected_fragments_total", obs.L("reason", "too_large")).Value(); n != 2 {
			t.Errorf("too_large rejections %d after the wire crasher, want 2", n)
		}
	})
}

// TestSendRejectsOversize: a body no receiver would accept fails fast.
func TestSendRejectsOversize(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	e := NewEngine(s, netmon.NewMonitor(s), func(string, []byte) error { return nil }, nil, "a")
	if err := e.Send("b", 1, make([]byte, MaxTransferBytes+1), obs.SpanContext{}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Send of MaxTransferBytes+1: %v, want ErrTooLarge", err)
	}
}

// TestIdleTransfersSwept: 20,000 abandoned first fragments are gone one
// idle TTL later, while a transfer that kept hearing from its sender
// survives the sweep and completes.
func TestIdleTransfersSwept(t *testing.T) {
	s := simtime.NewSim(simtime.Epoch1995)
	e := NewEngine(s, netmon.NewMonitor(s), func(string, []byte) error { return nil }, nil, "b")
	s.Run(func() {
		live := bytes.Repeat([]byte{0x5A}, 2*DataPacketSize)
		liveFrags := fragments(1, live)
		e.Deliver("a", liveFrags[0])
		for id := uint64(100); id < 20_100; id++ {
			e.Deliver("a", frame(id, 0, 2, DataPacketSize+1, make([]byte, DataPacketSize)))
		}
		if n := len(e.incoming); n != 20_001 {
			t.Fatalf("%d partial transfers before the sweep, want 20001", n)
		}
		s.Sleep(incomingTTL * 3 / 4)
		e.Deliver("a", liveFrags[0]) // duplicate: refreshes the live transfer
		s.Sleep(incomingTTL/4 + time.Second)
		e.Deliver("a", frame(99, 0, 2, 2*DataPacketSize, make([]byte, DataPacketSize)))
		if n := len(e.incoming); n != 2 {
			t.Fatalf("%d partial transfers after one idle TTL, want 2 (live + newest)", n)
		}
		e.Deliver("a", liveFrags[1])
		got, ok := e.done[key{"a", 1}].TryGet()
		if !ok || !bytes.Equal(got, live) {
			t.Error("live transfer did not complete intact after the sweep")
		}
	})
}

// refReceiver is the map-based reassembly the engine replaced: it keeps
// every fragment as its own copy, rescans from seq 0 for the cumulative
// count and probes 64 map slots for the bitmap on every arrival, then
// concatenates on completion. The differential test holds the engine to
// its ack stream and assembled bytes.
type refReceiver struct {
	total uint32
	got   map[uint32][]byte
	done  bool
}

func (r *refReceiver) deliver(seq uint32, data []byte) (ack ackInfo, assembled []byte) {
	if r.done {
		return ackInfo{cum: r.total}, nil
	}
	if _, dup := r.got[seq]; !dup && seq < r.total {
		r.got[seq] = append([]byte(nil), data...)
	}
	for {
		if _, have := r.got[ack.cum]; !have {
			break
		}
		ack.cum++
	}
	for b := uint32(0); b < 64; b++ {
		if _, have := r.got[ack.cum+b]; have {
			ack.bitmap |= 1 << b
		}
	}
	if ack.cum >= r.total {
		r.done = true
		assembled = []byte{}
		for i := uint32(0); i < r.total; i++ {
			assembled = append(assembled, r.got[i]...)
		}
	}
	return ack, assembled
}

// TestReassemblyMatchesReference drives the engine and the reference
// model with the same randomized in-window schedules — loss, duplicates,
// reordering, stale fragments after completion — and requires the same
// (cum, bitmap) after every fragment and the same bytes at the end.
func TestReassemblyMatchesReference(t *testing.T) {
	sizes := []int{0, 1, DataPacketSize - 1, DataPacketSize, DataPacketSize + 1, 2 * DataPacketSize,
		WindowPackets * DataPacketSize, WindowPackets*DataPacketSize + 1, 200 * DataPacketSize}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		sizes = append(sizes, rng.Intn(300*DataPacketSize))
	}
	s := simtime.NewSim(simtime.Epoch1995)
	for i, size := range sizes {
		data := make([]byte, size)
		rng.Read(data)
		frags := fragments(uint64(i), data)
		ref := &refReceiver{total: uint32(len(frags)), got: make(map[uint32][]byte)}
		log := &ackLog{}
		e := NewEngine(s, netmon.NewMonitor(s), log.send, nil, "b")

		var want []ackInfo
		var assembled []byte
		cum := 0
		for extra := 0; extra < 5; {
			// Pick a fragment the way an honest sender could have one in
			// flight: anywhere from a little behind the cumulative count
			// to the edge of the window ahead of it.
			lo, hi := max(0, cum-8), min(len(frags), cum+WindowPackets)
			seq := cum
			if rng.Intn(10) < 7 || cum >= len(frags) {
				seq = lo + rng.Intn(max(1, hi-lo))
			}
			seq = min(seq, len(frags)-1)
			if ref.done {
				extra++
			}
			ack, out := ref.deliver(uint32(seq), frags[seq][dataHeader:])
			want = append(want, ack)
			cum = int(ack.cum)
			if out != nil {
				assembled = out
			}
			e.Deliver("a", frags[seq])
		}
		if len(log.acks) != len(want) {
			t.Fatalf("size %d: engine sent %d acks, model %d", size, len(log.acks), len(want))
		}
		for j := range want {
			if log.acks[j] != want[j] {
				t.Fatalf("size %d: ack %d = %+v, model %+v", size, j, log.acks[j], want[j])
			}
		}
		got, ok := e.done[key{"a", uint64(i)}].TryGet()
		if !ok || !bytes.Equal(got, assembled) || !bytes.Equal(got, data) || got == nil {
			t.Fatalf("size %d: assembled %d bytes (ok=%v), model %d", size, len(got), ok, len(assembled))
		}
	}
}

// FuzzDeliverData feeds arbitrary sequences of SFTP payloads — each
// prefixed by a 2-byte big-endian length in the fuzz input — to one
// engine. It must never panic, and no partial transfer may hold more
// than the bytes its fragments brought plus one window (capacity at
// most twice that, from doubling growth).
func FuzzDeliverData(f *testing.F) {
	stream := func(payloads ...[]byte) []byte {
		var out []byte
		for _, p := range payloads {
			out = binary.BigEndian.AppendUint16(out, uint16(len(p)))
			out = append(out, p...)
		}
		return out
	}
	// testdata/fuzz/FuzzDeliverData holds the 44-byte crasher.
	f.Add(stream(fragments(1, bytes.Repeat([]byte{1}, 3*DataPacketSize+5))...))
	f.Add(stream(frame(2, 63, 64, 64*DataPacketSize, make([]byte, DataPacketSize)), frame(2, 0, 64, 64*DataPacketSize, make([]byte, DataPacketSize))))
	f.Fuzz(func(t *testing.T, in []byte) {
		s := simtime.NewSim(simtime.Epoch1995)
		e := NewEngine(s, netmon.NewMonitor(s), func(string, []byte) error { return nil }, nil, "b")
		recv := make(map[uint64]int)
		for len(in) > 0 {
			n := len(in)
			if n >= 2 {
				n = min(int(binary.BigEndian.Uint16(in)), n-2)
				in = in[2:]
			}
			p := in[:n]
			in = in[n:]
			if len(p) > 0 && p[0] == tagData {
				if id, _, _, _, _, data, ok := decodeData(p); ok {
					recv[id] += len(data)
				}
			}
			e.Deliver("a", p)
			for k, tr := range e.incoming {
				if len(tr.buf) > recv[k.id]+WindowPackets*DataPacketSize || cap(tr.buf) > 2*len(tr.buf) {
					t.Fatalf("transfer %d retains len %d cap %d after %d bytes received", k.id, len(tr.buf), cap(tr.buf), recv[k.id])
				}
				if tr.cum >= tr.total || tr.ahead&1 != 0 {
					t.Fatalf("transfer %d window state cum=%d/%d ahead=%x", k.id, tr.cum, tr.total, tr.ahead)
				}
			}
		}
	})
}

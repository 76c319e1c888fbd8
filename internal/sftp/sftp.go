// Package sftp implements the windowed bulk-transfer protocol that ships
// file contents for RPC2, modeled on Coda's SFTP (§4.1).
//
// A transfer moves one byte slice from sender to receiver as a stream of
// data packets under a selective-repeat sliding window. Acknowledgements
// carry a cumulative count plus a bitmap, so a single lost packet costs one
// retransmission rather than a window. Retransmission timeouts come from
// the shared per-peer netmon estimator, and every packet in either
// direction refreshes the peer's liveness — this is the keepalive
// unification the paper describes (SFTP traffic suppresses RPC2 and Venus
// keepalives).
//
// The receiver reassembles each transfer in one buffer that grows, by
// doubling, only as in-window bytes arrive; every fragment is copied
// straight to its offset, and the completed buffer is handed to Await
// without a further copy. Its window state is a cumulative count plus a
// 64-bit mask of the fragments just ahead of it, which is exactly the
// (cum, bitmap) pair each ack carries, so one fragment costs O(1) work.
// An honest sender never has a fragment outstanding at or beyond
// cum+WindowPackets, so such fragments are dropped.
//
// Fragments are validated before any state is touched. A header must be
// self-consistent (total = max(1, ceil(totalBytes/DataPacketSize)),
// totalBytes ≤ MaxTransferBytes, seq < total), agree with the first
// header of its transfer, and carry exactly its slot's length. Each
// rejection counts in sftp_rejected_fragments_total{reason}. Partial
// transfers idle for longer than incomingTTL are swept lazily as new
// ones open, so bogus first fragments cannot pile up forever.
//
// The Engine does not own a socket: its owner (rpc2.Node) passes a send
// function and routes incoming SFTP packets to Deliver. Both directions of
// both protocols therefore share one datagram endpoint, as in Coda.
package sftp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/netmon"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Protocol constants.
const (
	// DataPacketSize is the payload carried by one data packet.
	DataPacketSize = 1200
	// WindowPackets is the sender's maximum number of unacked packets.
	WindowPackets = 64
	// maxConsecutiveTimeouts aborts a transfer wedged on a dead link.
	maxConsecutiveTimeouts = 10
	// MaxTransferBytes caps the length a transfer may claim. No path
	// produces a larger body: the largest file is 64 MiB (the scenario
	// DSL's `zeros` cap, also the WAL's per-record cap), and its wire and
	// rpc2 framing is far below the 1 MiB of headroom.
	MaxTransferBytes = 64<<20 + 1<<20
	// incomingTTL is how long a partial incoming transfer survives
	// without a fragment: the server's fragment-buffer TTL scale, far
	// beyond any sender's retry budget (maxConsecutiveTimeouts backoffs
	// capped at netmon.MaxRTO).
	incomingTTL = 6 * time.Hour
)

// Packet type tags (first byte of an SFTP payload).
const (
	tagData = 0x01
	tagAck  = 0x02
)

// ErrTransferFailed reports a transfer abandoned after repeated timeouts.
var ErrTransferFailed = errors.New("sftp: transfer failed (peer unreachable)")

// ErrTooLarge reports a Send whose data exceeds MaxTransferBytes; a
// receiver would reject every fragment of it.
var ErrTooLarge = errors.New("sftp: transfer exceeds MaxTransferBytes")

// ErrAwaitTimeout reports that an expected incoming transfer never
// completed within the deadline.
var ErrAwaitTimeout = errors.New("sftp: timed out awaiting transfer")

type key struct {
	peer string
	id   uint64
}

// Engine manages all SFTP transfers for one node.
type Engine struct {
	clock simtime.Clock
	send  func(dst string, payload []byte) error
	mon   *netmon.Monitor

	// reg/self mint sftp spans; engine metrics stay unlabeled, so the
	// node label for span attribution is carried explicitly.
	reg  *obs.Registry
	self string

	mu        sync.Mutex
	senders   map[key]*simtime.Queue[ackInfo]
	incoming  map[key]*inTransfer
	done      map[key]*simtime.Queue[[]byte]
	completed map[key]uint32 // packet counts of finished transfers, for re-acking
	order     []key          // FIFO bound on completed
	nextSweep time.Time      // earliest time the next idle sweep of incoming runs

	met engineMetrics
}

// engineMetrics caches the engine's counter handles. All handles are
// nil (and inert) when no registry was injected.
type engineMetrics struct {
	packetsSent  *obs.Counter
	bytesSent    *obs.Counter
	retransmits  *obs.Counter
	windowStalls *obs.Counter
	transfers    *obs.Counter
	failures     *obs.Counter
	packetsRecv  *obs.Counter
	bytesRecv    *obs.Counter
}

type ackInfo struct {
	cum    uint32
	bitmap uint64
}

// inTransfer is one partial incoming transfer. Fragments [0, cum) have
// arrived; bit b of ahead says fragment cum+b has, so bit 0 is always
// clear between deliveries and ahead is the ack bitmap as it stands.
type inTransfer struct {
	total      uint32
	totalBytes uint64
	buf        []byte // fragment seq at buf[seq*DataPacketSize:]; len = end of the furthest one
	cum        uint32
	ahead      uint64
	lastActive time.Time       // last accepted fragment, for the idle sweep
	sp         *obs.SpanHandle // sftp_receive, when the stream is traced
}

// NewEngine returns an Engine sending through send — which must not
// retain the payload after it returns: fragment buffers are pooled and
// recycled as soon as send comes back — and accounting against
// mon. reg may be nil, in which case the engine records no metrics and
// mints no spans; self is the owning node's address, used as the span
// node label.
func NewEngine(clock simtime.Clock, mon *netmon.Monitor, send func(dst string, payload []byte) error, reg *obs.Registry, self string) *Engine {
	return &Engine{
		clock:     clock,
		send:      send,
		mon:       mon,
		reg:       reg,
		self:      self,
		senders:   make(map[key]*simtime.Queue[ackInfo]),
		incoming:  make(map[key]*inTransfer),
		done:      make(map[key]*simtime.Queue[[]byte]),
		completed: make(map[key]uint32),
		met: engineMetrics{
			packetsSent:  reg.Counter("sftp_data_packets_sent_total"),
			bytesSent:    reg.Counter("sftp_bytes_sent_total"),
			retransmits:  reg.Counter("sftp_retransmits_total"),
			windowStalls: reg.Counter("sftp_window_stalls_total"),
			transfers:    reg.Counter("sftp_transfers_total"),
			failures:     reg.Counter("sftp_transfer_failures_total"),
			packetsRecv:  reg.Counter("sftp_data_packets_received_total"),
			bytesRecv:    reg.Counter("sftp_bytes_received_total"),
		},
	}
}

// Send transfers data to dst under transfer id, blocking until the receiver
// has acknowledged every packet or the transfer is abandoned. On success it
// feeds a throughput sample to the peer's bandwidth estimator. A valid sc
// makes the transfer one sftp_transfer span in the caller's trace, and
// every data fragment carries the span context so the receive side joins
// the same tree.
func (e *Engine) Send(dst string, id uint64, data []byte, sc obs.SpanContext) error {
	if len(data) > MaxTransferBytes {
		return fmt.Errorf("%w: %d bytes to %s", ErrTooLarge, len(data), dst)
	}
	peer := e.mon.Peer(dst)
	total := uint32((len(data) + DataPacketSize - 1) / DataPacketSize)
	if total == 0 {
		total = 1 // zero-length transfers still need one (empty) packet
	}

	var sp *obs.SpanHandle
	wireCtx := obs.SpanContext{}
	if sc.Valid() {
		sp = e.reg.StartSpan(e.self, "sftp_transfer", sc, obs.F("dst", dst))
		wireCtx = sp.Context()
		if !wireCtx.Valid() {
			wireCtx = sc // registry absent or table full: still propagate
		}
	}
	defer sp.End()

	k := key{dst, id}
	acks := simtime.NewQueue[ackInfo](e.clock)
	e.mu.Lock()
	e.senders[k] = acks
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.senders, k)
		e.mu.Unlock()
	}()

	start := e.clock.Now()
	acked := make([]bool, total)
	base := uint32(0) // all packets < base are acked
	sent := uint32(0) // highest packet index ever sent + 1
	timeouts := 0

	// Single-timer RTT sampling (as in TCP): time one fresh packet at a
	// time; abandon the measurement if it is retransmitted (Karn).
	var timedSeq int64 = -1
	var timedAt time.Time

	xmit := func(i uint32) {
		lo := int(i) * DataPacketSize
		hi := lo + DataPacketSize
		if lo > len(data) {
			lo = len(data)
		}
		if hi > len(data) {
			hi = len(data)
		}
		e.met.packetsSent.Inc()
		e.met.bytesSent.Add(int64(hi - lo))
		e.shipData(dst, id, i, total, uint64(len(data)), wireCtx, data[lo:hi])
	}
	xmitFresh := func(i uint32) {
		xmit(i)
		if timedSeq < 0 {
			timedSeq = int64(i)
			timedAt = e.clock.Now()
		}
	}
	xmitRetx := func(i uint32) {
		e.met.retransmits.Inc()
		xmit(i)
		if timedSeq >= 0 && int64(i) <= timedSeq {
			timedSeq = -1
		}
	}

	// Fill the initial window.
	for sent < total && sent < base+WindowPackets {
		xmitFresh(sent)
		sent++
	}

	// ackWait allows for the serialization time of everything in flight
	// at the estimated path bandwidth on top of the round-trip RTO; with
	// a window larger than the bandwidth-delay product (always true on a
	// modem), ack spacing is serialization-limited, not RTT-limited.
	ackWait := func(extra time.Duration) time.Duration {
		wait := peer.RTO() + extra
		if bw := peer.Bandwidth(); bw > 0 {
			var inflight int64
			for i := base; i < sent; i++ {
				if !acked[i] {
					inflight += DataPacketSize
				}
			}
			wait += time.Duration(inflight * 8 * int64(time.Second) / bw)
		}
		return wait
	}

	var backoff time.Duration
	lastRetx := make(map[uint32]time.Time) // dedup fast retransmissions per hole
	for base < total {
		ack, ok := acks.GetTimeout(ackWait(backoff))
		if !ok {
			// Timeout: retransmit everything still outstanding (a small
			// set — fast retransmit handles mid-window holes, so this
			// path is mostly tail losses) and back off.
			timeouts++
			e.met.windowStalls.Inc()
			if timeouts >= maxConsecutiveTimeouts {
				e.met.failures.Inc()
				return fmt.Errorf("%w: %s transfer %d at packet %d/%d",
					ErrTransferFailed, dst, id, base, total)
			}
			for i := base; i < sent; i++ {
				if !acked[i] {
					xmitRetx(i)
				}
			}
			if backoff == 0 {
				backoff = peer.RTO()
			} else {
				backoff *= 2
			}
			if backoff > netmon.MaxRTO {
				backoff = netmon.MaxRTO
			}
			continue
		}
		timeouts = 0
		backoff = 0

		for i := base; i < ack.cum && i < total; i++ {
			acked[i] = true
		}
		for b := 0; b < 64; b++ {
			if ack.bitmap&(1<<b) != 0 {
				if i := ack.cum + uint32(b); i < total {
					acked[i] = true
				}
			}
		}
		if timedSeq >= 0 && acked[timedSeq] {
			peer.ObserveRTT(e.clock.Now().Sub(timedAt))
			timedSeq = -1
		}
		maxAcked := int64(-1)
		for i := int64(sent) - 1; i >= int64(base); i-- {
			if acked[i] {
				maxAcked = i
				break
			}
		}
		for base < total && acked[base] {
			base++
		}
		// Send any packets newly admitted to the window; selectively
		// retransmit every hole below the highest acked packet (their
		// successors arrived, so they are presumed lost), at most once
		// per hole per timeout interval.
		for sent < total && sent < base+WindowPackets {
			xmitFresh(sent)
			sent++
		}
		now := e.clock.Now()
		rto := peer.RTO()
		for i := int64(base); i < maxAcked; i++ {
			if acked[i] {
				continue
			}
			if last, seen := lastRetx[uint32(i)]; !seen || now.Sub(last) > rto {
				xmitRetx(uint32(i))
				lastRetx[uint32(i)] = now
			}
		}
	}

	e.met.transfers.Inc()
	peer.ObserveTransfer(int64(len(data)), e.clock.Now().Sub(start))
	return nil
}

// Await blocks until the transfer (src, id) completes and returns its
// contents. Each completed transfer can be taken exactly once.
func (e *Engine) Await(src string, id uint64, timeout time.Duration) ([]byte, error) {
	k := key{src, id}
	e.mu.Lock()
	q, ok := e.done[k]
	if !ok {
		q = simtime.NewQueue[[]byte](e.clock)
		e.done[k] = q
	}
	e.mu.Unlock()

	data, ok := q.GetTimeout(timeout)
	if !ok {
		return nil, fmt.Errorf("%w: %s transfer %d", ErrAwaitTimeout, src, id)
	}
	e.mu.Lock()
	delete(e.done, k)
	e.mu.Unlock()
	return data, nil
}

// Deliver routes one incoming SFTP payload from src into the engine. The
// owning node calls it from its demultiplex loop.
func (e *Engine) Deliver(src string, payload []byte) {
	if len(payload) == 0 {
		return
	}
	e.mon.Peer(src).Heard()
	switch payload[0] {
	case tagData:
		e.deliverData(src, payload)
	case tagAck:
		e.deliverAck(src, payload)
	}
}

func (e *Engine) deliverData(src string, payload []byte) {
	id, seq, total, totalBytes, sc, data, ok := decodeData(payload)
	if !ok {
		e.reject("malformed")
		return
	}
	e.met.packetsRecv.Inc()
	e.met.bytesRecv.Add(int64(len(data)))
	if reason := checkHeader(seq, total, totalBytes, len(data)); reason != "" {
		e.reject(reason)
		return
	}
	k := key{src, id}
	now := e.clock.Now()

	e.mu.Lock()
	if doneTotal, finished := e.completed[k]; finished {
		// The sender missed our final ack; re-ack so it can finish.
		e.mu.Unlock()
		e.shipAck(src, id, doneTotal, 0)
		return
	}
	t, ok := e.incoming[k]
	switch {
	case !ok:
		e.sweepIdleLocked(now)
		t = &inTransfer{total: total, totalBytes: totalBytes}
		if sc.Valid() {
			// The receive span opens on the first fragment and closes
			// on assembly; its parent context rode in on the wire.
			t.sp = e.reg.StartSpan(e.self, "sftp_receive", sc, obs.F("src", src))
		}
		e.incoming[k] = t
	case total != t.total || totalBytes != t.totalBytes:
		e.mu.Unlock()
		e.reject("mismatch")
		return
	}
	if seq >= t.cum {
		b := seq - t.cum
		if b >= WindowPackets {
			e.mu.Unlock()
			e.reject("window")
			return
		}
		if t.ahead&(1<<b) == 0 {
			t.place(seq, data)
			t.ahead |= 1 << b
			for t.ahead&1 != 0 {
				t.ahead >>= 1
				t.cum++
			}
		}
	}
	t.lastActive = now
	cum, bitmap := t.cum, t.ahead

	if cum < t.total {
		e.mu.Unlock()
		e.shipAck(src, id, cum, bitmap)
		return
	}
	assembled := t.buf
	if assembled == nil {
		assembled = []byte{} // a 0-byte transfer still completes with a non-nil body
	}
	delete(e.incoming, k)
	e.completed[k] = t.total
	e.order = append(e.order, k)
	if len(e.order) > 256 {
		delete(e.completed, e.order[0])
		e.order = e.order[1:]
	}
	q, ok := e.done[k]
	if !ok {
		q = simtime.NewQueue[[]byte](e.clock)
		e.done[k] = q
	}
	e.mu.Unlock()
	t.sp.End()
	e.shipAck(src, id, cum, bitmap)
	q.Put(assembled)
}

// checkHeader validates one decoded fragment on its own and returns the
// rejection reason, or "" if it is well formed: the packet count must be
// the one totalBytes implies, the length within MaxTransferBytes, the
// seq inside the transfer, and the data exactly its slot's length.
func checkHeader(seq, total uint32, totalBytes uint64, n int) string {
	if totalBytes > MaxTransferBytes {
		return "too_large"
	}
	want := (totalBytes + DataPacketSize - 1) / DataPacketSize
	if want == 0 {
		want = 1
	}
	if uint64(total) != want {
		return "header"
	}
	if seq >= total {
		return "seq"
	}
	slot := uint64(DataPacketSize)
	if seq == total-1 {
		slot = totalBytes - uint64(seq)*DataPacketSize
	}
	if uint64(n) != slot {
		return "length"
	}
	return ""
}

// reject counts one dropped fragment under its reason. The counter is
// registered on first use, so registries of runs that never see a bad
// fragment are unchanged.
func (e *Engine) reject(reason string) {
	e.reg.Counter("sftp_rejected_fragments_total", obs.L("reason", reason)).Inc()
}

// place copies fragment seq to its offset in t.buf. The buffer grows by
// doubling, capped at totalBytes, and only to cover bytes in hand, so a
// header claiming a huge transfer costs nothing until its data arrives;
// an honest transfer ends with len = cap = totalBytes.
func (t *inTransfer) place(seq uint32, data []byte) {
	off := int(seq) * DataPacketSize
	end := off + len(data)
	switch {
	case end > cap(t.buf):
		c := min(2*cap(t.buf), int(t.totalBytes))
		buf := make([]byte, end, max(c, end))
		copy(buf, t.buf)
		t.buf = buf
	case end > len(t.buf):
		t.buf = t.buf[:end]
	}
	copy(t.buf[off:], data)
}

// sweepIdleLocked drops partial transfers that have heard nothing for
// incomingTTL. It runs when a transfer opens, at most once per quarter
// TTL, so an abandoned transfer lives at most 1.25 TTLs and the scan
// costs nothing per fragment. Caller holds e.mu.
func (e *Engine) sweepIdleLocked(now time.Time) {
	if now.Before(e.nextSweep) {
		return
	}
	e.nextSweep = now.Add(incomingTTL / 4)
	for k, t := range e.incoming {
		if now.Sub(t.lastActive) > incomingTTL {
			delete(e.incoming, k)
		}
	}
}

func (e *Engine) deliverAck(src string, payload []byte) {
	id, cum, bitmap, ok := decodeAck(payload)
	if !ok {
		return
	}
	e.mu.Lock()
	q := e.senders[key{src, id}]
	e.mu.Unlock()
	if q != nil {
		q.Put(ackInfo{cum: cum, bitmap: bitmap})
	}
}

// Framed header sizes: data is tag(1) id(8) seq(4) total(4)
// totalBytes(8) len(2) trace(8) span(8) — the trailing span context is
// all-zero on untraced streams; ack is tag(1) id(8) cum(4) bitmap(8).
const (
	dataHeader = 43
	ackHeader  = 21
)

// appendData frames one data fragment into dst (the caller owns the
// buffer) and returns the extended slice.
//
//codalint:hotpath sftp fragment framing
func appendData(dst []byte, id uint64, seq, total uint32, totalBytes uint64, sc obs.SpanContext, data []byte) []byte {
	dst = append(dst, tagData)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint32(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, total)
	dst = binary.BigEndian.AppendUint64(dst, totalBytes)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(data)))
	dst = binary.BigEndian.AppendUint64(dst, sc.Trace)
	dst = binary.BigEndian.AppendUint64(dst, sc.Span)
	return append(dst, data...)
}

// shipData frames one data fragment into a pooled buffer and hands it
// to the send callback, which must not retain it. One of these fires
// per fragment of every bulk transfer; zero steady-state allocations
// here is pinned by BenchmarkAllocShipData and the benchgate (the span
// context is two fixed header words, nothing heap-allocated).
//
//codalint:hotpath sftp fragment framing
func (e *Engine) shipData(dst string, id uint64, seq, total uint32, totalBytes uint64, sc obs.SpanContext, data []byte) {
	bp := bufpool.Get(dataHeader + len(data))
	*bp = appendData(*bp, id, seq, total, totalBytes, sc, data)
	_ = e.send(dst, *bp)
	bufpool.Put(bp)
}

//codalint:hotpath sftp fragment parsing
func decodeData(p []byte) (id uint64, seq, total uint32, totalBytes uint64, sc obs.SpanContext, data []byte, ok bool) {
	if len(p) < dataHeader {
		return
	}
	n := int(binary.BigEndian.Uint16(p[25:]))
	if len(p) < dataHeader+n {
		return
	}
	id = binary.BigEndian.Uint64(p[1:])
	seq = binary.BigEndian.Uint32(p[9:])
	total = binary.BigEndian.Uint32(p[13:])
	totalBytes = binary.BigEndian.Uint64(p[17:])
	sc.Trace = binary.BigEndian.Uint64(p[27:])
	sc.Span = binary.BigEndian.Uint64(p[35:])
	return id, seq, total, totalBytes, sc, p[dataHeader : dataHeader+n], true
}

// shipAck frames one ack into a pooled buffer; every received data
// fragment answers with one of these.
//
//codalint:hotpath sftp ack framing
func (e *Engine) shipAck(dst string, id uint64, cum uint32, bitmap uint64) {
	bp := bufpool.Get(ackHeader)
	buf := append(*bp, tagAck)
	buf = binary.BigEndian.AppendUint64(buf, id)
	buf = binary.BigEndian.AppendUint32(buf, cum)
	buf = binary.BigEndian.AppendUint64(buf, bitmap)
	*bp = buf
	_ = e.send(dst, *bp)
	bufpool.Put(bp)
}

// decodeAck parses one ack frame. Anything but exactly ackHeader bytes
// under the ack tag is rejected with ok=false.
//
//codalint:hotpath sftp ack parsing
func decodeAck(p []byte) (id uint64, cum uint32, bitmap uint64, ok bool) {
	if len(p) != ackHeader || p[0] != tagAck {
		return 0, 0, 0, false
	}
	return binary.BigEndian.Uint64(p[1:]), binary.BigEndian.Uint32(p[9:]), binary.BigEndian.Uint64(p[13:]), true
}

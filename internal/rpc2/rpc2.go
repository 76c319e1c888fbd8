// Package rpc2 is the remote procedure call layer of the reproduction,
// modeled on Coda's RPC2 (§4.1).
//
// Characteristics carried over from the paper's description:
//
//   - Adaptive retransmission: round-trip times are measured with timestamp
//     echoing (every packet carries a microsecond timestamp; replies echo
//     the timestamp of the specific copy they answer, so samples remain
//     valid across retransmissions — Karn's problem does not arise). The
//     samples feed the shared netmon estimator, whose Jacobson RTO drives
//     both RPC2 and SFTP retransmission, so the protocols work from LAN
//     speeds down to a 1.2 Kb/s serial line.
//   - Unified keepalives: any packet from a peer — request, reply, BUSY,
//     probe, or SFTP data/ack — refreshes the peer's liveness in netmon,
//     which Venus reads instead of generating its own keepalive traffic.
//   - BUSY responses: a server that is still executing a request answers
//     duplicate transmissions with BUSY, which parks the client without
//     backoff; long operations (reintegration) thus do not look like dead
//     servers.
//   - Side effects: bodies larger than one datagram travel via the SFTP
//     engine bound to the same endpoint, then a small header packet
//     references the completed transfer.
//
// A Node is symmetric: it issues calls and serves a handler, so servers can
// call clients (callback breaks) exactly as clients call servers.
package rpc2

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/netmon"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sftp"
	"repro/internal/simtime"
)

// Packet kinds.
const (
	kindReq      = 1
	kindRep      = 2
	kindBusy     = 3
	kindProbe    = 4
	kindProbeAck = 5
	kindSFTP     = 6
)

// Flags.
const (
	flagBodyViaSFTP = 1 << 0
	flagAppError    = 1 << 1
)

// InlineLimit is the largest body carried inside the request/reply packet
// itself; larger bodies go through SFTP.
const InlineLimit = 1024

// Defaults for CallOpts.
const (
	DefaultTimeout    = 60 * time.Second
	DefaultMaxRetries = 8
	// sftpAwaitSlack bounds how long a node waits for a side-effect
	// transfer announced by a header packet.
	sftpAwaitSlack = 5 * time.Minute
)

// Reply-cache bounds. Beyond the per-peer entry cap, whole peer caches are
// reclaimed once netmon stops hearing from the peer: a host silent for
// replyCacheTTL cannot still be retransmitting a request, so at-most-once
// execution is preserved while long-lived nodes stop accumulating state
// for every peer that ever called.
const (
	replyCacheTTL      = time.Hour
	replySweepInterval = 5 * time.Minute
)

// Errors.
var (
	// ErrTimeout reports that the peer never answered.
	ErrTimeout = errors.New("rpc2: call timed out")
	// ErrClosed reports a call on a closed node.
	ErrClosed = errors.New("rpc2: node closed")
)

// RemoteError is an application-level failure returned by the peer's
// handler. The RPC itself succeeded.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "rpc2: remote: " + e.Msg }

// Handler serves incoming calls. sc is the caller's span context as
// carried in the packet header (zero when the call is untraced);
// handlers pass it to StartSpan so server-side work joins the caller's
// trace tree. Returning a non-nil error ships the error string to the
// caller as a RemoteError.
type Handler func(src string, sc obs.SpanContext, body []byte) ([]byte, error)

// CallOpts tunes one call.
type CallOpts struct {
	// Timeout bounds the whole call; zero means DefaultTimeout.
	Timeout time.Duration
	// MaxRetries bounds header retransmissions; zero means
	// DefaultMaxRetries. Negative means no retries.
	MaxRetries int
	// Span, when valid, makes this call part of a trace: the node mints
	// an rpc2_call child span and propagates its context in the packet
	// header (and through SFTP side effects). Zero leaves the call
	// untraced — zero header bytes, no span minted.
	Span obs.SpanContext
}

// Node is one RPC2 endpoint: a datagram socket plus an SFTP engine, a
// handler for incoming calls, and shared peer estimates.
type Node struct {
	clock   simtime.Clock
	conn    netsim.PacketConn
	mon     *netmon.Monitor
	engine  *sftp.Engine
	handler Handler

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]*simtime.Queue[inbound]
	// replyCache remembers recent replies per peer for duplicate
	// suppression (at-most-once execution).
	replyCache map[string]*peerCache
	closed     bool

	epoch time.Time // base for 32-bit microsecond timestamps
	// inc is the node's incarnation, stamped on every request it issues
	// and echoed by replies (RPC2's connection epoch). A restarted node
	// reuses sequence numbers from 1; without the incarnation a peer's
	// reply cache would answer the new node's calls with the old node's
	// replies. Receivers flush a peer's cache when its incarnation
	// changes, and callers discard echoes from a previous life.
	inc uint32

	// reg/self mint rpc2 spans (reg may be nil: tracing inert).
	reg  *obs.Registry
	self string

	met nodeMetrics
}

// nodeMetrics caches the node's metric handles, labeled by the node's
// own address so several nodes can share one registry. Handles are nil
// (inert) when no registry was injected.
type nodeMetrics struct {
	calls       *obs.Counter
	inflight    *obs.Gauge
	retransmits *obs.Counter
	busy        *obs.Counter
	timeouts    *obs.Counter
	handled     *obs.Counter
	dupReplies  *obs.Counter
	rtt         *obs.Histogram
}

// rttBucketsUS spans a LAN round trip to a saturated modem, in
// microseconds.
var rttBucketsUS = []int64{
	1_000, 5_000, 10_000, 50_000, 100_000,
	500_000, 1_000_000, 5_000_000, 10_000_000, 60_000_000,
}

type inbound struct {
	kind   byte
	flags  byte
	tsEcho uint32
	inc    uint32
	body   []byte
	src    string
}

type peerCache struct {
	inc        uint32 // incarnation of the peer this cache serves
	inProgress map[uint64]bool
	replies    map[uint64]wireReply
	order      []uint64
}

type wireReply struct {
	flags byte
	body  []byte
}

// NewNode creates a node on conn and starts its receive loop. handler may
// be nil for pure clients. reg may be nil; when present, the node, its
// SFTP engine, and the shared netmon estimator all publish through it —
// this is the single injection point for transport observability.
func NewNode(clock simtime.Clock, conn netsim.PacketConn, mon *netmon.Monitor, handler Handler, reg *obs.Registry) *Node {
	self := conn.LocalAddr()
	node := obs.L("node", self)
	n := &Node{
		clock:      clock,
		conn:       conn,
		mon:        mon,
		handler:    handler,
		pending:    make(map[uint64]*simtime.Queue[inbound]),
		replyCache: make(map[string]*peerCache),
		// Back-date the epoch so a timestamp can never be zero (zero
		// means "no echo" on the wire).
		epoch: clock.Now().Add(-time.Millisecond),
		inc:   incarnation(clock),
		reg:   reg,
		self:  self,
		met: nodeMetrics{
			calls:       reg.Counter("rpc2_calls_total", node),
			inflight:    reg.Gauge("rpc2_calls_inflight", node),
			retransmits: reg.Counter("rpc2_retransmits_total", node),
			busy:        reg.Counter("rpc2_busy_received_total", node),
			timeouts:    reg.Counter("rpc2_call_timeouts_total", node),
			handled:     reg.Counter("rpc2_requests_handled_total", node),
			dupReplies:  reg.Counter("rpc2_duplicate_requests_total", node),
			rtt:         reg.Histogram("rpc2_rtt_us", rttBucketsUS, node),
		},
	}
	reg.GaugeFunc("rpc2_reply_cache_peers", func() int64 { return int64(n.ReplyCacheSize()) }, node)
	mon.Observe(reg, self)
	n.engine = sftp.NewEngine(clock, mon, n.sendSFTP, reg, self)
	clock.Go(n.recvLoop)
	clock.Go(n.sweepReplyCache)
	return n
}

// sweepReplyCache drops peer caches for hosts netmon has not heard from
// within replyCacheTTL. Caches with a request still executing are kept:
// the reply must be recorded even if the client has vanished.
func (n *Node) sweepReplyCache() {
	for {
		n.clock.Sleep(replySweepInterval)
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return
		}
		// Probe in sorted order: Peer registers gauges on first sight,
		// and that registration order must not depend on map iteration.
		srcs := make([]string, 0, len(n.replyCache))
		for src := range n.replyCache {
			srcs = append(srcs, src)
		}
		sort.Strings(srcs)
		for _, src := range srcs {
			if len(n.replyCache[src].inProgress) > 0 {
				continue
			}
			if !n.mon.Peer(src).Alive(replyCacheTTL) {
				delete(n.replyCache, src)
			}
		}
		n.mu.Unlock()
	}
}

// ReplyCacheSize reports how many peers currently have cached replies
// (observability for the eviction policy).
func (n *Node) ReplyCacheSize() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.replyCache)
}

// Addr returns the node's own address.
func (n *Node) Addr() string { return n.conn.LocalAddr() }

// Monitor returns the shared peer estimator (exported to Venus, per §4.1).
func (n *Node) Monitor() *netmon.Monitor { return n.mon }

// Transfer ships data to dst over the node's SFTP engine outside any RPC;
// the peer claims it with AwaitTransfer. Used by the Figure 1 benchmark and
// available for raw bulk movement.
func (n *Node) Transfer(dst string, id uint64, data []byte) error {
	return n.engine.Send(dst, userXferID(id), data, obs.SpanContext{})
}

// AwaitTransfer receives a raw transfer sent with Transfer.
func (n *Node) AwaitTransfer(src string, id uint64, timeout time.Duration) ([]byte, error) {
	return n.engine.Await(src, userXferID(id), timeout)
}

// Close shuts the node down; in-flight calls fail with ErrClosed.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for _, q := range n.pending {
		q.Close()
	}
	n.mu.Unlock()
	_ = n.conn.Close()
}

// Call sends body to dst and returns the peer handler's reply.
func (n *Node) Call(dst string, body []byte, opts CallOpts) ([]byte, error) {
	if opts.Timeout == 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = DefaultMaxRetries
	}
	peer := n.mon.Peer(dst)

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	n.seq++
	seq := n.seq
	replies := simtime.NewQueue[inbound](n.clock)
	n.pending[seq] = replies
	n.mu.Unlock()
	n.met.calls.Inc()
	n.met.inflight.Add(1)
	defer func() {
		n.met.inflight.Add(-1)
		n.mu.Lock()
		delete(n.pending, seq)
		n.mu.Unlock()
	}()

	start := n.clock.Now()
	deadline := start.Add(opts.Timeout)

	// A valid parent context makes this call one rpc2_call span in the
	// caller's tree; its own context travels in every packet copy (and
	// with SFTP side effects). Untraced calls mint nothing and carry
	// zero header bytes.
	var sp *obs.SpanHandle
	wireCtx := obs.SpanContext{}
	if opts.Span.Valid() {
		sp = n.reg.StartSpan(n.self, "rpc2_call", opts.Span, obs.F("dst", dst))
		wireCtx = sp.Context()
	}
	defer sp.End()

	flags := byte(0)
	wireBody := body
	if len(body) > InlineLimit {
		// Ship the body via SFTP first; the header packet then refers
		// to the completed transfer.
		if err := n.engine.Send(dst, reqXferID(seq), body, wireCtx); err != nil {
			return nil, fmt.Errorf("rpc2: request side effect: %w", err)
		}
		flags |= flagBodyViaSFTP
		wireBody = nil
	}

	send := func() {
		n.sendPacket(dst, kindReq, flags, seq, n.ticks(), 0, n.inc, wireCtx, wireBody)
	}
	send()

	retries := 0
	rto := peer.RTO()
	for {
		remain := deadline.Sub(n.clock.Now())
		if remain <= 0 {
			n.met.timeouts.Inc()
			return nil, fmt.Errorf("%w: %s after %v", ErrTimeout, dst, opts.Timeout)
		}
		wait := rto
		if wait > remain {
			wait = remain
		}
		waitStart := n.clock.Now()
		in, ok := replies.GetTimeout(wait)
		if !ok {
			n.mu.Lock()
			closed := n.closed
			n.mu.Unlock()
			if closed {
				return nil, ErrClosed
			}
			retries++
			if retries > opts.MaxRetries {
				n.met.timeouts.Inc()
				return nil, fmt.Errorf("%w: %s after %d retries", ErrTimeout, dst, retries-1)
			}
			rto *= 2
			if rto > netmon.MaxRTO {
				rto = netmon.MaxRTO
			}
			n.met.retransmits.Inc()
			if wireCtx.Valid() {
				// The RTO the caller just burned waiting, attributed as
				// retransmit time on the critical path.
				n.reg.SpanAt(n.self, "rpc2_retransmit_wait", wireCtx, waitStart).End()
			}
			send()
			continue
		}
		switch in.kind {
		case kindBusy:
			// Server is working on it: wait a full fresh RTO without
			// counting a retry or backing off.
			n.met.busy.Inc()
			n.observeEcho(peer, in.tsEcho)
			retries = 0
			rto = peer.RTO()
			continue
		case kindRep:
			n.observeEcho(peer, in.tsEcho)
			rep := in.body
			if in.flags&flagBodyViaSFTP != 0 {
				var err error
				rep, err = n.engine.Await(dst, repXferID(seq), sftpAwaitSlack)
				if err != nil {
					return nil, fmt.Errorf("rpc2: reply side effect: %w", err)
				}
			}
			elapsed := n.clock.Now().Sub(start)
			peer.ObserveTransfer(int64(len(body)+len(rep)+64), elapsed)
			if in.flags&flagAppError != 0 {
				return nil, &RemoteError{Msg: string(rep)}
			}
			return rep, nil
		}
	}
}

// Probe performs a liveness/RTT exchange with dst using dedicated probe
// packets (no handler involvement on the peer).
func (n *Node) Probe(dst string, timeout time.Duration) error {
	peer := n.mon.Peer(dst)

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	n.seq++
	seq := n.seq
	replies := simtime.NewQueue[inbound](n.clock)
	n.pending[seq] = replies
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.pending, seq)
		n.mu.Unlock()
	}()

	deadline := n.clock.Now().Add(timeout)
	rto := peer.RTO()
	for {
		n.sendPacket(dst, kindProbe, 0, seq, n.ticks(), 0, n.inc, obs.SpanContext{}, nil)
		remain := deadline.Sub(n.clock.Now())
		if remain <= 0 {
			return fmt.Errorf("%w: probe %s", ErrTimeout, dst)
		}
		wait := rto
		if wait > remain {
			wait = remain
		}
		if _, ok := replies.GetTimeout(wait); ok {
			return nil
		}
		rto *= 2
		if rto > netmon.MaxRTO {
			rto = netmon.MaxRTO
		}
	}
}

func (n *Node) recvLoop() {
	for {
		payload, src, ok := n.conn.Recv()
		if !ok {
			return
		}
		n.mon.Peer(src).Heard()
		if len(payload) == 0 {
			continue
		}
		if payload[0] == kindSFTP {
			n.engine.Deliver(src, payload[1:])
			continue
		}
		kind, flags, seq, ts, tsEcho, inc, sc, body, ok := decodePacket(payload)
		if !ok {
			continue
		}
		switch kind {
		case kindReq:
			n.handleRequest(src, flags, seq, ts, inc, sc, body)
		case kindRep, kindBusy:
			if inc != n.inc {
				continue // reply addressed to a previous incarnation of this node
			}
			n.mu.Lock()
			q := n.pending[seq]
			n.mu.Unlock()
			if q != nil {
				q.Put(inbound{kind: kind, flags: flags, tsEcho: tsEcho, inc: inc, body: body, src: src})
			}
		case kindProbe:
			n.sendPacket(src, kindProbeAck, 0, seq, n.ticks(), ts, inc, obs.SpanContext{}, nil)
		case kindProbeAck:
			if inc != n.inc {
				continue
			}
			n.observeEcho(n.mon.Peer(src), tsEcho)
			n.mu.Lock()
			q := n.pending[seq]
			n.mu.Unlock()
			if q != nil {
				q.Put(inbound{kind: kind, tsEcho: tsEcho, inc: inc, src: src})
			}
		}
	}
}

func (n *Node) handleRequest(src string, flags byte, seq uint64, ts, inc uint32, sc obs.SpanContext, body []byte) {
	n.mu.Lock()
	pc := n.replyCache[src]
	if pc == nil || pc.inc != inc {
		// First contact, or the peer restarted and began a new sequence
		// space: a fresh cache, abandoning the old incarnation's entries.
		// Handlers still running for the old cache write their replies
		// into the orphaned object, where no new-incarnation sequence
		// number can ever collide with them.
		pc = &peerCache{inc: inc, inProgress: make(map[uint64]bool), replies: make(map[uint64]wireReply)}
		n.replyCache[src] = pc
	}
	if rep, done := pc.replies[seq]; done {
		n.mu.Unlock()
		n.met.dupReplies.Inc()
		n.sendPacket(src, kindRep, rep.flags, seq, n.ticks(), ts, inc, obs.SpanContext{}, rep.body)
		return
	}
	if pc.inProgress[seq] {
		n.mu.Unlock()
		n.sendPacket(src, kindBusy, 0, seq, n.ticks(), ts, inc, obs.SpanContext{}, nil)
		return
	}
	pc.inProgress[seq] = true
	n.mu.Unlock()

	n.clock.Go(func() {
		reqBody := body
		if flags&flagBodyViaSFTP != 0 {
			var err error
			reqBody, err = n.engine.Await(src, reqXferID(seq), sftpAwaitSlack)
			if err != nil {
				n.mu.Lock()
				delete(pc.inProgress, seq)
				n.mu.Unlock()
				return // client will retry or give up
			}
		}

		n.met.handled.Inc()
		var repFlags byte
		var repBody []byte
		if n.handler == nil {
			repFlags = flagAppError
			repBody = []byte("no handler")
		} else if out, err := n.handler(src, sc, reqBody); err != nil {
			repFlags = flagAppError
			repBody = []byte(err.Error())
		} else {
			repBody = out
		}

		wire := repBody
		if len(repBody) > InlineLimit {
			// The reply side effect carries the caller's context so the
			// receive lands in the caller's rpc2_call span.
			if err := n.engine.Send(src, repXferID(seq), repBody, sc); err != nil {
				n.mu.Lock()
				delete(pc.inProgress, seq)
				n.mu.Unlock()
				return
			}
			repFlags |= flagBodyViaSFTP
			wire = nil
		}

		n.mu.Lock()
		delete(pc.inProgress, seq)
		pc.replies[seq] = wireReply{flags: repFlags, body: wire}
		pc.order = append(pc.order, seq)
		if len(pc.order) > 256 {
			delete(pc.replies, pc.order[0])
			pc.order = pc.order[1:]
		}
		n.mu.Unlock()
		n.sendPacket(src, kindRep, repFlags, seq, n.ticks(), ts, inc, obs.SpanContext{}, wire)
	})
}

// incarnation derives a node's birth stamp from its clock: truncated
// microseconds since the Unix epoch, never zero. Two incarnations of the
// same address collide only if created within the same microsecond or
// exactly 2^32 µs (~71 minutes) apart — a reboot cannot do either.
func incarnation(clock simtime.Clock) uint32 {
	v := uint32(clock.Now().UnixNano() / int64(time.Microsecond))
	if v == 0 {
		v = 1
	}
	return v
}

// ticks returns the node's clock as truncated microseconds for timestamp
// echoing. Wraparound (~71 minutes) is handled by unsigned subtraction.
func (n *Node) ticks() uint32 {
	return uint32(n.clock.Now().Sub(n.epoch) / time.Microsecond)
}

func (n *Node) observeEcho(peer *netmon.Peer, tsEcho uint32) {
	if tsEcho == 0 {
		return
	}
	delta := n.ticks() - tsEcho // wraps correctly
	if delta < 1<<31 {
		n.met.rtt.Observe(int64(delta))
		peer.ObserveRTT(time.Duration(delta) * time.Microsecond)
	}
}

// Transfer-ID spaces: request bodies, reply bodies, and user transfers must
// not collide on (peer, id).
func reqXferID(seq uint64) uint64 { return seq << 2 }
func repXferID(seq uint64) uint64 { return seq<<2 | 1 }
func userXferID(id uint64) uint64 { return id<<2 | 2 }

// packetHeader is the framed size of everything before the body:
// kind(1) flags(1) seq(8) ts(4) tsEcho(4) inc(4) trace(8) span(8).
// The trailing 16 bytes are the span context (PR 9); all-zero means
// the packet is untraced.
const packetHeader = 38

// appendPacket frames one packet into dst (the caller owns the buffer)
// and returns the extended slice.
//
//codalint:hotpath rpc2 wire framing
func appendPacket(dst []byte, kind, flags byte, seq uint64, ts, tsEcho, inc uint32, sc obs.SpanContext, body []byte) []byte {
	dst = append(dst, kind, flags)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, ts)
	dst = binary.BigEndian.AppendUint32(dst, tsEcho)
	dst = binary.BigEndian.AppendUint32(dst, inc)
	dst = binary.BigEndian.AppendUint64(dst, sc.Trace)
	dst = binary.BigEndian.AppendUint64(dst, sc.Span)
	return append(dst, body...)
}

// sendPacket frames one packet into a pooled buffer and hands it to the
// conn. PacketConn.Send must not retain the payload, so the buffer goes
// straight back to the pool: steady-state sends touch the heap zero
// times (pinned by BenchmarkAllocSendPacket and the benchgate). The
// span context is two fixed header words — propagation costs no
// allocations either way.
//
//codalint:hotpath rpc2 wire framing
func (n *Node) sendPacket(dst string, kind, flags byte, seq uint64, ts, tsEcho, inc uint32, sc obs.SpanContext, body []byte) {
	bp := bufpool.Get(packetHeader + len(body))
	*bp = appendPacket(*bp, kind, flags, seq, ts, tsEcho, inc, sc, body)
	_ = n.conn.Send(dst, *bp)
	bufpool.Put(bp)
}

// sendSFTP frames an SFTP fragment under the mux tag. This is the
// engine's ship callback: it fires once per fragment of every bulk
// transfer, the hottest send path in the system.
//
//codalint:hotpath sftp mux framing
func (n *Node) sendSFTP(dst string, payload []byte) error {
	bp := bufpool.Get(1 + len(payload))
	*bp = append(*bp, kindSFTP)
	*bp = append(*bp, payload...)
	err := n.conn.Send(dst, *bp)
	bufpool.Put(bp)
	return err
}

// decodePacket splits a framed packet; body aliases p, nothing is
// copied. Input shorter than the header, or whose kind byte names no
// rpc2 packet kind, is rejected with ok=false.
//
//codalint:hotpath rpc2 wire parsing
func decodePacket(p []byte) (kind, flags byte, seq uint64, ts, tsEcho, inc uint32, sc obs.SpanContext, body []byte, ok bool) {
	if len(p) < packetHeader || p[0] < kindReq || p[0] > kindProbeAck {
		return
	}
	sc.Trace = binary.BigEndian.Uint64(p[22:])
	sc.Span = binary.BigEndian.Uint64(p[30:])
	return p[0], p[1], binary.BigEndian.Uint64(p[2:]),
		binary.BigEndian.Uint32(p[10:]), binary.BigEndian.Uint32(p[14:]),
		binary.BigEndian.Uint32(p[18:]), sc, p[packetHeader:], true
}

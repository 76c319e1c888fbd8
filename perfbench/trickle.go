package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/codafs"
	"repro/internal/crashfs"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/venus"
	"repro/internal/wal"
)

// weak-trickle: the paper's central path. A client warms its cache over
// Ethernet, is forced write-disconnected behind a 9.6 kb/s modem to every
// member of a 3-replica group, and replays each Figure 11 trace segment
// (λ = 1 s, A = 600 s, 3 ms per operation, as Figure 12 does), twice,
// from two generated instances. The timed phase runs from the first
// replayed operation until the CML is empty and every replica's log
// position agrees. Replays run one after another, each in its own
// simulated world.

const (
	trickleMembers = 3
	trickleAging   = 600 * time.Second
	trickleOpCost  = 3 * time.Millisecond
	// trickleInstances is how many generated instances of each segment a
	// round replays; one instance's write volume varies by ±10 % with
	// the seed, and the round's work should not.
	trickleInstances = 2
	// trickleDrainLimit bounds the simulated wait for the CML to empty; a
	// segment that has not drained by then counts as a failure.
	trickleDrainLimit = 12 * time.Hour
)

func runTrickle(seed int64, p *probe) roundResult {
	var r roundResult
	for i := int64(0); i < trickleInstances; i++ {
		for _, seg := range trace.SegmentNames {
			trickleSegment(seed*1000+i, seg, p, &r)
		}
	}
	return r
}

func trickleSegment(seed int64, seg string, p *probe, r *roundResult) {
	p.startSetup()
	tr := trace.Generate(trace.SegmentPreset(seg, seed))
	sim := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(sim, seed)
	net.SetDefaults(netsim.Ethernet.Params())
	reg := p.registry(sim)
	conns := make([]netsim.PacketConn, trickleMembers)
	for i := range conns {
		conns[i] = p.conn(net.Host(fmt.Sprintf("srv%d", i)))
	}
	grp, err := group.New(sim, conns, group.WithObs(reg))
	if err != nil {
		r.abort("%s: group: %v", seg, err)
		return
	}
	for i := 0; i < trickleMembers; i++ {
		opts := server.JournalOptions{FS: p.fs(crashfs.NewMem()), Dir: "sj", Policy: wal.SyncEachRecord}
		if _, err := grp.Member(i).AttachJournal(opts); err != nil {
			r.abort("%s: journal: %v", seg, err)
			return
		}
	}
	if err := grp.Each(func(s *server.Server) error { return trace.SeedServer(s, tr) }); err != nil {
		r.abort("%s: seed: %v", seg, err)
		return
	}
	addrs := grp.Addrs()
	linkBytes := func() int64 {
		var n int64
		for _, a := range addrs {
			n += net.StatsBetween("client", a).BytesSent + net.StatsBetween(a, "client").BytesSent
		}
		return n
	}

	sim.Run(func() {
		v := venus.New(sim, p.conn(net.Host("client")), venus.Config{
			Servers:              addrs,
			ClientID:             1,
			CacheBytes:           1 << 30,
			AgingWindow:          trickleAging,
			PinWriteDisconnected: true,
			Obs:                  reg,
		})
		defer func() {
			// Closing first and then letting simulated time pass lets
			// every daemon wake, see the close and exit, so no round
			// leaves goroutines holding its world.
			v.Close()
			grp.Close()
			sim.Sleep(time.Hour)
		}()
		if err := v.Mount(tr.Volume); err != nil {
			r.abort("%s: mount: %v", seg, err)
			return
		}
		v.HoardAdd(codafs.JoinPath(tr.Volume), 600, true)
		if err := v.HoardWalk(); err != nil {
			r.abort("%s: warm: %v", seg, err)
			return
		}
		v.WriteDisconnect()
		for _, a := range addrs {
			net.SetLink("client", a, netsim.Modem.Params())
		}
		v.Connect(netsim.Modem.Bandwidth)
		link0 := linkBytes()

		p.begin()
		start := sim.Now()
		st := trace.Replay(sim, v, tr, trace.ReplayOpts{Lambda: time.Second, OpCost: trickleOpCost})
		replayed := sim.Now()
		deadline := replayed.Add(trickleDrainLimit)
		for (v.CMLRecords() > 0 || !lsnsAgree(grp, tr.Volume)) && sim.Now().Before(deadline) {
			sim.Sleep(time.Second)
		}
		p.end()

		r.Ops += int64(st.Ops)
		r.SimFG += replayed.Sub(start)
		r.SimDrain += sim.Now().Sub(replayed)
		r.SimElapsed += sim.Now().Sub(start)
		r.LinkBytes += linkBytes() - link0
		for _, rec := range tr.Records {
			if rec.Op == trace.OpWrite {
				r.UserBytes += int64(rec.Size)
				r.StoredBytes += int64(rec.Size)
			}
		}
		for i := 0; i < st.Errors; i++ {
			r.fail("%s: replay operation failed", seg)
		}
		for i := 0; i < st.CacheMisses; i++ {
			r.fail("%s: replay cache miss on a hoarded file", seg)
		}
		r.check(v.CMLRecords() == 0, "%s: CML holds %d records after the drain limit", seg, v.CMLRecords())
		r.check(lsnsAgree(grp, tr.Volume), "%s: replica log positions disagree", seg)
	})
	p.collect()
	checkTraceState(seg, tr, grp, r)
}

// lsnsAgree reports whether every member's log position for vol is equal.
func lsnsAgree(grp *group.Group, vol string) bool {
	var first uint64
	for i, s := range grp.Servers() {
		lsn, _, err := s.VolumeLSN(vol)
		if err != nil {
			return false
		}
		if i == 0 {
			first = lsn
		} else if lsn != first {
			return false
		}
	}
	return true
}

// checkTraceState is the weak-trickle oracle. From the trace alone it
// derives the final contents every written file must have — the replay
// stores Size zero bytes per write, temporary files are removed — and
// checks each on every replica; then it checks the replicas' state images
// are byte-identical.
func checkTraceState(seg string, tr *trace.Trace, grp *group.Group, r *roundResult) {
	final := map[string]int{} // path → size of its last write; -1 once removed
	for _, rec := range tr.Records {
		switch rec.Op {
		case trace.OpWrite:
			final[rec.Path] = rec.Size
		case trace.OpRemove:
			final[rec.Path] = -1
		}
	}
	for i, s := range grp.Servers() {
		for path, size := range final {
			rel := strings.TrimPrefix(path, codafs.JoinPath(tr.Volume)+"/")
			data, err := s.ReadFile(tr.Volume, rel)
			if size < 0 {
				r.check(err != nil, "%s: member %d still holds removed %s", seg, i, path)
				continue
			}
			r.check(err == nil && len(data) == size && allZero(data),
				"%s: member %d: %s reads back %d bytes (err %v), want %d zero bytes", seg, i, path, len(data), err, size)
		}
	}
	var first []byte
	for i, s := range grp.Servers() {
		var img bytes.Buffer
		if err := s.SaveState(&img); err != nil {
			r.abort("%s: member %d: save state: %v", seg, i, err)
			continue
		}
		if i == 0 {
			first = img.Bytes()
			continue
		}
		r.check(bytes.Equal(img.Bytes(), first), "%s: member %d state image differs from member 0", seg, i)
	}
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

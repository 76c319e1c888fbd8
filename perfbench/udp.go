package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/codafs"
	"repro/internal/crashfs"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/venus"
	"repro/internal/wal"
)

// udp-connected: the real clock and real UDP sockets on loopback. One
// journaled server and two Venus clients, each in a closed loop, over one
// shared volume. The desktop reads, stats and writes through; the laptop
// repeatedly disconnects, logs 8 stores, reconnects and forces
// reintegration, reading in between. Each client writes only its own
// files (shared writes would produce update/update conflicts), and both
// read all of them, so writes break the other client's callbacks.

const (
	udpVolume       = "shared"
	udpFilesPerUser = 12
	udpCycleWrites  = 8
	udpCycleReads   = 4
	// udpRoundLoop is how long one round's closed loops run.
	udpRoundLoop = 2 * time.Second
)

// udpSizes cycle over each user's files: 512 B bodies travel inline in
// the RPC (rpc2.InlineLimit is 1 KB), 4 KB and 64 KB ones by SFTP.
var udpSizes = []int{512, 4 << 10, 64 << 10}

type udpFile struct {
	rel  string
	size int
}

// udpUser is one client's closed loop state.
type udpUser struct {
	v    *venus.Venus
	rng  *rand.Rand
	own  []udpFile
	last map[string][]byte // rel → contents of its last successful write
	r    roundResult
	all  []udpFile
}

func (u *udpUser) content(size int) []byte {
	b := make([]byte, size)
	_, _ = u.rng.Read(b) // math/rand.Read never fails
	return b
}

func (u *udpUser) read(kind string) {
	f := u.all[u.rng.Intn(len(u.all))]
	start := wall.Now()
	_, err := u.v.ReadFile(codafs.JoinPath(udpVolume, f.rel))
	u.r.lat(kind, since(start))
	u.r.op(err, "read %s", f.rel)
	u.r.UserBytes += int64(f.size)
}

func (u *udpUser) write(kind string) {
	f := u.own[u.rng.Intn(len(u.own))]
	data := u.content(f.size)
	start := wall.Now()
	err := u.v.WriteFile(codafs.JoinPath(udpVolume, f.rel), data)
	u.r.lat(kind, since(start))
	u.r.op(err, "write %s", f.rel)
	if err == nil {
		u.last[f.rel] = data
	}
	u.r.UserBytes += int64(f.size)
	u.r.StoredBytes += int64(f.size)
}

// desktop: 50 % ReadFile, 20 % Stat, 30 % write-through WriteFile.
func (u *udpUser) desktopStep() {
	switch x := u.rng.Float64(); {
	case x < 0.5:
		u.read("read")
	case x < 0.7:
		f := u.all[u.rng.Intn(len(u.all))]
		_, err := u.v.Stat(codafs.JoinPath(udpVolume, f.rel))
		u.r.op(err, "stat %s", f.rel)
	default:
		u.write("write")
	}
}

// laptopCycle: disconnect, log 8 stores, reconnect, force reintegration
// (timed), then read.
func (u *udpUser) laptopCycle() {
	start := wall.Now()
	u.v.Disconnect()
	for i := 0; i < udpCycleWrites; i++ {
		u.write("logged")
	}
	u.v.Connect(0)
	rs := wall.Now()
	err := u.v.ForceReintegrate()
	u.r.lat("reint", since(rs))
	u.r.op(err, "reintegrate")
	for i := 0; i < udpCycleReads; i++ {
		u.read("laptop_read")
	}
	u.r.Cycles = append(u.r.Cycles, since(start))
}

func runUDP(seed int64, p *probe) roundResult {
	var r roundResult
	p.startSetup()
	clock := simtime.Real{}
	reg := p.registry(clock)
	listen := func() netsim.PacketConn {
		c, err := netsim.ListenUDP("127.0.0.1:0")
		if err != nil {
			r.abort("listen: %v", err)
			return nil
		}
		return p.conn(c)
	}
	sconn := listen()
	if sconn == nil {
		return r
	}
	srv := server.New(clock, sconn, server.WithObs(reg))
	// Each round runs in its own process, so what the server's daemons
	// still hold after the close is freed when the round exits.
	defer srv.Close()
	opts := server.JournalOptions{FS: p.fs(crashfs.NewMem()), Dir: "sj", Policy: wal.SyncEachRecord}
	if _, err := srv.AttachJournal(opts); err != nil {
		r.abort("journal: %v", err)
		return r
	}
	if _, err := srv.CreateVolume(udpVolume); err != nil {
		r.abort("volume: %v", err)
		return r
	}

	seedRng := rand.New(rand.NewSource(seed))
	var all []udpFile
	owned := map[string][]udpFile{}
	for _, owner := range []string{"desktop", "laptop"} {
		for i := 0; i < udpFilesPerUser; i++ {
			f := udpFile{fmt.Sprintf("%s/f%02d", owner, i), udpSizes[i%len(udpSizes)]}
			data := make([]byte, f.size)
			_, _ = seedRng.Read(data) // never fails
			if _, err := srv.WriteFile(udpVolume, f.rel, data); err != nil {
				r.abort("seed %s: %v", f.rel, err)
				return r
			}
			all = append(all, f)
			owned[owner] = append(owned[owner], f)
		}
	}

	var users []*udpUser
	for i, owner := range []string{"desktop", "laptop"} {
		conn := listen()
		if conn == nil {
			return r
		}
		v := venus.New(clock, conn, venus.Config{Server: srv.Addr(), ClientID: uint32(i + 1), Obs: reg})
		defer v.Close()
		u := &udpUser{
			v:    v,
			rng:  rand.New(rand.NewSource(seed*2 + int64(i) + 1)),
			own:  owned[owner],
			all:  all,
			last: map[string][]byte{},
		}
		if err := v.Mount(udpVolume); err != nil {
			r.abort("%s: mount: %v", owner, err)
			return r
		}
		// Warm the whole volume: a miss on an uncached file while the
		// laptop is disconnected is specified behaviour, not a failure.
		for _, f := range all {
			if _, err := v.ReadFile(codafs.JoinPath(udpVolume, f.rel)); err != nil {
				r.abort("%s: warm %s: %v", owner, f.rel, err)
				return r
			}
		}
		users = append(users, u)
	}
	desktop, laptop := users[0], users[1]

	p.begin()
	clockStart := clock.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(step func()) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				step()
			}
		}
	}
	wg.Add(2)
	go loop(desktop.desktopStep)
	go loop(laptop.laptopCycle)
	clock.Sleep(udpRoundLoop)
	close(stop)
	wg.Wait()
	r.SimElapsed = clock.Now().Sub(clockStart)
	p.end()

	for _, u := range users {
		r.merge(&u.r)
	}
	// Oracle: every file a client last wrote reads back byte-exact from
	// the server, and neither client has records left to reintegrate.
	for _, u := range users {
		for rel, want := range u.last {
			got, err := srv.ReadFile(udpVolume, rel)
			r.check(err == nil && bytes.Equal(got, want), "server holds %s wrong (err %v)", rel, err)
		}
		r.check(u.v.CMLRecords() == 0, "client %s: CML holds %d records", u.v.Addr(), u.v.CMLRecords())
	}
	p.collect()
	return r
}

package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/codafs"
	"repro/internal/crashfs"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/simtime"
	"repro/internal/venus"
	"repro/internal/wal"
)

// bulk-hoard: one journaled server on Ethernet, one client that hoard-walks
// a file set of 1, 4 and 16 MB files and then stores new contents for
// half of each size class, write-through. Large bodies make SFTP
// reassembly and per-byte copies the dominant cost while rpc2 makes few
// calls. The timed phase is the walk plus the stores.

const hoardVolume = "bulk"

// hoardClasses is the file set: count of files per size. Each class
// writes back ceil(count/2) files, so every size is both read and stored.
var hoardClasses = []struct{ size, count int }{
	{1 << 20, 4},
	{4 << 20, 2},
	{16 << 20, 1},
}

type hoardFile struct {
	name      string
	orig      []byte
	rewrite   []byte // nil when the file is not written back
	finalData []byte
}

// hoardFiles generates the file set and its write-back contents from seed.
func hoardFiles(seed int64) []hoardFile {
	rng := rand.New(rand.NewSource(seed))
	var files []hoardFile
	for _, c := range hoardClasses {
		chosen := rng.Perm(c.count)[:(c.count+1)/2]
		for i := 0; i < c.count; i++ {
			f := hoardFile{name: fmt.Sprintf("s%d/f%d", c.size>>20, i), orig: make([]byte, c.size)}
			_, _ = rng.Read(f.orig) // math/rand.Read never fails
			f.finalData = f.orig
			files = append(files, f)
		}
		base := len(files) - c.count
		for _, i := range chosen {
			f := &files[base+i]
			f.rewrite = make([]byte, c.size)
			_, _ = rng.Read(f.rewrite) // math/rand.Read never fails
			f.finalData = f.rewrite
		}
	}
	return files
}

func runHoard(seed int64, p *probe) roundResult {
	var r roundResult
	p.startSetup()
	files := hoardFiles(seed)
	sim := simtime.NewSim(simtime.Epoch1995)
	net := netsim.New(sim, seed)
	net.SetDefaults(netsim.Ethernet.Params())
	reg := p.registry(sim)
	srv := server.New(sim, p.conn(net.Host("server")), server.WithObs(reg))
	opts := server.JournalOptions{FS: p.fs(crashfs.NewMem()), Dir: "sj", Policy: wal.SyncEachRecord}
	if _, err := srv.AttachJournal(opts); err != nil {
		r.abort("journal: %v", err)
		return r
	}
	if _, err := srv.CreateVolume(hoardVolume); err != nil {
		r.abort("volume: %v", err)
		return r
	}
	for _, f := range files {
		if _, err := srv.WriteFile(hoardVolume, f.name, f.orig); err != nil {
			r.abort("seed %s: %v", f.name, err)
			return r
		}
	}
	linkBytes := func() int64 {
		return net.StatsBetween("client", "server").BytesSent + net.StatsBetween("server", "client").BytesSent
	}

	sim.Run(func() {
		v := venus.New(sim, p.conn(net.Host("client")), venus.Config{
			Server:     "server",
			ClientID:   1,
			CacheBytes: 1 << 30,
			Obs:        reg,
		})
		defer func() {
			v.Close()
			srv.Close()
			sim.Sleep(time.Hour) // let every daemon see the close and exit
		}()
		if err := v.Mount(hoardVolume); err != nil {
			r.abort("mount: %v", err)
			return
		}
		link0 := linkBytes()

		p.begin()
		start := sim.Now()
		v.HoardAdd(codafs.JoinPath(hoardVolume), 600, true)
		if err := v.HoardWalk(); err != nil {
			r.fail("hoard walk: %v", err)
		}
		for _, f := range files {
			r.Ops++ // the walk's fetch of f
			r.UserBytes += int64(len(f.orig))
			if f.rewrite == nil {
				continue
			}
			r.op(v.WriteFile(codafs.JoinPath(hoardVolume, f.name), f.rewrite), "store %s", f.name)
			r.UserBytes += int64(len(f.rewrite))
			r.StoredBytes += int64(len(f.rewrite))
		}
		r.SimFG = sim.Now().Sub(start)
		r.SimElapsed = r.SimFG
		p.end()
		r.LinkBytes = linkBytes() - link0

		// Oracle: the client's cache and the server both hold every file's
		// final contents, and nothing is left to reintegrate.
		for _, f := range files {
			got, err := v.ReadFile(codafs.JoinPath(hoardVolume, f.name))
			r.check(err == nil && bytes.Equal(got, f.finalData), "client reads %s wrong (err %v)", f.name, err)
			got, err = srv.ReadFile(hoardVolume, f.name)
			r.check(err == nil && bytes.Equal(got, f.finalData), "server holds %s wrong (err %v)", f.name, err)
		}
		r.check(v.CMLRecords() == 0, "CML holds %d records", v.CMLRecords())
	})
	p.collect()
	return r
}

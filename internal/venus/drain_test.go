package venus_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/venus"
)

// TestForceReintegrateWhileTrickleWakes is the "about to hang up the
// phone" path (§4.3.2) over a 9.6 Kb/s modem: a ForceReintegrate chunk
// is parked in its RPC for longer than one trickle interval, so the
// volume's trickle loop wakes and contends for the drain while the
// chunk is in flight. The contender must park on the simulated clock;
// if it blocks outside it, virtual time stops and the simulation
// freezes. The bound below is real time, so a freeze fails the test
// instead of running into the go test timeout.
func TestForceReintegrateWhileTrickleWakes(t *testing.T) {
	w := newWorld(t)
	w.seed("usr", nil)
	w.setLink("c1", netsim.Modem)
	data := bytes.Repeat([]byte("x"), 8<<10)
	const interval = time.Second

	done := make(chan struct{})
	go func() {
		defer close(done)
		w.sim.Run(func() {
			v := w.venus("c1", venus.Config{AgingWindow: time.Hour, TrickleInterval: interval})
			if err := v.Mount("usr"); err != nil {
				t.Errorf("mount: %v", err)
				return
			}
			v.Connect(9600)
			if v.State() != venus.WriteDisconnected {
				t.Errorf("state = %v on a modem, want write-disconnected", v.State())
				return
			}
			if err := v.WriteFile("/coda/usr/late", data); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			start := w.sim.Now()
			if err := v.ForceReintegrate(); err != nil {
				t.Errorf("ForceReintegrate: %v", err)
			}
			if took := w.sim.Now().Sub(start); took <= interval {
				t.Errorf("chunk took %v of sim time, not longer than the %v trickle interval: the trickle loop never contended", took, interval)
			}
			if n := v.CMLRecords(); n != 0 {
				t.Errorf("CML holds %d records after ForceReintegrate", n)
			}
			if got, err := w.srv.ReadFile("usr", "late"); err != nil || !bytes.Equal(got, data) {
				t.Errorf("server late = %d bytes, %v; want the %d-byte write", len(got), err, len(data))
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("simulation froze: ForceReintegrate never returned while the trickle loop contended for the drain")
	}
}

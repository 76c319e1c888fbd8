package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
)

func TestModuleOfInnermostRepoFrame(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"gob counts under wire", []string{
			"encoding/gob.(*Encoder).encodeStruct",
			"encoding/gob.(*Encoder).Encode",
			"repro/internal/wire.Encode",
			"repro/internal/rpc2.(*Node).Call",
			"repro/internal/venus.(*Venus).WriteFile",
		}, "wire"},
		{"mallocgc counts under its caller", []string{
			"runtime.mallocgc",
			"runtime.makeslice",
			"repro/internal/sftp.(*Engine).deliverData",
			"repro/internal/rpc2.(*Node).recvLoop",
		}, "sftp"},
		{"generic method and closure", []string{
			"repro/internal/simtime.(*Queue[go.shape.struct {}]).get.func1",
			"repro/internal/server.(*Server).ship",
		}, "simtime"},
		{"runtime only", []string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{"benchmark harness only", []string{"main.(*probe).end", "main.main"}, "runtime"},
		{"empty stack", nil, "runtime"},
	}
	for _, c := range cases {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("%s: moduleOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	p := &profile{
		sampleTypes: []string{"samples/count", "cpu/nanoseconds"},
		samples: []profileSample{
			{[]int64{3, 30}, []string{"encoding/gob.(*Decoder).Decode", "repro/internal/wire.Decode"}},
			{[]int64{1, 10}, []string{"runtime.scanobject", "runtime.gcDrain"}},
			{[]int64{2, 20}, []string{"repro/internal/codafs.JoinPath", "repro/internal/venus.(*Venus).resolve"}},
			{[]int64{4, 40}, []string{"repro/internal/simtime.(*Sim).Sleep"}},
		},
	}
	acc := newLayerAcc()
	acc.Rounds = 1
	for mod, ns := range byModule(p, p.valueIndex("cpu")) {
		acc.Cpu[mod] += ns
	}
	v := acc.values()
	want := map[string]float64{"wire": 0.3, "runtime": 0.1, "other": 0.2, "simtime": 0.4}
	sum := 0.0
	for _, m := range cpuModules {
		share := v[m+".cpu_share"]
		sum += share
		if math.Abs(share-want[m]) > 1e-12 {
			t.Errorf("%s.cpu_share = %v, want %v", m, share, want[m])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("cpu shares sum to %v, want 1", sum)
	}
}

func TestDecodeHeapProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.valueIndex("alloc_space") < 0 {
		t.Fatalf("heap profile sample types %v lack alloc_space", p.sampleTypes)
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decodeProfile accepted garbage")
	}
}

// TestTracedRunPassesThrough runs each simulated workload once untraced
// and once with every wrapper, registry and profiler attached. The
// wrappers only count, so the simulated outcome must be the same.
func TestTracedRunPassesThrough(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full rounds")
	}
	const seed = 1
	for _, w := range workloads {
		if !w.sim {
			continue
		}
		w := w
		t.Run(w.name, func(t *testing.T) {
			plain := runRound(&w, seed, false)
			traced := runRound(&w, seed, true)
			for _, rd := range []round{plain, traced} {
				for _, f := range rd.Res.Failures {
					t.Errorf("traced=%v: %s", rd.Traced, f)
				}
			}
			if plain.Res.SimFG != traced.Res.SimFG || plain.Res.SimDrain != traced.Res.SimDrain || plain.Res.LinkBytes != traced.Res.LinkBytes {
				t.Errorf("untraced sim_fg=%v sim_drain=%v link=%dB; traced sim_fg=%v sim_drain=%v link=%dB",
					plain.Res.SimFG, plain.Res.SimDrain, plain.Res.LinkBytes,
					traced.Res.SimFG, traced.Res.SimDrain, traced.Res.LinkBytes)
			}
			if traced.Layers.NetCalls == 0 || traced.Layers.DiskSyncs == 0 || len(traced.Layers.Cpu) == 0 {
				t.Errorf("traced round measured nothing: %d packets, %d syncs, %d CPU modules",
					traced.Layers.NetCalls, traced.Layers.DiskSyncs, len(traced.Layers.Cpu))
			}
		})
	}
}

// TestUDPRound runs one traced udp-connected round over loopback: both
// clients' loops, the wrappers and the oracle, concurrently.
func TestUDPRound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full round")
	}
	rd := runRound(&workloads[0], 1, true)
	for _, f := range rd.Res.Failures {
		t.Error(f)
	}
	if rd.Res.Ops == 0 || len(rd.Res.Cycles) == 0 || rd.Layers.NetCalls == 0 {
		t.Errorf("round did nothing: %d ops, %d laptop cycles, %d packets", rd.Res.Ops, len(rd.Res.Cycles), rd.Layers.NetCalls)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and
// metrics in step with what the program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}
	var gated []layerMetric
	for _, m := range endToEnd(&workloads[0], nil) {
		if m.gated {
			gated = append(gated, layerMetric{m.name, m.unit, m.better})
		}
	}
	if len(b.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program gates %d", len(b.EndToEnd), len(gated))
	}
	for i, m := range gated {
		if got := b.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, got, m)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := b.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, got, m)
		}
	}
}

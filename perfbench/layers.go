package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/obs"
)

// layerMetric is one per-layer metric of the traced run. README.md says
// which end-to-end metric, on which workload, each one should move.
type layerMetric struct{ name, unit, better string }

// cpuModules and allocModules name the layers that get a CPU share and
// an allocation total. A profile sample belongs to the innermost frame in
// a repro/internal/<module> package; modules not listed here (codafs,
// netmon, crashfs, bufpool, trace, …) pool into "other", and samples with
// no such frame into "runtime", so the shares sum to 1.
var (
	cpuModules   = []string{"simtime", "netsim", "rpc2", "sftp", "wire", "server", "wal", "group", "venus", "cml", "obs", "runtime", "other"}
	allocModules = []string{"wire", "rpc2", "sftp", "server", "wal", "venus", "netsim", "simtime"}
)

// layerMetrics lists every per-layer metric in report order.
var layerMetrics = func() []layerMetric {
	var ms []layerMetric
	for _, m := range cpuModules {
		ms = append(ms, layerMetric{m + ".cpu_share", "share", "lower"})
	}
	for _, m := range allocModules {
		ms = append(ms, layerMetric{m + ".alloc_mb", "MB", "lower"})
	}
	return append(ms, []layerMetric{
		{"proc.cpu_s", "s", "lower"},
		{"proc.gc_cpu_share", "share", "lower"},
		{"proc.alloc_mb", "MB", "lower"},
		{"obs.trace_overhead_pct", "%", "lower"},
		{"netsim.packets_sent", "count", "lower"},
		{"netsim.send_ns_p50", "ns", "lower"},
		{"netsim.bytes_sent", "bytes", "lower"},
		{"netsim.bytes_per_user_byte", "ratio", "lower"},
		{"rpc2.calls", "count", "lower"},
		{"rpc2.rtt_p50_us", "us", "lower"},
		{"rpc2.retransmit_ratio", "ratio", "lower"},
		{"rpc2.timeouts", "count", "lower"},
		{"sftp.transfers", "count", "lower"},
		{"sftp.data_packets_sent", "count", "lower"},
		{"sftp.retransmit_ratio", "ratio", "lower"},
		{"sftp.window_stalls", "count", "lower"},
		{"wal.syncs", "count", "lower"},
		{"wal.sync_ns_p50", "ns", "lower"},
		{"wal.bytes_written", "bytes", "lower"},
		{"wal.write_amp", "ratio", "lower"},
		{"server.calls", "count", "lower"},
		{"server.records_applied", "count", "lower"},
		{"server.callback_breaks", "count", "lower"},
		{"server.lock_wait_p99_us", "us", "lower"},
		{"group.shipped_entries", "count", "lower"},
		{"group.catchup_records", "count", "lower"},
		{"venus.cache_hit_ratio", "ratio", "higher"},
		{"venus.validations", "count", "lower"},
		{"venus.reintegrations", "count", "lower"},
		{"venus.cml_residency_p50_s", "s", "lower"},
		{"cml.cancelled_bytes_ratio", "ratio", "higher"},
		{"critpath.fragment_serialization_s", "s", "lower"},
		{"critpath.retransmit_s", "s", "lower"},
		{"critpath.server_apply_s", "s", "lower"},
		{"critpath.fsync_s", "s", "lower"},
		{"critpath.other_s", "s", "lower"},
		{"simtime.sim_s_per_wall_s", "s/s", "higher"},
	}...)
}()

// critBuckets are the obs.CriticalPath buckets reported; the other two
// (patience_wait, failover) are folded into critpath.other_s so the five
// reported buckets still sum to the reintegrations' elapsed time.
var critBuckets = []string{"fragment_serialization", "retransmit", "server_apply", "fsync"}

// hist is a merged obs histogram.
type hist struct{ Le, Counts []int64 }

// layerAcc accumulates the traced timed intervals of every round.
type layerAcc struct {
	Rounds      int
	Counters    map[string]int64 // registry counters and gauges, summed over labels
	Hists       map[string]*hist
	Crit        map[string]time.Duration
	NetCalls    int64
	NetBytes    int64
	NetNS       []time.Duration
	DiskSyncs   int64
	DiskBytes   int64
	DiskNS      []time.Duration
	Cpu, Alloc  map[string]int64 // by attributed module
	CpuS        float64
	GcCPU       float64
	UsedCPU     float64
	AllocBytes  float64
	UserBytes   int64 // file content read or written by the workload's operations
	StoredBytes int64 // file content written by them
	SimS, WallS float64
}

func newLayerAcc() layerAcc {
	return layerAcc{
		Counters: map[string]int64{},
		Hists:    map[string]*hist{},
		Crit:     map[string]time.Duration{},
		Cpu:      map[string]int64{},
		Alloc:    map[string]int64{},
	}
}

// addRegistry folds one registry's metrics and critical path in.
func (a *layerAcc) addRegistry(reg *obs.Registry) error {
	var doc struct {
		Metrics []struct {
			Name   string
			Kind   string
			Value  int64
			Le     []int64
			Counts []int64
		}
	}
	if err := json.Unmarshal(reg.Dump(), &doc); err != nil {
		return fmt.Errorf("registry dump: %w", err)
	}
	for _, m := range doc.Metrics {
		if m.Kind != "histogram" {
			a.Counters[m.Name] += m.Value
			continue
		}
		if err := a.addHist(m.Name, m.Le, m.Counts); err != nil {
			return err
		}
	}
	for b, d := range reg.CriticalPath("venus_reintegrate") {
		a.Crit[b] += d
	}
	return nil
}

// addHist adds bucket counts to the named histogram.
func (a *layerAcc) addHist(name string, le, counts []int64) error {
	h := a.Hists[name]
	if h == nil {
		h = &hist{Le: le, Counts: make([]int64, len(counts))}
		a.Hists[name] = h
	}
	if len(counts) != len(h.Counts) {
		return fmt.Errorf("histogram %s: bucket layouts differ", name)
	}
	for i, c := range counts {
		h.Counts[i] += c
	}
	return nil
}

// addBoundaries takes (and resets) the wrapper counts.
func (a *layerAcc) addBoundaries(net, disk *boundary) {
	calls, bytes, ns := net.snapshot()
	a.NetCalls += calls
	a.NetBytes += bytes
	for _, n := range ns {
		a.NetNS = append(a.NetNS, time.Duration(n))
	}
	calls, bytes, ns = disk.snapshot()
	a.DiskSyncs += calls
	a.DiskBytes += bytes
	for _, n := range ns {
		a.DiskNS = append(a.DiskNS, time.Duration(n))
	}
}

// merge adds another round's accumulator.
func (a *layerAcc) merge(b *layerAcc) {
	a.Rounds += b.Rounds
	for k, v := range b.Counters {
		a.Counters[k] += v
	}
	for k, h := range b.Hists {
		_ = a.addHist(k, h.Le, h.Counts) // every round registers the same layouts
	}
	for k, d := range b.Crit {
		a.Crit[k] += d
	}
	a.NetCalls += b.NetCalls
	a.NetBytes += b.NetBytes
	a.NetNS = append(a.NetNS, b.NetNS...)
	a.DiskSyncs += b.DiskSyncs
	a.DiskBytes += b.DiskBytes
	a.DiskNS = append(a.DiskNS, b.DiskNS...)
	for k, v := range b.Cpu {
		a.Cpu[k] += v
	}
	for k, v := range b.Alloc {
		a.Alloc[k] += v
	}
	a.CpuS += b.CpuS
	a.GcCPU += b.GcCPU
	a.UsedCPU += b.UsedCPU
	a.AllocBytes += b.AllocBytes
	a.UserBytes += b.UserBytes
	a.StoredBytes += b.StoredBytes
	a.SimS += b.SimS
	a.WallS += b.WallS
}

func (a *layerAcc) histQ(name string, q float64) float64 {
	h := a.Hists[name]
	if h == nil {
		return 0
	}
	return histQuantile(h.Le, h.Counts, q)
}

// values computes every per-layer metric except obs.trace_overhead_pct,
// which needs the untraced rounds. Counts are per round.
func (a *layerAcc) values() map[string]float64 {
	v := map[string]float64{}
	per := func(n int64) float64 { return ratio(float64(n), float64(a.Rounds)) }
	c := func(name string) float64 { return float64(a.Counters[name]) }

	var cpuTotal int64
	shares := map[string]int64{}
	for mod, ns := range a.Cpu {
		cpuTotal += ns
		key := "other"
		for _, m := range cpuModules {
			if m == mod {
				key = mod
			}
		}
		shares[key] += ns
	}
	for _, m := range cpuModules {
		v[m+".cpu_share"] = ratio(float64(shares[m]), float64(cpuTotal))
	}
	for _, m := range allocModules {
		v[m+".alloc_mb"] = per(a.Alloc[m]) / (1 << 20)
	}

	v["proc.cpu_s"] = ratio(a.CpuS, float64(a.Rounds))
	v["proc.gc_cpu_share"] = ratio(a.GcCPU, a.UsedCPU)
	v["proc.alloc_mb"] = ratio(a.AllocBytes, float64(a.Rounds)) / (1 << 20)

	v["netsim.packets_sent"] = per(a.NetCalls)
	v["netsim.send_ns_p50"] = float64(percentile(a.NetNS, 0.5))
	v["netsim.bytes_sent"] = per(a.NetBytes)
	v["netsim.bytes_per_user_byte"] = ratio(float64(a.NetBytes), float64(a.UserBytes))

	v["rpc2.calls"] = per(a.Counters["rpc2_calls_total"])
	v["rpc2.rtt_p50_us"] = a.histQ("rpc2_rtt_us", 0.5)
	v["rpc2.retransmit_ratio"] = ratio(c("rpc2_retransmits_total"), c("rpc2_calls_total"))
	v["rpc2.timeouts"] = per(a.Counters["rpc2_call_timeouts_total"])

	v["sftp.transfers"] = per(a.Counters["sftp_transfers_total"])
	v["sftp.data_packets_sent"] = per(a.Counters["sftp_data_packets_sent_total"])
	v["sftp.retransmit_ratio"] = ratio(c("sftp_retransmits_total"), c("sftp_data_packets_sent_total"))
	v["sftp.window_stalls"] = per(a.Counters["sftp_window_stalls_total"])

	v["wal.syncs"] = per(a.DiskSyncs)
	v["wal.sync_ns_p50"] = float64(percentile(a.DiskNS, 0.5))
	v["wal.bytes_written"] = per(a.DiskBytes)
	v["wal.write_amp"] = ratio(float64(a.DiskBytes), float64(a.StoredBytes))

	v["server.calls"] = per(a.Counters["server_calls_total"])
	v["server.records_applied"] = per(a.Counters["server_records_applied_total"])
	v["server.callback_breaks"] = per(a.Counters["server_callback_breaks_total"])
	v["server.lock_wait_p99_us"] = a.histQ("server_lock_wait_us", 0.99)

	v["group.shipped_entries"] = per(a.Counters["server_repl_shipped_entries_total"])
	v["group.catchup_records"] = per(a.Counters["server_catchup_records_total"])

	hits, misses := c("venus_cache_hits_total"), c("venus_cache_misses_total")
	v["venus.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["venus.validations"] = per(a.Counters["venus_validations_total"])
	v["venus.reintegrations"] = per(a.Counters["venus_reintegrations_total"])
	v["venus.cml_residency_p50_s"] = a.histQ("venus_cml_residency_s", 0.5)

	cancelled := c("venus_cml_cancelled_bytes_total")
	v["cml.cancelled_bytes_ratio"] = ratio(cancelled, cancelled+c("venus_shipped_bytes_total"))

	var critOther time.Duration
	for b, d := range a.Crit {
		critOther += d
		for _, r := range critBuckets {
			if r == b {
				critOther -= d
			}
		}
	}
	for _, b := range critBuckets {
		v["critpath."+b+"_s"] = ratio(a.Crit[b].Seconds(), float64(a.Rounds))
	}
	v["critpath.other_s"] = ratio(critOther.Seconds(), float64(a.Rounds))

	v["simtime.sim_s_per_wall_s"] = ratio(a.SimS, a.WallS)
	return v
}

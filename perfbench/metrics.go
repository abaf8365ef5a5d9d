package main

import (
	"fmt"
	"math"
	"strings"
)

// metric is one named, unit-carrying number the benchmark reports.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the user-visible metrics of an untraced run. Bounds are
// the share of the parent's median a metric may worsen by; the virtual
// ones are pure functions of the seed, the wall ones carry machine noise.
var endToEnd = []metric{
	{"virt_ops_per_s", "1/s", "higher", 0.1},
	{"virt_lat_p50_us", "us", "lower", 0.15},
	{"virt_lat_tail_us", "us", "lower", 0.2},
	{"virt_goodput_gbps", "Gbit/s", "higher", 0.1},
	{"wall_ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "1/op", "lower", 0.1},
	{"live_heap_mib", "MiB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// sdCalls are the public-API calls the benchmark wraps in spans.
var sdCalls = []string{"dial", "accept", "send", "recv", "close", "sendva", "recvva", "sendbatch", "recvbatch"}

// shareLayers are the CPU-profile buckets; with runtime.gc_share and
// runtime.other_share they sum to 1.
var shareLayers = []string{"sd", "core", "shm", "rdma", "fabric", "monitor", "ctlmsg", "exec", "host", "mem", "bufpool", "obs", "telemetry", "misc", "bench"}

// counter is a per-layer metric read from the telemetry counter deltas
// over the measured window, divided by the ops in it.
type counter struct{ name, key string }

var counters = []counter{
	{"core.send_ops", "sd/core/send_ops"},
	{"core.recv_ops", "sd/core/recv_ops"},
	{"core.recv_sleeps", "sd/core/recv_sleeps"},
	{"core.recv_wakeups", "sd/core/recv_wakeups"},
	{"core.token_fast_path", "sd/core/token/fast_path"},
	{"core.token_takeovers", "sd/core/token/takeovers"},
	{"core.zc_remaps", "sd/core/zc/remaps"},
	{"core.zc_copies", "sd/core/zc/copies"},
	{"core.tcp_fallbacks", "sd/core/tcp_fallbacks"},
	{"shm.msgs_sent", "sd/shm/ring/msgs_sent"},
	{"shm.send_full", "sd/shm/ring/send_full"},
	{"shm.credit_returns", "sd/shm/ring/credit_returns"},
	{"rdma.wqes_posted", "sd/rdma/qp/wqes_posted"},
	{"rdma.packets_tx", "sd/rdma/qp/packets_tx"},
	{"rdma.retransmits", "sd/rdma/qp/retransmits"},
	{"rdma.rnr", "sd/rdma/qp/rnr"},
	{"rdma.qps_created", "sd/rdma/qps_created"},
	{"fabric.tx_frames", "sd/fabric/tx_frames"},
	{"fabric.tx_bytes", "sd/fabric/tx_bytes"},
	{"fabric.drops", "sd/fabric/drops"},
	{"monitor.dispatches", "sd/monitor/dispatches"},
	{"monitor.ctl_msgs", "sd/monitor/ctl_msgs"},
	{"monitor.thread_wakes", "sd/monitor/thread_wakes"},
	{"monitor.hb_sent", "sd/monitor/hb_sent"},
	{"monitor.tokens_granted", "sd/monitor/tokens_granted"},
	{"host.syscalls", "sd/host/syscalls"},
	{"host.copies", "sd/host/copies"},
	{"host.copy_bytes", "sd/host/copy_bytes"},
	{"host.page_remaps", "sd/host/page_remaps"},
	{"host.cow_faults", "sd/host/cow_faults"},
	{"host.process_wakeups", "sd/host/process_wakeups"},
	{"bufpool.gets", "sd/mem/pool/gets"},
	{"obs.spans", "sd/obs/spans"},
	{"obs.dropped", "sd/obs/dropped"},
}

// levels are per-layer metrics read from the registry at the end of a
// round (distributions and high-water marks cover the whole round).
var levels = []counter{
	{"shm.batch_size_p50", "sd/shm/ring/batch_size/p50"},
	{"shm.occupancy_high", "sd/shm/ring/occupancy/hw"},
	{"monitor.dispatch_virt_ns_p50_intra", "sd/monitor/dispatch_ns/intra/p50"},
	{"monitor.dispatch_virt_ns_p50_inter", "sd/monitor/dispatch_ns/inter/p50"},
}

// micros are the per-layer microbenchmarks (see micro.go).
var micros = []string{"exec.handoff_wall_ns", "ctlmsg.codec_wall_ns", "shm.ring_op_wall_ns", "rdma.qp_write_wall_ns", "bufpool.get_put_wall_ns"}

// perLayer lists every metric of a traced run, in output order.
func perLayer() []metric {
	var ms []metric
	for _, c := range sdCalls {
		ms = append(ms,
			metric{Name: "sd." + c + ".calls", Unit: "1/op", Better: "lower"},
			metric{Name: "sd." + c + ".errors", Unit: "1/op", Better: "lower"},
			metric{Name: "sd." + c + ".virt_ns_p50", Unit: "ns", Better: "lower"})
	}
	for _, c := range counters {
		unit := "1/op"
		if strings.HasSuffix(c.name, "_bytes") {
			unit = "B/op"
		}
		ms = append(ms, metric{Name: c.name, Unit: unit, Better: "lower"})
	}
	ms = append(ms,
		metric{Name: "shm.batch_size_p50", Unit: "B", Better: "higher"},
		metric{Name: "shm.occupancy_high", Unit: "B", Better: "lower"},
		metric{Name: "monitor.dispatch_virt_ns_p50_intra", Unit: "ns", Better: "lower"},
		metric{Name: "monitor.dispatch_virt_ns_p50_inter", Unit: "ns", Better: "lower"},
		metric{Name: "bufpool.hit_ratio", Unit: "ratio", Better: "higher"},
		metric{Name: "bufpool.outstanding_end", Unit: "count", Better: "lower"},
		metric{Name: "runtime.gc_cycles", Unit: "1/op", Better: "lower"},
	)
	for _, m := range micros {
		ms = append(ms, metric{Name: m, Unit: "ns", Better: "lower"})
	}
	for _, l := range shareLayers {
		ms = append(ms, metric{Name: l + ".cpu_share", Unit: "ratio", Better: "lower"})
	}
	ms = append(ms,
		metric{Name: "runtime.gc_share", Unit: "ratio", Better: "lower"},
		metric{Name: "runtime.other_share", Unit: "ratio", Better: "lower"},
		metric{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
	)
	return ms
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect orders the computed values by the metric list and fails if one
// is missing or not finite (a round that never opened or closed its
// window), so the output always carries every declared name.
func collect(defs []metric, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v: a round did not complete its window", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

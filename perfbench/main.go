// Command perfbench is the repository's benchmark. It runs one seeded,
// closed-loop workload against a virtual-time two-host sd.Cluster for a
// given number of wall seconds and prints every metric by name and unit,
// ending with one JSON line:
//
//	perfbench --workload rpc_mix --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics on both clocks; --trace 1 is a
// separate run that records spans around every sd call, takes a CPU
// profile, and reports the per-layer metrics. --manifest prints the
// BENCHMARK.json that describes all of this. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// watchdogSlack is how far past --seconds a run may go before it is
// declared stuck.
const watchdogSlack = 90 * time.Second

// result is the last line of the output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: rpc_mix, conn_churn or bulk_stream")
	seed := fs.Uint64("seed", 1, "seed for the cluster and every workload draw")
	seconds := fs.Float64("seconds", 10, "wall seconds to measure for")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	outDir := fs.String("out-dir", filepath.Join(".bench_build", "perfbench-out"), "directory for spans and CPU profiles of traced runs")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		if err := writeManifest(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (rpc_mix, conn_churn, bulk_stream), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	// A wedged simulation cannot be interrupted from outside, so a run
	// that overshoots its budget by far fails instead of hanging.
	watchdog := time.AfterFunc(budget+watchdogSlack, func() {
		fmt.Fprintf(stderr, "perfbench: no result %v after the %v budget; a round is stuck\n", watchdogSlack, budget)
		os.Exit(1)
	})
	defer watchdog.Stop()
	fmt.Fprintf(stdout, "env nproc=%d GOMAXPROCS=%d go=%s seed=%d workload=%s seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, w.name, *seconds, *trace)

	var res result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(w, *seed, budget, stdout)
	} else {
		res, err = runTraced(w, *seed, budget, *outDir, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d ops failed verification\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// runRound runs one round and applies the fast-path checks: a TCP
// fallback anywhere, or a kernel syscall in a data-path window, fails ops.
func runRound(w workload, seed uint64, rec *recorder, setupOnly bool) *round {
	runtime.GC() // start every round from the same heap state
	h, cl := newRound(seed, rec, setupOnly)
	w.build(h)
	r := h.run(cl)
	r.failed += int(r.tel.Get("sd/core/tcp_fallbacks"))
	if w.dataPath {
		r.failed += int(r.tel.Get("sd/host/syscalls"))
	}
	return r
}

// runRounds repeats rounds until the budget would be overrun, always
// running at least min.
func runRounds(w workload, seed uint64, budget time.Duration, min int, rec *recorder) []*round {
	start := time.Now()
	var rs []*round
	var took []time.Duration
	for len(rs) < min || time.Since(start)+medianDuration(took) <= budget {
		t0 := time.Now()
		r := runRound(w, seed, rec, false)
		r.summarize(len(rs) == 0) // the first round keeps its detail
		rs = append(rs, r)
		took = append(took, time.Since(t0))
	}
	return rs
}

// tally folds the rounds' outcomes into the result header.
func tally(rs []*round) result {
	res := result{Correct: true}
	for _, r := range rs {
		res.Attempted += r.expected
		res.Failed += r.failed
		if r.leaked != 0 {
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if res.Failed > res.Attempted { // a failure may touch several checks
		res.Failed = res.Attempted
	}
	return res
}

// minRounds keeps every median over at least this many rounds.
const minRounds = 3

// Before its rounds, an end-to-end run times extra set-ups (cluster,
// monitors, processes and pre-established connections, then a teardown):
// at least setupProbes of them, and more until probeShare of the budget is
// spent, so setup_s is a median over many samples even when one set-up
// takes only milliseconds.
const (
	setupProbes = 9
	probeShare  = 20 // 1/20 of the budget
)

func runEndToEnd(w workload, seed uint64, budget time.Duration, out io.Writer) (result, error) {
	start := time.Now()
	var setups []float64
	var probes []*round
	for len(probes) < setupProbes || time.Since(start) < budget/probeShare {
		r := runRound(w, seed, nil, true)
		r.summarize(false)
		probes = append(probes, r)
		setups = append(setups, r.setupWall.Seconds())
	}
	rs := runRounds(w, seed, budget-time.Since(start), minRounds, nil)
	for _, r := range rs {
		setups = append(setups, r.setupWall.Seconds())
	}
	res := tally(append(probes, rs...))
	got := map[string]float64{
		"virt_ops_per_s":    medianOf(rs, func(r *round) float64 { return float64(r.ops) / (float64(r.virtNs) / 1e9) }),
		"virt_lat_p50_us":   medianOf(rs, func(r *round) float64 { return r.p50Ns / 1e3 }),
		"virt_lat_tail_us":  medianOf(rs, func(r *round) float64 { return r.tailNs / 1e3 }),
		"virt_goodput_gbps": medianOf(rs, func(r *round) float64 { return float64(r.bytes) * 8 / float64(r.virtNs) }),
		"wall_ops_per_s":    medianOf(rs, func(r *round) float64 { return float64(r.ops) / r.windowWall.Seconds() }),
		"allocs_per_op":     medianOf(rs, func(r *round) float64 { return float64(r.allocs) / float64(r.ops) }),
		"live_heap_mib":     medianOf(rs, func(r *round) float64 { return float64(r.liveHeap) / (1 << 20) }),
		"setup_s":           median(setups),
	}
	m, err := collect(endToEnd, got)
	if err != nil {
		return result{}, err
	}
	res.Metrics = m
	n := rs[0].n
	notes := map[string]string{
		"virt_lat_tail_us": fmt.Sprintf("p%g of n=%d", tailPercentile(n), n),
		"virt_lat_p50_us":  fmt.Sprintf("n=%d", n),
	}
	for _, d := range endToEnd {
		fmt.Fprintf(out, "%-20s %14.6g %-7s %s\n", d.Name, m[d.Name].Value, d.Unit, notes[d.Name])
	}
	fmt.Fprintf(out, "%-20s %14.6g %-7s %d of %d ops over %d rounds\n", "fail_ratio",
		float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted, len(rs))
	return res, nil
}

// microBudget is the wall time the traced run keeps for microbenchmarks.
const microBudget = 1500 * time.Millisecond

// runTraced runs untraced rounds for a third of the budget, then traced
// rounds under the CPU profiler, then the microbenchmarks.
func runTraced(w workload, seed uint64, budget time.Duration, outDir string, out io.Writer) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	rest := budget - microBudget
	plain := runRounds(w, seed, rest/3, 1, nil)
	rec := newRecorder()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	traced := runRounds(w, seed, rest-rest/3, 1, rec)
	pprof.StopCPUProfile()
	micro := runMicros(microBudget)

	all := append(append([]*round(nil), plain...), traced...)
	res := tally(all)
	got := layerCounts(plain[0])
	for k, v := range micro {
		if v < 0 {
			return result{}, fmt.Errorf("microbenchmark %s: the layer misbehaved", k)
		}
		got[k] = v
	}
	ops := 0
	for _, r := range traced {
		ops += r.ops
	}
	if ops == 0 {
		return result{}, errors.New("traced rounds completed no ops")
	}
	for _, c := range sdCalls {
		st := rec.stats[c]
		if st == nil {
			st = &callStats{}
		}
		got["sd."+c+".calls"] = float64(st.calls) / float64(ops)
		got["sd."+c+".errors"] = float64(st.errors) / float64(ops)
		got["sd."+c+".virt_ns_p50"] = percentile(st.virtNs, 50)
	}
	var leaked int64
	for _, r := range all {
		if r.leaked > leaked {
			leaked = r.leaked
		}
	}
	got["bufpool.outstanding_end"] = float64(leaked)
	wall := func(r *round) float64 { return r.windowWall.Seconds() }
	got["bench.trace_overhead"] = medianOf(traced, wall)/medianOf(plain, wall) - 1

	shares, samples, err := attribute(prof.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	for k, v := range shares {
		got[k] = v
	}
	if err := os.WriteFile(filepath.Join(outDir, "cpu-"+w.name+".pprof"), prof.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	if err := rec.write(filepath.Join(outDir, "spans-"+w.name+".json")); err != nil {
		return result{}, err
	}
	m, err := collect(perLayer(), got)
	if err != nil {
		return result{}, err
	}
	res.Metrics = m
	for _, d := range perLayer() {
		fmt.Fprintf(out, "%-36s %14.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(out, "traced: %d untraced + %d traced rounds, %d profile samples, %d spans kept in %s\n",
		len(plain), len(traced), samples, len(rec.spans), outDir)
	return res, nil
}

// layerCounts derives the telemetry-based per-layer metrics of a round.
func layerCounts(r *round) map[string]float64 {
	got := make(map[string]float64)
	ops := float64(r.ops)
	for _, c := range counters {
		got[c.name] = float64(r.tel.Get(c.key)) / ops
	}
	for _, l := range levels {
		got[l.name] = float64(r.telEnd.Get(l.key))
	}
	if gets := r.tel.Get("sd/mem/pool/gets"); gets > 0 {
		got["bufpool.hit_ratio"] = 1 - float64(r.tel.Get("sd/mem/pool/misses"))/float64(gets)
	} else {
		got["bufpool.hit_ratio"] = 1
	}
	got["runtime.gc_cycles"] = float64(r.gcCycles) / ops
	return got
}

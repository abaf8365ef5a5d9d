package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// virtual is everything a round reports on the virtual clock.
type virtual struct {
	ops, failed int
	virtNs      int64
	bytes       int64
	lat         []int64
}

func virtualOf(r *round) virtual {
	return virtual{ops: r.ops, failed: r.failed, virtNs: r.virtNs, bytes: r.bytes, lat: r.lat}
}

func TestSameSeedBitIdenticalVirtualMetrics(t *testing.T) {
	for _, w := range workloads {
		a := virtualOf(runRound(w, 7, nil, false))
		b := virtualOf(runRound(w, 7, nil, false))
		if a.ops == 0 || a.failed != 0 {
			t.Fatalf("%s: %d ops, %d failed", w.name, a.ops, a.failed)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two rounds with seed 7 differ on the virtual clock", w.name)
		}
	}
}

func TestSeedChangesRPCMixDraws(t *testing.T) {
	w, _ := workloadByName("rpc_mix")
	a := runRound(w, 1, nil, false)
	b := runRound(w, 2, nil, false)
	if a.bytes == b.bytes || reflect.DeepEqual(a.lat, b.lat) {
		t.Errorf("seeds 1 and 2 drew the same rpc_mix sizes and targets")
	}
}

// runJSON runs the command and decodes its last output line.
func runJSON(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out bytes.Buffer
	if code := run(args, &out, io.Discard); code != 0 {
		t.Fatalf("%v exited %d:\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res, out.String()
}

func TestOutputNamesEveryManifestMetric(t *testing.T) {
	e2e, text := runJSON(t, "--workload", "bulk_stream", "--seed", "3", "--seconds", "3", "--trace", "0")
	traced, _ := runJSON(t, "--workload", "bulk_stream", "--seed", "3", "--seconds", "4", "--trace", "1", "--out-dir", t.TempDir())
	for _, res := range []result{e2e, traced} {
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("result header %+v", res)
		}
	}
	check := func(defs []metric, got map[string]value) {
		if len(got) != len(defs) {
			t.Errorf("%d metrics reported, %d declared", len(got), len(defs))
		}
		for _, d := range defs {
			v, ok := got[d.Name]
			if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("metric %s: %+v (present %v)", d.Name, v, ok)
			}
		}
	}
	check(endToEnd, e2e.Metrics)
	check(perLayer(), traced.Metrics)
	for _, w := range []string{"nproc=", "GOMAXPROCS=", "go=", "seed=3"} {
		if !strings.Contains(text, w) {
			t.Errorf("output does not record %q", w)
		}
	}
	sum := 0.0
	for name, v := range traced.Metrics {
		if strings.HasSuffix(name, ".cpu_share") || name == "runtime.gc_share" || name == "runtime.other_share" {
			sum += v.Value
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cpu shares sum to %v, want 1", sum)
	}
	if v := traced.Metrics["bufpool.outstanding_end"].Value; v != 0 {
		t.Errorf("bufpool.outstanding_end = %v after teardown", v)
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	if string(committed) != want.String() {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --manifest > BENCHMARK.json")
	}
}

func TestFailedOrLeakingRoundIsIncorrect(t *testing.T) {
	if res := tally([]*round{{expected: 10}}); !res.Correct || res.Attempted != 10 {
		t.Errorf("clean round: %+v", res)
	}
	if res := tally([]*round{{expected: 10, failed: 1}}); res.Correct || res.Failed != 1 {
		t.Errorf("failed op: %+v", res)
	}
	if res := tally([]*round{{expected: 10, leaked: 2}}); res.Correct {
		t.Errorf("leaked buffers: %+v", res)
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]int64, 1001)
	for i := range xs {
		xs[len(xs)-1-i] = int64(i)
	}
	if p := percentile(xs, 50); math.Abs(p-500) > 1e-6 {
		t.Errorf("median of 0..1000 = %v", p)
	}
	if p := percentile(xs, 99); math.Abs(p-990) > 1 {
		t.Errorf("p99 of 0..1000 = %v", p)
	}
	for n, want := range map[int]float64{19: 50, 100: 90, 1000: 99, 6000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

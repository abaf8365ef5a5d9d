package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t/counter")
	const workers, perWorker = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterHandleStable(t *testing.T) {
	r := NewRegistry()
	if r.Counter("t/x") != r.Counter("t/x") {
		t.Fatal("same name returned different handles")
	}
	if r.Counter("t/x") == r.Counter("t/y") {
		t.Fatal("different names returned the same handle")
	}
}

func TestGaugeHighWater(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("t/gauge")
	g.Set(5)
	g.Set(12)
	g.Set(3)
	if g.Load() != 3 {
		t.Errorf("level = %d, want 3", g.Load())
	}
	if g.High() != 12 {
		t.Errorf("high-water = %d, want 12", g.High())
	}
	if v := g.Add(10); v != 13 {
		t.Errorf("Add returned %d, want 13", v)
	}
	if g.High() != 13 {
		t.Errorf("high-water after Add = %d, want 13", g.High())
	}
}

func TestGaugeHighWaterConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("t/gauge")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				g.Set(base*1000 + i)
			}
		}(int64(w))
	}
	wg.Wait()
	if g.High() != 7999 {
		t.Fatalf("high-water = %d, want 7999", g.High())
	}
}

func TestDistributionExactStats(t *testing.T) {
	r := NewRegistry()
	d := r.Distribution("t/dist")
	for i := int64(1); i <= 1000; i++ {
		d.Observe(i)
	}
	if d.Count() != 1000 {
		t.Errorf("count = %d", d.Count())
	}
	if d.Sum() != 500500 {
		t.Errorf("sum = %d", d.Sum())
	}
	if d.Min() != 1 || d.Max() != 1000 {
		t.Errorf("min/max = %d/%d", d.Min(), d.Max())
	}
	if m := d.Mean(); m != 500.5 {
		t.Errorf("mean = %f", m)
	}
	// Log buckets: <= ~6.25% relative error plus rounding.
	for _, q := range []float64{0.01, 0.50, 0.99, 1.0} {
		got := float64(d.Quantile(q))
		want := q * 1000
		if got < want-want*0.0625-1 || got > want+want*0.0625+1 {
			t.Errorf("q%.2f = %.0f, want %.0f +- 6.25%%", q, got, want)
		}
	}
}

func TestDistributionQuantileClamped(t *testing.T) {
	r := NewRegistry()
	d := r.Distribution("t/dist")
	d.Observe(1000) // mid-bucket value: the midpoint estimate would stray
	if got := d.Quantile(0.5); got != 1000 {
		t.Errorf("single-sample q50 = %d, want exactly 1000", got)
	}
	if d.Quantile(1.0) != 1000 || d.Quantile(0.01) != 1000 {
		t.Error("quantiles not clamped to [min,max]")
	}
}

func TestDistributionConcurrent(t *testing.T) {
	r := NewRegistry()
	d := r.Distribution("t/dist")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 1000; i++ {
				d.Observe(i)
			}
		}()
	}
	wg.Wait()
	if d.Count() != 8000 || d.Sum() != 8*500500 {
		t.Fatalf("count/sum = %d/%d", d.Count(), d.Sum())
	}
	if d.Min() != 1 || d.Max() != 1000 {
		t.Fatalf("min/max = %d/%d", d.Min(), d.Max())
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t/ops")
	g := r.Gauge("t/depth")
	d := r.Distribution("t/size")

	c.Add(5)
	g.Set(3)
	d.Observe(64)
	before := r.Snapshot()

	c.Add(7)
	g.Set(9)
	d.Observe(64)
	d.Observe(64)
	after := r.Snapshot()

	delta := after.Diff(before)
	if delta.Get("t/ops") != 7 {
		t.Errorf("ops delta = %d, want 7", delta.Get("t/ops"))
	}
	if delta.Get("t/depth") != 6 {
		t.Errorf("depth delta = %d, want 6", delta.Get("t/depth"))
	}
	if delta.Get("t/depth/hw") != 6 {
		t.Errorf("depth hw delta = %d, want 6", delta.Get("t/depth/hw"))
	}
	if delta.Get("t/size") != 2 {
		t.Errorf("size count delta = %d, want 2", delta.Get("t/size"))
	}
	if delta.Get("t/size/sum") != 128 {
		t.Errorf("size sum delta = %d, want 128", delta.Get("t/size/sum"))
	}
	if delta.Get("t/absent") != 0 {
		t.Errorf("absent key = %d, want 0", delta.Get("t/absent"))
	}
}

func TestSnapshotDiffNewKeys(t *testing.T) {
	r := NewRegistry()
	before := r.Snapshot()
	r.Counter("t/late").Inc()
	delta := r.Snapshot().Diff(before)
	if delta.Get("t/late") != 1 {
		t.Fatalf("late key delta = %d, want 1", delta.Get("t/late"))
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t/ops")
	g := r.Gauge("t/depth")
	d := r.Distribution("t/size")
	c.Inc()
	g.Set(4)
	d.Observe(7)
	r.Reset()
	if c.Load() != 0 || g.Load() != 0 || g.High() != 0 {
		t.Error("counter/gauge survived reset")
	}
	if d.Count() != 0 || d.Sum() != 0 || d.Min() != 0 || d.Max() != 0 {
		t.Error("distribution survived reset")
	}
	// Handles stay live after Reset.
	c.Inc()
	if c.Load() != 1 {
		t.Error("handle dead after reset")
	}
}

func TestSnapshotFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("t/zero")
	r.Counter("t/nonzero").Add(3)
	s := r.Snapshot()
	full := s.Format(false)
	if !strings.Contains(full, "t/zero") || !strings.Contains(full, "t/nonzero") {
		t.Errorf("full format missing keys:\n%s", full)
	}
	skipped := s.Format(true)
	if strings.Contains(skipped, "t/zero") {
		t.Errorf("skipZero kept zero entry:\n%s", skipped)
	}
	if !strings.Contains(skipped, "t/nonzero") {
		t.Errorf("skipZero dropped nonzero entry:\n%s", skipped)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkDistributionObserve(b *testing.B) {
	var d Distribution
	for i := 0; i < b.N; i++ {
		d.Observe(int64(i))
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// Every bucket midpoint must map back to its own bucket, and bucket
	// indices must be monotonic in the value.
	prev := -1
	for _, v := range []int64{0, 1, 15, 16, 31, 32, 100, 1 << 20, 1 << 40, 1<<62 + 12345} {
		idx := bucketOf(v)
		if idx < prev {
			t.Errorf("bucketOf(%d) = %d < previous %d (not monotonic)", v, idx, prev)
		}
		prev = idx
		if back := bucketOf(bucketMid(idx)); back != idx {
			t.Errorf("bucketMid(%d)=%d maps to bucket %d", idx, bucketMid(idx), back)
		}
	}
	if bucketOf(1<<63-1) >= distBuckets {
		t.Fatalf("max int64 bucket %d out of range", bucketOf(1<<63-1))
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"socksdirect/internal/ctlmsg"
)

// TestRingOverflowDropsOldest: the span ring must retain exactly the last
// DefaultRingCap spans, count the overwritten ones, and never grow.
func TestRingOverflowDropsOldest(t *testing.T) {
	Reset()
	defer Reset()
	const extra = 100
	base := mDropped.Load()
	for i := 0; i < DefaultRingCap+extra; i++ {
		Record(Span{Trace: 1, Span: uint64(i + 1), Start: int64(i), End: int64(i + 1), Host: "h", PID: 7})
	}
	got := AllSpans()
	if len(got) != DefaultRingCap {
		t.Fatalf("ring retained %d spans, want %d", len(got), DefaultRingCap)
	}
	// Oldest-first: the first retained span is the (extra+1)-th recorded.
	if got[0].Span != extra+1 {
		t.Fatalf("oldest retained span id = %d, want %d (drop-oldest)", got[0].Span, extra+1)
	}
	if got[len(got)-1].Span != DefaultRingCap+extra {
		t.Fatalf("newest retained span id = %d, want %d", got[len(got)-1].Span, DefaultRingCap+extra)
	}
	if d := mDropped.Load() - base; d != extra {
		t.Fatalf("dropped counter advanced by %d, want %d", d, extra)
	}
}

// TestConcurrentWriters hammers the rings from many goroutines while a
// reader snapshots them; run with -race to verify the locking.
func TestConcurrentWriters(t *testing.T) {
	Reset()
	defer Reset()
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				RecordHop("h", int64(w%3), HopProcRing, 1, uint64(w+1), 0, int64(i), int64(i+1))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = AllSpans()
			_ = Flows()
		}
	}()
	wg.Wait()
	<-done
	if n := len(AllSpans()); n == 0 {
		t.Fatal("no spans retained after concurrent writes")
	}
}

// TestEnabledRecordingAllocFree: once a ring is full, recording
// overwrites in place, so steady-state hop and instant-event recording
// are alloc-free, and so is the always-on flow accounting on the data
// path.
func TestEnabledRecordingAllocFree(t *testing.T) {
	Reset()
	defer Reset()
	for i := 0; i < DefaultRingCap; i++ { // warm up: fill the ring
		RecordHop("h", 1, HopProcRing, 1, 1, 0, 0, 1)
	}
	f := RegisterFlow(FlowKey{Host: "h", PID: 1, QID: 9}, "h", 0)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"hop", func() { RecordHop("h", 1, HopProcRing, 1, 1, 0, 10, 20) }},
		{"event", func() { RecordEvent("h", 1, EvCrashCleanup, 30) }},
		{"flow", func() { f.AddTx(64); f.AddRx(64) }},
	} {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s recording allocates %.1f per op, want 0", tc.name, allocs)
		}
	}
}

// TestMergeTelescoping builds a synthetic cross-host connect trace and
// checks the spine order and the exact telescoping of the breakdown.
func TestMergeTelescoping(t *testing.T) {
	Reset()
	defer Reset()
	op := BeginOp("hostA", 10, OpConnect, 100)
	// libsd -> monitor A queue hop, then monitor A dispatch, mchan flight,
	// peer dispatch, server libsd queue hop.
	s1 := RecordHop("hostA", 0, HopProcRing, 1, op.Trace, op.Span, 100, 120)
	s2 := RecordHop("hostA", 0, HopMonDispatch, 1, op.Trace, s1, 120, 150)
	s3 := RecordHop("hostB", 0, HopMchanFlight, 2, op.Trace, s2, 150, 200)
	s4 := RecordHop("hostB", 0, HopPeerDispatch, 2, op.Trace, s3, 200, 240)
	RecordHop("hostB", 20, HopProcRing, 3, op.Trace, s4, 240, 300)
	op.End(400, true)

	tv, ok := MergeTrace(op.Trace)
	if !ok {
		t.Fatal("MergeTrace found no root")
	}
	if !tv.Complete(5) {
		t.Fatalf("trace incomplete: hops=%d ok=%v", tv.HopCount(), tv.Root.OK)
	}
	if tv.Duration() != 300 {
		t.Fatalf("duration = %d, want 300", tv.Duration())
	}
	var sum int64
	for _, h := range tv.Hops {
		sum += h.Ns
	}
	if sum != tv.Duration() {
		t.Fatalf("hop latencies sum to %d, want exactly %d", sum, tv.Duration())
	}
	wantSpine := []Hop{HopApp, HopProcRing, HopMonDispatch, HopMchanFlight, HopPeerDispatch, HopProcRing}
	if len(tv.Hops) != len(wantSpine) {
		t.Fatalf("spine has %d hops, want %d", len(tv.Hops), len(wantSpine))
	}
	for i, h := range tv.Hops {
		if h.Hop != wantSpine[i] {
			t.Fatalf("spine[%d] = %s, want %s", i, h.Hop, wantSpine[i])
		}
	}
	if !strings.Contains(tv.Format(), "op=connect") {
		t.Fatalf("Format missing op name:\n%s", tv.Format())
	}
}

// TestRecordHopUntraced: untraced messages (trace 0) record nothing and
// propagate the parent unchanged.
func TestRecordHopUntraced(t *testing.T) {
	Reset()
	defer Reset()
	if got := RecordHop("h", 1, HopProcRing, 1, 0, 42, 0, 1); got != 42 {
		t.Fatalf("untraced RecordHop returned %d, want parent 42", got)
	}
	if n := len(AllSpans()); n != 0 {
		t.Fatalf("untraced RecordHop recorded %d spans", n)
	}
}

// TestFlowTable exercises registration, accounting and snapshots.
func TestFlowTable(t *testing.T) {
	Reset()
	defer Reset()
	f := RegisterFlow(FlowKey{Host: "hostA", PID: 3, QID: 77}, "hostB", ctlmsg.TransportRDMA)
	f.AddTx(100)
	f.AddTx(50)
	f.AddRx(30)
	f.Takeover()
	f.NoteReset()
	f.SetProbe(func(fs *FlowSnapshot) { fs.RingHW = 4096; fs.Epoch = 2 })
	var nilFlow *Flow
	nilFlow.AddTx(1) // all methods must be nil-safe
	nilFlow.NoteReset()

	flows := Flows()
	if len(flows) != 1 {
		t.Fatalf("flow table has %d rows, want 1", len(flows))
	}
	fs := flows[0]
	if fs.BytesTx != 150 || fs.MsgsTx != 2 || fs.BytesRx != 30 || fs.MsgsRx != 1 {
		t.Fatalf("counters wrong: %+v", fs)
	}
	if fs.Takeovers != 1 || fs.Resets != 1 || fs.State != "reset" {
		t.Fatalf("events wrong: %+v", fs)
	}
	if fs.RingHW != 4096 || fs.Epoch != 2 {
		t.Fatalf("probe fields wrong: %+v", fs)
	}
	if fs.Transport != "rdma" || fs.Peer != "hostB" {
		t.Fatalf("identity wrong: %+v", fs)
	}
}

// TestRecorderCooldown: anomalies inside the cooldown window coalesce
// into a single dump; ForceDump bypasses; disarming suppresses.
func TestRecorderCooldown(t *testing.T) {
	Reset()
	defer Reset()
	var dumps []Dump
	SetSink(func(d Dump) { dumps = append(dumps, d) })
	Record(Span{Trace: 1, Span: 1, Start: 0, End: 5, Host: "h", PID: 1, Hop: HopApp, Op: OpConnect, OK: true})

	if !Trigger(TrigRetryExhaustion, 1_000, "first") {
		t.Fatal("first trigger did not dump")
	}
	if Trigger(TrigDegraded, 2_000, "cascade") {
		t.Fatal("trigger inside cooldown dumped")
	}
	if !Trigger(TrigReset, 1_000+DefaultCooldown, "later") {
		t.Fatal("trigger after cooldown did not dump")
	}
	SetArmed(false)
	if Trigger(TrigReset, 10*DefaultCooldown, "disarmed") {
		t.Fatal("disarmed trigger dumped")
	}
	fd := ForceDump(TrigMonitorRestart, 11*DefaultCooldown, "forced")
	if len(fd.Spans) != 1 {
		t.Fatalf("forced dump carries %d spans, want 1", len(fd.Spans))
	}
	if len(dumps) != 3 {
		t.Fatalf("sink saw %d dumps, want 3", len(dumps))
	}
	if dumps[0].Name != "retry_exhaustion" || dumps[0].Note != "first" {
		t.Fatalf("first dump wrong: %+v", dumps[0])
	}
}

// TestDumpChromeFormat: the Chrome trace output must be valid JSON with
// one "X" event per span, one "i" event per instant event and one "M"
// thread-name record per track — including for an empty dump.
func TestDumpChromeFormat(t *testing.T) {
	for _, tc := range []struct {
		name       string
		record     func()
		x, i, m    int
		instantTag string
	}{
		{"empty", func() {}, 0, 0, 0, ""},
		{"spans", func() {
			Record(Span{Trace: 1, Span: 1, Start: 100, End: 400, Host: "hostA", PID: 3, Hop: HopApp, Op: OpConnect, OK: true})
			Record(Span{Trace: 1, Span: 2, Parent: 1, Start: 120, End: 150, Host: "hostA", PID: 0, Hop: HopMonDispatch, Kind: 1})
		}, 2, 0, 2, ""},
		{"instant", func() { RecordEvent("hostA", 0, EvHostDead, 1500) }, 0, 1, 1, "host_dead"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			Reset()
			defer Reset()
			tc.record()
			d := ForceDump(TrigReset, 5000, "test")
			var buf bytes.Buffer
			if err := d.WriteChrome(&buf); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
				Unit        string           `json:"displayTimeUnit"`
				Reason      string           `json:"reason"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatalf("chrome trace is not valid JSON: %v", err)
			}
			if doc.TraceEvents == nil {
				t.Fatalf("missing traceEvents array:\n%s", buf.String())
			}
			if doc.Reason != "reset" || doc.Unit != "ns" {
				t.Fatalf("reason = %q, displayTimeUnit = %q", doc.Reason, doc.Unit)
			}
			var x, i, m int
			for _, ev := range doc.TraceEvents {
				switch ev["ph"] {
				case "X":
					x++
				case "i":
					i++
					if ev["name"] != tc.instantTag || ev["s"] != "t" || ev["ts"] != 1.5 {
						t.Errorf("instant event = %v, want %s, thread scope, ts 1.5us", ev, tc.instantTag)
					}
				case "M":
					m++
				}
			}
			if x != tc.x || i != tc.i || m != tc.m {
				t.Fatalf("chrome trace has %d X, %d i, %d M events, want %d, %d, %d", x, i, m, tc.x, tc.i, tc.m)
			}
			buf.Reset()
			if err := d.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(buf.Bytes(), []byte(`"reason": "reset"`)) {
				t.Fatalf("plain JSON dump missing reason:\n%s", buf.String())
			}
		})
	}
}

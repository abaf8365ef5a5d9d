package experiments

import (
	"fmt"

	sd "socksdirect"
	"socksdirect/internal/fault"
	"socksdirect/internal/obs"
	"socksdirect/internal/telemetry"
)

// Observability soaks. ObsSmoke drives a short cross-host echo under
// causal tracing and checks the merged connect timeline end to end: the
// blocking connect on hostA must reconstruct into one trace whose spine
// walks app → control ring → monitor dispatch → mchan flight → peer
// dispatch (and back), with the per-hop breakdown summing to the
// end-to-end latency. ObsRetryDrill partitions the RDMA fabric under a
// tiny recovery budget and checks that retry exhaustion produces exactly
// one flight-recorder dump that carries the failing recovery attempts.

// ObsSmokeResult is the outcome of one tracing smoke run.
type ObsSmokeResult struct {
	Rounds, Chunk int
	RunNs         int64

	Echoed      bool  // the echo stream completed byte-exact
	Traces      int   // merged traces with a closed, OK root
	ConnectHops int   // spine length of the best cross-host connect trace
	ConnectNs   int64 // that trace's end-to-end duration
	HopSumNs    int64 // sum of its per-hop breakdown
	CrossHost   bool  // the spine visits both hosts
	FlowRows    int   // flow-table rows after the run
	TraceText   string

	// Trace is the merged connect timeline, kept for artifact output.
	Trace obs.TraceView
}

// Passed reports whether the run met the acceptance bar: a complete
// cross-host connect trace of at least 5 causally ordered hops whose
// breakdown sums to within 5% of the end-to-end latency, plus a live
// flow row per endpoint.
func (r ObsSmokeResult) Passed() bool {
	if !r.Echoed || r.ConnectHops < 5 || r.ConnectNs <= 0 || !r.CrossHost {
		return false
	}
	diff := r.ConnectNs - r.HopSumNs
	if diff < 0 {
		diff = -diff
	}
	return diff*20 <= r.ConnectNs && r.FlowRows >= 2
}

func (r ObsSmokeResult) String() string {
	verdict := "PASS"
	if !r.Passed() {
		verdict = "FAIL"
	}
	return fmt.Sprintf(
		"obssmoke: %d rounds x %dB echo in %.2fms virtual\n"+
			"  traces merged=%d; connect spine hops=%d cross-host=%v\n"+
			"  end-to-end=%dns, hop sum=%dns\n"+
			"  flow rows=%d\n%s  %s",
		r.Rounds, r.Chunk, float64(r.RunNs)/1e6,
		r.Traces, r.ConnectHops, r.CrossHost,
		r.ConnectNs, r.HopSumNs,
		r.FlowRows, r.TraceText, verdict)
}

// ObsSmoke runs the tracing smoke: one inter-host echo pair, tracing on,
// then merges the rings and inspects the connect timeline.
func ObsSmoke(rounds, chunk int) ObsSmokeResult {
	obs.Reset()
	obs.SetArmed(false) // a clean run must not dump
	res := ObsSmokeResult{Rounds: rounds, Chunk: chunk}

	w := newWorld()
	var mismatches int
	obsEchoPair(w, 7600, rounds, chunk, &res.Echoed, &mismatches)
	res.RunNs = w.sim.Run()
	if mismatches > 0 {
		res.Echoed = false
	}

	for _, tv := range obs.MergeAll() {
		if tv.Root.OK {
			res.Traces++
		}
		if tv.Root.Op != obs.OpConnect || !tv.Complete(5) {
			continue
		}
		hosts := map[string]bool{}
		var sum int64
		for _, h := range tv.Hops {
			hosts[h.Host] = true
			sum += h.Ns
		}
		if len(hosts) < 2 || tv.HopCount() <= res.ConnectHops {
			continue
		}
		res.ConnectHops = tv.HopCount()
		res.ConnectNs = tv.Duration()
		res.HopSumNs = sum
		res.CrossHost = true
		res.TraceText = tv.Format()
		res.Trace = tv
	}
	res.FlowRows = len(obs.Flows())
	obs.SetArmed(true)
	return res
}

// obsEchoPair wires one echo pair (client hostA, server hostB) without
// any fault schedule or pacing — the smoke wants a fast clean run.
func obsEchoPair(w *world, port uint16, rounds, chunk int,
	completed *bool, mismatches *int) {

	sp := w.hb.NewProcess(fmt.Sprintf("obs-srv%d", port), 0)
	cp := w.ha.NewProcess(fmt.Sprintf("obs-cli%d", port), 0)
	total := rounds * chunk

	sp.Go("srv", func(t *sd.T) {
		ln, err := t.Listen(port)
		if err != nil {
			return
		}
		c, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, chunk)
		for echoed := 0; echoed < total; {
			n, err := c.Recv(buf)
			if err != nil {
				return
			}
			if _, err := c.Send(buf[:n]); err != nil {
				return
			}
			echoed += n
		}
	})
	cp.Go("cli", func(t *sd.T) {
		t.Sleep(10_000)
		c, err := t.Dial("hostB", port)
		if err != nil {
			return
		}
		out := make([]byte, chunk)
		got := make([]byte, chunk)
		seed := uint64(port) + 1
		txRand, wantRand := seed, seed
		want := make([]byte, chunk)
		for i := 0; i < rounds; i++ {
			xorshiftFill(out, &txRand)
			if _, err := c.Send(out); err != nil {
				return
			}
			rd := 0
			for rd < chunk {
				n, err := c.Recv(got[rd:])
				if err != nil {
					return
				}
				rd += n
			}
			xorshiftFill(want, &wantRand)
			for j := range want {
				if got[j] != want[j] {
					*mismatches++
					break
				}
			}
		}
		*completed = true
	})
}

// ObsDrillResult is the outcome of one retry-exhaustion recorder drill.
type ObsDrillResult struct {
	Rounds, Chunk int
	RunNs         int64

	Echoed        bool   // traffic survived the degradation to kernel TCP
	Dumps         int    // flight-recorder dumps produced
	FirstReason   string // reason of the first dump
	RecoverySpans int    // failed OpRecovery root spans inside the dump
	Degradations  int64

	// Dump is the first (and, on a pass, only) recorder artifact; soak
	// drivers write it out as CI evidence.
	Dump obs.Dump
}

// Passed: the induced retry exhaustion must produce exactly one dump,
// carrying the failed recovery attempts, while traffic still completes
// over the rescue path.
func (r ObsDrillResult) Passed() bool {
	return r.Echoed && r.Dumps == 1 && r.FirstReason == "retry_exhaustion" &&
		r.RecoverySpans >= 1 && r.Degradations >= 1
}

func (r ObsDrillResult) String() string {
	verdict := "PASS"
	if !r.Passed() {
		verdict = "FAIL"
	}
	return fmt.Sprintf(
		"obsdrill: %d rounds x %dB through a partition in %.2fs virtual\n"+
			"  dumps=%d first=%q recovery spans in dump=%d\n"+
			"  degradations=%d echo complete=%v\n  %s",
		r.Rounds, r.Chunk, float64(r.RunNs)/1e9,
		r.Dumps, r.FirstReason, r.RecoverySpans,
		r.Degradations, r.Echoed, verdict)
}

// ObsRetryDrill partitions the RDMA link with a 4-attempt recovery
// budget: the socket exhausts its retries, the recorder dumps once (the
// cooldown is stretched past the run so cascading triggers coalesce),
// and the stream finishes over the rescue TCP path.
func ObsRetryDrill(rounds, chunk int) ObsDrillResult {
	obs.Reset()
	obs.SetCooldown(1 << 62) // one dump per run: every later trigger coalesces
	res := ObsDrillResult{Rounds: rounds, Chunk: chunk}

	var dumps []obs.Dump
	obs.SetSink(func(d obs.Dump) { dumps = append(dumps, d) })

	w := newWorld()
	inj := fault.New(w.a.Clk)
	inj.AddLink("rdma", w.a.NIC.Port("hostB"), w.b.NIC.Port("hostA"))
	if err := inj.Run([]fault.Event{
		{At: 50_000_000, Kind: fault.Partition, Link: "rdma", Dur: 2_000_000_000},
	}); err != nil {
		panic("obsdrill: " + err.Error())
	}

	before := telemetry.Capture()
	var mismatches int
	chaosPair(w, 7650, rounds, chunk, 4, &res.Echoed, &mismatches)
	res.RunNs = w.sim.Run()
	if mismatches > 0 {
		res.Echoed = false
	}

	res.Dumps = len(dumps)
	if len(dumps) > 0 {
		res.FirstReason = dumps[0].Name
		res.Dump = dumps[0]
		for _, sp := range dumps[0].Spans {
			if sp.Hop == obs.HopApp && sp.Op == obs.OpRecovery && !sp.OK {
				res.RecoverySpans++
			}
		}
	}
	res.Degradations = telemetry.Capture().Diff(before)[telemetry.FaultDegradations]
	obs.Reset() // restore cooldown and drop the sink
	return res
}

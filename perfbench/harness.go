package main

import (
	"errors"
	"runtime"
	"time"

	sd "socksdirect"
	"socksdirect/internal/bufpool"
	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/obs"
	"socksdirect/internal/telemetry"
)

// round is one complete run of a workload: a fresh two-host cluster is
// built, the workload's connections are set up, a fixed number of ops is
// measured, and everything is torn down again. Virtual-clock fields are a
// pure function of the seed; wall-clock fields are what the Go code cost.
type round struct {
	setupWall  time.Duration // cluster construction up to the start barrier
	windowWall time.Duration // measured window (start barrier to last op)

	expected int     // ops the workload is meant to complete
	ops      int     // ops completed (verified or not)
	failed   int     // ops that errored, mismatched, or left the fast path
	lat      []int64 // virtual ns per op
	bytes    int64   // payload bytes delivered in the window
	virtNs   int64   // virtual length of the window

	allocs   uint64 // Go heap allocations in the window
	liveHeap uint64 // live heap after runtime.GC() at the end of the window
	gcCycles uint32 // GC cycles completed in the window

	tel    telemetry.Snapshot // counter deltas over the window
	telEnd telemetry.Snapshot // registry at the end of the round
	leaked int64              // bufpool buffers still held after teardown

	n             int     // ops with a latency, kept after summarize
	p50Ns, tailNs float64 // latency percentiles, virtual ns
}

// summarize computes the round's latency percentiles and, unless keep,
// drops the per-op latencies and telemetry snapshots: rounds kept for the
// medians must not inflate the live heap that later rounds measure.
func (r *round) summarize(keep bool) {
	r.n = len(r.lat)
	r.p50Ns = percentile(r.lat, 50)
	r.tailNs = percentile(r.lat, tailPercentile(r.n))
	if !keep {
		r.lat, r.tel, r.telEnd = nil, nil, nil
	}
}

// harness builds the cluster for one round and carries the state the
// workload's simulated threads share. Simulated threads run one at a time
// under exec.Sim, so its fields need no locks.
type harness struct {
	seed      uint64
	rec       *recorder // nil when the round is untraced
	setupOnly bool      // probe: stop at the start barrier
	r         *round

	a, b *sd.Host

	start time.Time // wall clock at the start of set-up

	parties, arrived int           // start barrier
	parked           []exec.Thread // threads waiting at the barrier
	finishers, done  int           // threads whose finish closes the window

	virtStart, virtEnd int64
	wallStart          time.Time
	mallocs0           uint64
	gc0                uint32
	tel0               telemetry.Snapshot
	opSeq              int64
}

// newRound resets the telemetry registry and the obs span rings and flow
// table (no cluster exists between rounds, so every gauge is legitimately
// zero, and the flow table would otherwise keep every earlier round's
// sockets alive) and builds the two hosts.
func newRound(seed uint64, rec *recorder, setupOnly bool) (*harness, *sd.Cluster) {
	telemetry.Default.Reset()
	obs.Reset()
	h := &harness{seed: seed, rec: rec, setupOnly: setupOnly, r: &round{}, start: time.Now()}
	costs := costmodel.Default
	cl := sd.NewCluster(sd.Config{Costs: &costs, Seed: seed})
	h.a = cl.AddHost("hostA")
	h.b = cl.AddHost("hostB")
	sd.PeerMonitors(h.a, h.b)
	return h, cl
}

// run executes the simulation to quiescence and runs the leak check.
func (h *harness) run(cl *sd.Cluster) *round {
	cl.Run()
	r := h.r
	if h.setupOnly {
		r.expected = 0
	}
	r.telEnd = telemetry.Capture()
	r.leaked = bufpool.Outstanding()
	if r.ops < r.expected {
		r.failed += r.expected - r.ops
	}
	return r
}

// barrier parks each workload thread until all parties have finished
// their set-up; the last arrival opens the measured window.
func (h *harness) barrier(t *sd.T) {
	h.arrived++
	if h.arrived < h.parties {
		h.parked = append(h.parked, t.Ctx.Self())
		t.Ctx.Park()
		return
	}
	h.r.setupWall = time.Since(h.start)
	h.virtStart = t.Now()
	h.tel0 = telemetry.Capture()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.mallocs0, h.gc0 = ms.Mallocs, ms.NumGC
	h.wallStart = time.Now()
	for _, th := range h.parked {
		th.Unpark()
	}
	h.parked = nil
}

// count is the number of ops a thread should run: n, or none when the
// round is a set-up probe.
func (h *harness) count(n int) int {
	if h.setupOnly {
		return 0
	}
	return n
}

// finish is called by each finishing thread after its last op; the last
// one closes the measured window.
func (h *harness) finish(t *sd.T) {
	if h.setupOnly {
		return
	}
	if now := t.Now(); now > h.virtEnd {
		h.virtEnd = now
	}
	h.done++
	if h.done < h.finishers {
		return
	}
	r := h.r
	r.windowWall = time.Since(h.wallStart)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.allocs, r.gcCycles = ms.Mallocs-h.mallocs0, ms.NumGC-h.gc0
	r.tel = telemetry.Capture().Diff(h.tel0)
	r.virtNs = h.virtEnd - h.virtStart
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.liveHeap = ms.HeapAlloc
}

// op records one completed op.
func (h *harness) op(latNs int64, bytes int64, ok bool) {
	r := h.r
	r.ops++
	r.lat = append(r.lat, latNs)
	r.bytes += bytes
	if !ok {
		r.failed++
	}
}

// nextOp hands out op ids for spans.
func (h *harness) nextOp() int64 {
	h.opSeq++
	return h.opSeq
}

// dialRetry dials, retrying only while no listener is registered yet
// (servers and clients start in the same instant); any other error is
// the op's failure.
func dialRetry(t *sd.T, hostName string, port uint16) (*sd.Conn, error) {
	for tries := 0; ; tries++ {
		c, err := t.Dial(hostName, port)
		if !errors.Is(err, sd.ErrNoListener) || tries == 100 {
			return c, err
		}
		t.Sleep(20 * sd.Microsecond)
	}
}

// echoServer starts a process whose acceptor thread hands every accepted
// connection to a fresh handler thread that echoes until EOF. The
// acceptor is left parked in Accept; the simulation tears it down once
// everything else is quiet.
func (h *harness) echoServer(host *sd.Host, port uint16) {
	p := host.NewProcess("echo", 0)
	p.Go("acceptor", func(t *sd.T) {
		ln, err := t.Listen(port)
		if err != nil {
			h.r.failed++
			return
		}
		for {
			s := h.rec.begin(t, "accept", 0, 0)
			c, err := ln.Accept()
			h.rec.end(t, s, err)
			if err != nil {
				h.r.failed++
				return
			}
			p.Go("handler", func(t *sd.T) { echo(c.WithT(t)) })
		}
	})
}

// echo sends back whatever it receives until the peer closes.
func echo(c *sd.Conn) {
	buf := make([]byte, 4096)
	for {
		n, err := c.Recv(buf)
		if n > 0 {
			if _, werr := c.Send(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	c.Close()
}

package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	sd "socksdirect"
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/monitor"
	"socksdirect/internal/rdma"
	"socksdirect/internal/shm"
	"socksdirect/internal/telemetry"
)

// BenchSchema versions the BENCH JSON layout. Bump it on any field
// rename/removal; `sdbench compare` refuses to diff mismatched schemas.
const BenchSchema = "socksdirect-bench/1"

// BenchRTT is the telemetry distribution the bench workloads observe
// per-message latency into; P50Ns/P99Ns come from its quantiles.
const BenchRTT = "sd/bench/rtt_ns"

// benchWarm is the number of warm-up operations run before the measured
// window of every workload. Warm-up pays the one-time costs — connection
// setup, credit exchange, CQ/packet-pool growth, lazily allocated batch
// rings — so the measured AllocsPerOp is the steady-state per-op number,
// not world construction amortized over the round count (which is what
// made short-mode runs report phantom alloc regressions).
const benchWarm = 64

// benchRefill ops run between the pre-window runtime.GC() and the m0
// MemStats read: the GC empties runtime caches (the central sudog cache
// that goroutine handoffs draw from), and without a refill pass their
// one-time re-population would be billed to the first measured op.
const benchRefill = 8

// memWindow reads MemStats at up to three marks around two back-to-back
// measurement windows and reports the per-window MINIMUM of each alloc
// metric. MemStats counters are process-global: runtime background work
// and other simulated threads contribute a handful of stray allocations
// nondeterministically, which would otherwise print a phantom 0.01
// allocs/op on a genuinely zero-alloc path. A real per-op allocation
// shows up in every window, so the minimum keeps regressions visible
// while filtering one-off noise.
type memWindow struct {
	m [3]runtime.MemStats
	i int
}

func (w *memWindow) mark() {
	if w.i < len(w.m) {
		runtime.ReadMemStats(&w.m[w.i])
		w.i++
	}
}

func (w *memWindow) perOp(n int) (allocs, bytes float64) {
	if w.i < 2 || n <= 0 {
		return 0, 0
	}
	allocs = float64(w.m[1].Mallocs - w.m[0].Mallocs)
	bytes = float64(w.m[1].TotalAlloc - w.m[0].TotalAlloc)
	if w.i == 3 {
		if a2 := float64(w.m[2].Mallocs - w.m[1].Mallocs); a2 < allocs {
			allocs = a2
		}
		if b2 := float64(w.m[2].TotalAlloc - w.m[1].TotalAlloc); b2 < bytes {
			bytes = b2
		}
	}
	return allocs / float64(n), bytes / float64(n)
}

// BenchEntry is one measured workload in a BENCH report.
//
// Deterministic marks entries whose rate and latency come from the
// simulator's virtual clock: identical on every machine and run, safe to
// diff tightly in CI. Wall-clock entries (the raw ring microbenchmark)
// vary with the host; compare skips their timing fields unless asked.
// AllocsPerOp counts Go heap allocations per message over the measured
// (post-warm-up) window and is always comparable.
type BenchEntry struct {
	Name          string  `json:"name"`
	MsgBytes      int     `json:"msg_bytes"`
	Msgs          int     `json:"msgs"`
	MsgsPerSec    float64 `json:"msgs_per_sec"`
	P50Ns         int64   `json:"p50_ns"`
	P99Ns         int64   `json:"p99_ns"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	Deterministic bool    `json:"deterministic"`
}

// BenchReport is the top-level BENCH_<timestamp>.json document.
type BenchReport struct {
	Schema    string       `json:"schema"`
	Tool      string       `json:"tool"`
	GoVersion string       `json:"go_version"`
	Short     bool         `json:"short"`
	Entries   []BenchEntry `json:"entries"`
}

// RunBenchSuite runs the continuous-benchmark workloads (the Table 2 /
// Figure 7 microbenchmark shapes) and returns the report. short scales
// every message count down ~10x for CI smoke runs; compare a -short
// report only against another -short report.
func RunBenchSuite(short bool) BenchReport {
	scale := func(n int) int {
		if short {
			return n / 10
		}
		return n
	}
	rep := BenchReport{
		Schema:    BenchSchema,
		Tool:      "sdbench bench",
		GoVersion: runtime.Version(),
		Short:     short,
	}
	add := func(e BenchEntry) {
		rep.Entries = append(rep.Entries, e)
		telemetry.Default.Reset()
	}
	telemetry.Default.Reset()
	add(benchRing(1024, scale(200_000)))
	add(benchQP(1024, scale(2000)))
	add(benchSDPingPong("sd_intra_pingpong_8B", 8, true, scale(1000)))
	add(benchSDPingPong("sd_inter_pingpong_8B", 8, false, scale(1000)))
	add(benchSDStream("sd_intra_stream_1KiB", 1024, true, scale(4000)))
	add(benchSDStream("sd_inter_stream_1KiB", 1024, false, scale(4000)))
	add(BurstPingPong("sd_intra_burst_32x64B", 32, 64, true, scale(1000)))
	add(BurstPingPong("sd_inter_burst_32x64B", 32, 64, false, scale(1000)))
	for _, e := range benchConnScale(short) {
		add(e)
	}
	for _, e := range benchCluster(short) {
		add(e)
	}
	for _, e := range benchOverload(short) {
		add(e)
	}
	return rep
}

// benchCluster measures the two cluster-plane operations the chaos soak
// bounds, on a healthy N-host routed fabric: a cross-host dial through
// the full monitor control plane (KConnect -> KMSyn -> KMSynAck over the
// monitor channels), and an 8B echo RTT over the established RDMA
// socket. Every client host exercises every server host, so the numbers
// cover the fabric.Net switch path, not one hand-picked link. Virtual
// time throughout; world construction and per-dial socket setup are
// billed to the dial entry (like connscale).
func benchCluster(short bool) []BenchEntry {
	servers, clients, rounds := 3, 3, 40
	if short {
		servers, clients, rounds = 2, 2, 10
	}
	cl := sd.NewCluster(sd.Defaults())
	srvs := make([]*sd.Host, servers)
	for i := range srvs {
		srvs[i] = cl.AddHost(fmt.Sprintf("bsrv%d", i))
	}
	clis := make([]*sd.Host, clients)
	for i := range clis {
		clis[i] = cl.AddHost(fmt.Sprintf("bcli%d", i))
	}
	for _, c := range clis {
		for _, s := range srvs {
			sd.PeerMonitors(c, s)
		}
	}
	const port = 7400
	for _, s := range srvs {
		sp := s.NewProcess("esrv", 0)
		sp.Go("main", func(t *sd.T) {
			ln, err := t.Listen(port)
			if err != nil {
				return
			}
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				conn := c
				t.Pr.Go("conn", func(ct *sd.T) {
					cc := conn.WithT(ct)
					buf := make([]byte, 64)
					for {
						n, err := cc.Recv(buf)
						if err != nil {
							return
						}
						if _, err := cc.Send(buf[:n]); err != nil {
							return
						}
					}
				})
			}
		})
	}

	var mu sync.Mutex
	var dialLat, echoLat []int64
	var elapsed int64
	runtime.GC()
	var w memWindow
	w.mark()
	for ci := range clis {
		cp := clis[ci].NewProcess("ecli", 0)
		cp.Go("main", func(t *sd.T) {
			t.Sleep(10_000)
			start := t.Now()
			msg := make([]byte, 8)
			buf := make([]byte, 64)
			var dl, el []int64
			for s := 0; s < servers; s++ {
				for r := 0; r < rounds; r++ {
					t0 := t.Now()
					c, err := t.Dial(fmt.Sprintf("bsrv%d", s), port)
					if err != nil {
						return
					}
					dl = append(dl, t.Now()-t0)
					t0 = t.Now()
					if _, err := c.Send(msg); err != nil {
						return
					}
					if _, err := c.Recv(buf); err != nil {
						return
					}
					el = append(el, t.Now()-t0)
					c.Close()
				}
			}
			span := t.Now() - start
			mu.Lock()
			dialLat = append(dialLat, dl...)
			echoLat = append(echoLat, el...)
			if span > elapsed {
				elapsed = span
			}
			mu.Unlock()
		})
	}
	cl.Run()
	w.mark()

	q := func(lat []int64, p float64) int64 {
		if len(lat) == 0 {
			return 0
		}
		s := append([]int64(nil), lat...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[int(p*float64(len(s)-1))]
	}
	allocs, bytes := w.perOp(len(dialLat))
	dial := BenchEntry{
		Name: "cluster_dial", Msgs: len(dialLat),
		P50Ns: q(dialLat, 0.50), P99Ns: q(dialLat, 0.99),
		AllocsPerOp: allocs, BytesPerOp: bytes,
		Deterministic: true,
	}
	echo := BenchEntry{
		Name: "cluster_echo_8B", MsgBytes: 8, Msgs: len(echoLat),
		P50Ns: q(echoLat, 0.50), P99Ns: q(echoLat, 0.99),
		Deterministic: true,
	}
	if elapsed > 0 {
		dial.MsgsPerSec = float64(len(dialLat)) / (float64(elapsed) / 1e9)
		echo.MsgsPerSec = float64(len(echoLat)) / (float64(elapsed) / 1e9)
	}
	return []BenchEntry{dial, echo}
}

// benchConnScale runs a scaled-down connection-scale drill (the full
// 10^5-socket version lives behind `sdbench connscale`) and reports it
// as one entry per metric surface: connect throughput+latency, accept
// throughput+latency, and one dispatch-latency entry per monitor shard.
// The per-shard entries are the CI tripwire for the sharded control
// plane — a shard whose p99 collapses into the others' (or whose event
// count drops to zero) means dispatch stopped spreading.
func benchConnScale(short bool) []BenchEntry {
	pop, churn := 20_000, 8_000
	if short {
		pop, churn = 2_000, 800
	}
	runtime.GC()
	var w memWindow
	w.mark()
	cs := ConnScaleDrill(ConnScaleConfig{Population: pop, Churn: churn})
	w.mark()
	// The whole drill's allocations are billed to the connect entry
	// (each dial constructs the socket pair, rings, and FD entries; the
	// accept side's share rides along rather than being double-counted).
	allocs, bytes := w.perOp(cs.Connects)
	entries := []BenchEntry{
		{
			Name: "connscale_connect", Msgs: cs.Connects,
			MsgsPerSec: cs.ConnectsPerSec,
			P50Ns:      cs.ConnectP50Ns, P99Ns: cs.ConnectP99Ns,
			AllocsPerOp: allocs, BytesPerOp: bytes,
			Deterministic: true,
		},
		{
			Name: "connscale_accept", Msgs: cs.Accepts,
			MsgsPerSec: cs.AcceptsPerSec,
			P50Ns:      cs.AcceptP50Ns, P99Ns: cs.AcceptP99Ns,
			Deterministic: true,
		},
	}
	for _, sh := range cs.Shards {
		e := BenchEntry{
			Name:     fmt.Sprintf("connscale_shard%d_dispatch", sh.Shard),
			MsgBytes: ctlmsg.Size, Msgs: int(sh.Events),
			P50Ns: sh.P50Ns, P99Ns: sh.P99Ns,
			Deterministic: true,
		}
		if cs.ElapsedNs > 0 {
			e.MsgsPerSec = float64(sh.Events) / (float64(cs.ElapsedNs) / 1e9)
		}
		entries = append(entries, e)
	}
	return entries
}

// benchOverload measures the two overload fast paths the backpressure
// work added — the "cost of saying no", which must stay cheap for
// shedding to protect anything:
//
//   - overload_shed: a nonblocking send against a full ring returning
//     EWOULDBLOCK. This is the per-op price a load-shedding sender pays
//     on every spin, so it must be near the raw ring-probe cost and
//     allocation-free.
//   - dial_refused: a dial bounced by a saturated listener backlog with
//     ECONNREFUSED. This bounds the monitor-side work per turned-away
//     SYN — the number that decides whether a SYN flood starves the
//     control plane or is absorbed at line rate.
//
// Both run on virtual time (deterministic) so CI can diff them tightly.
func benchOverload(short bool) []BenchEntry {
	n := 4000
	if short {
		n = 400
	}

	// --- overload_shed: EWOULDBLOCK on a full ring -------------------
	oldRing := monitor.SetSockRingCap(16 * 1024)
	shedDist := telemetry.D("sd/bench/shed_ns")
	var shedMW memWindow
	var shedElapsed int64
	shedBad := 0
	{
		w := newWorld()
		sp := w.ha.NewProcess("srv", 0)
		cp := w.ha.NewProcess("cli", 0)
		sp.Go("srv", func(st *sd.T) {
			ln, err := st.Listen(7900)
			if err != nil {
				return
			}
			if _, err := ln.Accept(); err != nil {
				return
			}
			// Never recv: the ring fills and stays full for the whole
			// measured window.
			st.Sleep(2_000_000_000)
		})
		cp.Go("cli", func(t *sd.T) {
			t.Sleep(10_000)
			c, err := t.Dial("hostA", 7900)
			if err != nil {
				shedBad = n
				return
			}
			c.SetNonblock(true)
			buf := make([]byte, 64)
			for { // fill until the first EWOULDBLOCK (warm-up rides along)
				if _, err := c.Send(buf); errors.Is(err, sd.EWOULDBLOCK) {
					break
				}
			}
			runtime.GC()
			for i := 0; i < benchRefill; i++ {
				c.Send(buf)
			}
			shedMW.mark()
			start := t.Now()
			for i := 0; i < n; i++ {
				t0 := t.Now()
				_, err := c.Send(buf)
				shedDist.Observe(t.Now() - t0)
				if !errors.Is(err, sd.EWOULDBLOCK) {
					shedBad++
				}
			}
			shedElapsed = t.Now() - start
			shedMW.mark()
			for i := 0; i < n; i++ {
				c.Send(buf)
			}
			shedMW.mark()
		})
		w.sim.Run()
	}
	monitor.SetSockRingCap(oldRing)

	// --- dial_refused: ECONNREFUSED off a full backlog ---------------
	oldBacklog := monitor.SetListenerBacklogCap(1)
	refDist := telemetry.D("sd/bench/refused_ns")
	var refMW memWindow
	var refElapsed int64
	refN := n / 4 // a dial is heavier than a ring probe; keep runs short
	refBad := 0
	{
		w := newWorld()
		sp := w.ha.NewProcess("srv", 0)
		cp := w.ha.NewProcess("cli", 0)
		sp.Go("srv", func(st *sd.T) {
			if _, err := st.Listen(7901); err != nil {
				return
			}
			// Never accept: the first dispatched connection pins the
			// single backlog slot, so every later SYN is refused.
			st.Sleep(2_000_000_000)
		})
		cp.Go("cli", func(t *sd.T) {
			t.Sleep(10_000)
			// Pin the single backlog slot: the dial is dispatched into the
			// accept queue (occupying the slot) but the listener never
			// accepts, so Wait-Server times out client-side. The monitor's
			// slot stays held — exactly the saturation this bench needs.
			if _, err := t.DialDeadline("hostA", 7901, t.Now()+1_000_000); !errors.Is(err, sd.ETIMEDOUT) {
				refBad = refN
				return
			}
			for i := 0; i < benchWarm; i++ {
				t.Dial("hostA", 7901)
			}
			runtime.GC()
			for i := 0; i < benchRefill; i++ {
				t.Dial("hostA", 7901)
			}
			refMW.mark()
			start := t.Now()
			for i := 0; i < refN; i++ {
				t0 := t.Now()
				_, err := t.Dial("hostA", 7901)
				refDist.Observe(t.Now() - t0)
				if !errors.Is(err, sd.ECONNREFUSED) {
					refBad++
				}
			}
			refElapsed = t.Now() - start
			refMW.mark()
			for i := 0; i < refN; i++ {
				t.Dial("hostA", 7901)
			}
			refMW.mark()
		})
		w.sim.Run()
	}
	monitor.SetListenerBacklogCap(oldBacklog)

	shedAllocs, shedBytes := shedMW.perOp(n)
	refAllocs, refBytes := refMW.perOp(refN)
	// A wrong errno anywhere invalidates the measurement: zero the rate
	// so the compare gate flags it instead of shipping a bogus number.
	if shedBad > 0 {
		shedElapsed = 0
	}
	if refBad > 0 {
		refElapsed = 0
	}
	entries := []BenchEntry{
		{
			Name: "overload_shed", MsgBytes: 64, Msgs: n,
			P50Ns: shedDist.Quantile(0.50), P99Ns: shedDist.Quantile(0.99),
			AllocsPerOp: shedAllocs, BytesPerOp: shedBytes,
			Deterministic: true,
		},
		{
			Name: "dial_refused", Msgs: refN,
			P50Ns: refDist.Quantile(0.50), P99Ns: refDist.Quantile(0.99),
			AllocsPerOp: refAllocs, BytesPerOp: refBytes,
			Deterministic: true,
		},
	}
	if shedElapsed > 0 {
		entries[0].MsgsPerSec = float64(n) / (float64(shedElapsed) / 1e9)
	}
	if refElapsed > 0 {
		entries[1].MsgsPerSec = float64(refN) / (float64(refElapsed) / 1e9)
	}
	return entries
}

// benchRing measures the raw SPSC shared-memory ring (§4.1): a 1 KiB
// TrySendV immediately drained by TryRecv on the same goroutine. Timing
// is wall-clock (the ring is real code, not simulated); the allocation
// counts are measured around the tight loop and must be zero.
func benchRing(size, n int) BenchEntry {
	r := shm.NewRing(1 << 16)
	payload := make([]byte, size)
	op := func() bool {
		if !r.TrySendV(1, 0, payload, nil) {
			return false
		}
		_, ok := r.TryRecv()
		return ok
	}
	for i := 0; i < benchWarm; i++ {
		op() // warm header/credit/wrap paths
	}

	var mw memWindow
	runtime.GC()
	mw.mark()
	for i := 0; i < n; i++ {
		op()
	}
	mw.mark()

	dist := telemetry.D(BenchRTT)
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		op()
		dist.Observe(time.Since(t0).Nanoseconds())
	}
	elapsed := time.Since(start).Seconds()
	mw.mark()

	allocs, bytes := mw.perOp(n)
	return BenchEntry{
		Name:        "ring_spsc_1KiB",
		MsgBytes:    size,
		Msgs:        n,
		MsgsPerSec:  float64(n) / elapsed,
		P50Ns:       dist.Quantile(0.50),
		P99Ns:       dist.Quantile(0.99),
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
	}
}

// benchQP measures the simulated RDMA QP (§4.2 inter-host bottom): a
// signaled 1 KiB WRITE posted and waited to completion, one at a time,
// on virtual time. The memory window opens after benchWarm ops so the
// packet pool and CQ slices are at capacity: the steady-state write path
// allocates nothing, and this entry now asserts that (the same bound
// internal/rdma's alloc tests enforce).
func benchQP(size, n int) BenchEntry {
	w := newWorld()
	pda, pdb := w.a.NIC.AllocPD(), w.b.NIC.AllocPD()
	bufB := make([]byte, 1<<20)
	mrb := pdb.RegisterBytes(bufB)
	cqaS, cqaR := rdma.NewCQ(), rdma.NewCQ()
	cqbS, cqbR := rdma.NewCQ(), rdma.NewCQ()
	qa := pda.CreateQP(cqaS, cqaR)
	qb := pdb.CreateQP(cqbS, cqbR)
	qa.Connect("hostB", qb.QPN())
	qb.Connect("hostA", qa.QPN())
	_, _ = cqaR, cqbS

	payload := make([]byte, size)
	dist := telemetry.D(BenchRTT)
	var mw memWindow
	var elapsed int64
	w.sim.Spawn("bench-qp", func(ctx exec.Context) {
		op := func(wrid uint64) bool {
			if err := qa.PostWrite(wrid, payload, mrb.RKey(), 0, 1, true); err != nil {
				return false
			}
			for {
				if _, ok := cqaS.PollOne(); ok {
					break
				}
				ctx.Charge(w.costs.RDMAPost)
				ctx.Yield()
			}
			for {
				if _, ok := cqbR.PollOne(); ok {
					return true
				}
			}
		}
		for i := 0; i < benchWarm; i++ {
			if !op(uint64(i)) {
				return
			}
		}
		runtime.GC()
		for i := 0; i < benchRefill; i++ {
			if !op(uint64(benchWarm + i)) {
				return
			}
		}
		mw.mark()
		start := ctx.Now()
		for i := 0; i < n; i++ {
			t0 := ctx.Now()
			if !op(uint64(benchWarm + benchRefill + i)) {
				return
			}
			dist.Observe(ctx.Now() - t0)
		}
		elapsed = ctx.Now() - start
		mw.mark()
		for i := 0; i < n; i++ {
			if !op(uint64(benchWarm + benchRefill + n + i)) {
				return
			}
		}
		mw.mark()
	})
	w.sim.Run()

	allocs, bytes := mw.perOp(n)
	e := BenchEntry{
		Name:          "rdma_qp_1KiB",
		MsgBytes:      size,
		Msgs:          n,
		P50Ns:         dist.Quantile(0.50),
		P99Ns:         dist.Quantile(0.99),
		AllocsPerOp:   allocs,
		BytesPerOp:    bytes,
		Deterministic: true,
	}
	if elapsed > 0 {
		e.MsgsPerSec = float64(n) / (float64(elapsed) / 1e9)
	}
	return e
}

// benchSDPingPong is PingPong over the full SocksDirect stack with
// per-round RTT observed into the bench distribution, so the report
// carries p50/p99 rather than just the mean. Virtual time throughout;
// allocations are read inside the client thread around the measured
// window only (steady state).
func benchSDPingPong(name string, size int, intra bool, rounds int) BenchEntry {
	w := newWorld()
	dist := telemetry.D(BenchRTT)
	var mw memWindow
	var elapsed int64
	serverSide := func(api endpointAPI) {
		buf := make([]byte, size)
		for i := 0; i < benchWarm+benchRefill+2*rounds; i++ {
			if _, err := recvFull(api, buf); err != nil {
				return
			}
			if _, err := api.send(buf); err != nil {
				return
			}
		}
	}
	clientSide := func(t *timeSrc, api endpointAPI) {
		buf := make([]byte, size)
		round := func() {
			api.send(buf)
			recvFull(api, buf)
		}
		for i := 0; i < benchWarm; i++ {
			round()
		}
		runtime.GC()
		for i := 0; i < benchRefill; i++ {
			round()
		}
		mw.mark()
		start := t.now()
		for i := 0; i < rounds; i++ {
			t0 := t.now()
			round()
			dist.Observe(t.now() - t0)
		}
		elapsed = t.now() - start
		mw.mark()
		for i := 0; i < rounds; i++ {
			round()
		}
		mw.mark()
	}
	wire(w, SysSD, intra, false, size, serverSide, clientSide)
	w.sim.Run()

	allocs, bytes := mw.perOp(rounds)
	e := BenchEntry{
		Name:          name,
		MsgBytes:      size,
		Msgs:          rounds,
		P50Ns:         dist.Quantile(0.50),
		P99Ns:         dist.Quantile(0.99),
		AllocsPerOp:   allocs,
		BytesPerOp:    bytes,
		Deterministic: true,
	}
	if elapsed > 0 {
		// One round is one message each way; report one-direction rate.
		e.MsgsPerSec = float64(rounds) / (float64(elapsed) / 1e9)
	}
	return e
}

// benchSDStream is the one-directional pump with per-message delivery
// latency: the sender stamps each message's virtual send time into a
// shared slice (legal under the simulator's global clock and cooperative
// scheduling), and the receiver observes now-minus-stamp as it drains.
// The quantiles therefore include queueing in the windowed pipe — which
// is the number a stream consumer actually experiences — and are nonzero
// by construction, fixing the p50=0/p99=0 entries the old wrapper
// emitted. Allocations are steady-state: the window opens after
// benchWarm messages have been sent AND drained.
func benchSDStream(name string, size int, intra bool, count int) BenchEntry {
	w := newWorld()
	dist := telemetry.D(BenchRTT)
	const pre = benchWarm + benchRefill
	stamps := make([]int64, pre+2*count)
	var warmDrained, refillDrained, allDrained, extraDrained bool
	var mw memWindow
	var elapsed int64
	serverFn := func(t *timeSrc, api endpointAPI) {
		buf := make([]byte, size)
		for i := 0; i < pre+2*count; i++ {
			if _, err := recvFull(api, buf); err != nil {
				return
			}
			switch {
			case i >= pre && i < pre+count:
				dist.Observe(t.now() - stamps[i])
				if i == pre+count-1 {
					allDrained = true
				}
			case i == benchWarm-1:
				warmDrained = true
			case i == pre-1:
				refillDrained = true
			}
		}
		extraDrained = true
	}
	clientFn := func(t *timeSrc, api endpointAPI) {
		buf := make([]byte, size)
		pump := func(from, to int) bool {
			for i := from; i < to; i++ {
				stamps[i] = t.now()
				if _, err := api.send(buf); err != nil {
					return false
				}
			}
			return true
		}
		drainWait := func(done *bool) {
			for !*done {
				if api.idle != nil {
					api.idle()
				}
				t.sleep(20_000)
			}
		}
		if !pump(0, benchWarm) {
			return
		}
		drainWait(&warmDrained)
		runtime.GC()
		if !pump(benchWarm, pre) {
			return
		}
		drainWait(&refillDrained)
		mw.mark()
		start := t.now()
		if !pump(pre, pre+count) {
			return
		}
		drainWait(&allDrained)
		elapsed = t.now() - start
		mw.mark()
		if !pump(pre+count, pre+2*count) {
			return
		}
		drainWait(&extraDrained)
		mw.mark()
	}
	wireOnT(w, SysSD, intra, false, size, 7100, serverFn, clientFn)
	w.sim.Run()

	allocs, bytes := mw.perOp(count)
	e := BenchEntry{
		Name:          name,
		MsgBytes:      size,
		Msgs:          count,
		P50Ns:         dist.Quantile(0.50),
		P99Ns:         dist.Quantile(0.99),
		AllocsPerOp:   allocs,
		BytesPerOp:    bytes,
		Deterministic: true,
	}
	if elapsed > 0 {
		e.MsgsPerSec = float64(count) / (float64(elapsed) / 1e9)
	}
	return e
}

// BurstPingPong measures the vectored op path (SendBatch/RecvBatch):
// each round moves a batch of `batch` messages of `size` bytes to the
// server and back, so per-message overhead — token check, flow-table
// update, doorbell — is paid once per batch. Latency is observed once
// per round (the whole-batch RTT); AllocsPerOp is per message over the
// steady-state window. Exported so bench_test.go's testing.B wrapper
// reuses the same workload.
func BurstPingPong(name string, batch, size int, intra bool, rounds int) BenchEntry {
	w := newWorld()
	dist := telemetry.D(BenchRTT)
	var mw memWindow
	var elapsed int64

	serverHost, clientHost, serverName := w.hb, w.ha, "hostB"
	if intra {
		serverHost, serverName = w.ha, "hostA"
	}
	const port = 7300
	newBufs := func() [][]byte {
		bufs := make([][]byte, batch)
		for i := range bufs {
			bufs[i] = make([]byte, size)
		}
		return bufs
	}
	// sendAll/recvAll resubmit the tail after a partial batch (a full or
	// momentarily empty ring returns a short count by design).
	sendAll := func(c *sd.Conn, bufs [][]byte) bool {
		for sent := 0; sent < len(bufs); {
			n, err := c.SendBatch(bufs[sent:])
			if err != nil {
				return false
			}
			sent += n
		}
		return true
	}
	recvAll := func(c *sd.Conn, bufs [][]byte, lens []int) bool {
		for got := 0; got < len(bufs); {
			n, err := c.RecvBatch(bufs[got:], lens[got:])
			if err != nil {
				return false
			}
			got += n
		}
		return true
	}

	sp := serverHost.NewProcess("srv", 0)
	cp := clientHost.NewProcess("cli", 0)
	sp.Go("srv", func(t *sd.T) {
		ln, err := t.Listen(port)
		if err != nil {
			return
		}
		c, err := ln.Accept()
		if err != nil {
			return
		}
		bufs, lens := newBufs(), make([]int, batch)
		for r := 0; r < benchWarm+benchRefill+2*rounds; r++ {
			if !recvAll(c, bufs, lens) || !sendAll(c, bufs) {
				return
			}
		}
	})
	cp.Go("cli", func(t *sd.T) {
		t.Sleep(10_000)
		c, err := t.Dial(serverName, port)
		if err != nil {
			return
		}
		bufs, lens := newBufs(), make([]int, batch)
		for i := 0; i < benchWarm; i++ {
			if !sendAll(c, bufs) || !recvAll(c, bufs, lens) {
				return
			}
		}
		runtime.GC()
		for i := 0; i < benchRefill; i++ {
			if !sendAll(c, bufs) || !recvAll(c, bufs, lens) {
				return
			}
		}
		mw.mark()
		start := t.Now()
		for i := 0; i < rounds; i++ {
			t0 := t.Now()
			if !sendAll(c, bufs) || !recvAll(c, bufs, lens) {
				return
			}
			dist.Observe(t.Now() - t0)
		}
		elapsed = t.Now() - start
		mw.mark()
		for i := 0; i < rounds; i++ {
			if !sendAll(c, bufs) || !recvAll(c, bufs, lens) {
				return
			}
		}
		mw.mark()
	})
	w.sim.Run()

	msgs := rounds * batch
	allocs, bytes := mw.perOp(msgs)
	e := BenchEntry{
		Name:          name,
		MsgBytes:      size,
		Msgs:          msgs,
		P50Ns:         dist.Quantile(0.50),
		P99Ns:         dist.Quantile(0.99),
		AllocsPerOp:   allocs,
		BytesPerOp:    bytes,
		Deterministic: true,
	}
	if elapsed > 0 {
		e.MsgsPerSec = float64(msgs) / (float64(elapsed) / 1e9)
	}
	return e
}

// BenchRegression is one threshold violation found by CompareBench.
type BenchRegression struct {
	Entry  string
	Metric string
	Old    float64
	New    float64
}

func (r BenchRegression) String() string {
	switch r.Metric {
	case "missing":
		return fmt.Sprintf("%s: entry missing from current report", r.Entry)
	case "p50_zero":
		return fmt.Sprintf("%s: p50_ns is zero (latency not measured — harness bug)", r.Entry)
	}
	return fmt.Sprintf("%s: %s regressed %.4g -> %.4g", r.Entry, r.Metric, r.Old, r.New)
}

// CompareBench diffs two reports entry-by-entry. A regression is a
// throughput drop, or a latency/allocation rise, beyond the relative
// threshold (e.g. 0.25 = 25%). Timing metrics of wall-clock entries are
// machine-dependent and only checked when includeWallClock is set;
// AllocsPerOp is always checked (with +1 absolute slack so near-zero
// baselines don't trip on noise; the tight gate is CompareBenchAllocs).
// A deterministic entry reporting p50_ns == 0 is rejected outright: every
// suite workload measures latency, so a zero quantile means the harness
// stopped measuring, not that the system got infinitely fast. Entries
// present on only one side are reported as "missing" regressions so a
// silently dropped workload fails the gate. Returns an error on schema
// or mode (short) mismatch.
func CompareBench(old, cur BenchReport, threshold float64, includeWallClock bool) ([]BenchRegression, error) {
	if err := checkComparable(old, cur); err != nil {
		return nil, err
	}
	curByName := make(map[string]BenchEntry, len(cur.Entries))
	for _, e := range cur.Entries {
		curByName[e.Name] = e
	}
	var regs []BenchRegression
	for _, o := range old.Entries {
		n, ok := curByName[o.Name]
		if !ok {
			regs = append(regs, BenchRegression{Entry: o.Name, Metric: "missing"})
			continue
		}
		delete(curByName, o.Name)
		if n.AllocsPerOp > o.AllocsPerOp*(1+threshold)+1 {
			regs = append(regs, BenchRegression{o.Name, "allocs_per_op", o.AllocsPerOp, n.AllocsPerOp})
		}
		if n.Deterministic && n.Msgs > 0 && n.P50Ns == 0 {
			regs = append(regs, BenchRegression{Entry: o.Name, Metric: "p50_zero"})
		}
		if !includeWallClock && !(o.Deterministic && n.Deterministic) {
			continue
		}
		if o.MsgsPerSec > 0 && n.MsgsPerSec < o.MsgsPerSec*(1-threshold) {
			regs = append(regs, BenchRegression{o.Name, "msgs_per_sec", o.MsgsPerSec, n.MsgsPerSec})
		}
		if o.P99Ns > 0 && float64(n.P99Ns) > float64(o.P99Ns)*(1+threshold) {
			regs = append(regs, BenchRegression{o.Name, "p99_ns", float64(o.P99Ns), float64(n.P99Ns)})
		}
	}
	return regs, nil
}

// CompareBenchAllocs is the allocation gate: it checks only AllocsPerOp,
// with an *absolute* slack instead of CompareBench's relative-plus-one
// slack. The difference matters exactly where the gate matters — a
// committed 0 allocs/op budget: under the relative rule 0 -> 0.99 would
// pass; under an absolute slack of 0.05 anything above 0.05 fails.
//
// For entries whose baseline is far from zero the absolute rule is too
// tight in the other direction: the connscale drill allocates hundreds
// of objects per connection *by design* (sockets, rings, FD entries),
// and world-construction noise amortized over the connection count
// wobbles by more than 0.05. The effective slack is therefore
// max(slack, 10% of the baseline): unchanged for zero-alloc budgets,
// proportional for allocation-heavy drills.
func CompareBenchAllocs(old, cur BenchReport, slack float64) ([]BenchRegression, error) {
	if err := checkComparable(old, cur); err != nil {
		return nil, err
	}
	curByName := make(map[string]BenchEntry, len(cur.Entries))
	for _, e := range cur.Entries {
		curByName[e.Name] = e
	}
	var regs []BenchRegression
	for _, o := range old.Entries {
		n, ok := curByName[o.Name]
		if !ok {
			regs = append(regs, BenchRegression{Entry: o.Name, Metric: "missing"})
			continue
		}
		eff := slack
		if rel := 0.10 * o.AllocsPerOp; rel > eff {
			eff = rel
		}
		if n.AllocsPerOp > o.AllocsPerOp+eff {
			regs = append(regs, BenchRegression{o.Name, "allocs_per_op", o.AllocsPerOp, n.AllocsPerOp})
		}
	}
	return regs, nil
}

func checkComparable(old, cur BenchReport) error {
	if old.Schema != BenchSchema || cur.Schema != BenchSchema {
		return fmt.Errorf("schema mismatch: baseline %q vs current %q (want %q)",
			old.Schema, cur.Schema, BenchSchema)
	}
	if old.Short != cur.Short {
		return fmt.Errorf("mode mismatch: baseline short=%v vs current short=%v", old.Short, cur.Short)
	}
	return nil
}

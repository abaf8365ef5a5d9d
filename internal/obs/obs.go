// Package obs is the causal observability layer over the control plane:
// per-operation span tracing, a per-connection flow table, and an
// anomaly-triggered flight recorder. SocksDirect routes every bind,
// connect, accept, token takeover, fork handshake and failure-recovery
// exchange through the per-host monitor (§3, §4.1), so a single slow or
// failed operation hops app → libsd → monitor → mchan → peer monitor →
// peer libsd; this package assigns each such operation a trace ID,
// records one span per hop into bounded per-process rings (virtual-time
// timestamps, no allocation once a ring is full), and reconstructs end-to-end timelines
// with a per-hop latency breakdown in place of aggregate histograms.
// Monitor events that no operation covers (heartbeat suspicion, host
// death, crash cleanup) go into the same rings as instant events.
// The flow table is the `ss`-style view of every connection's transport
// (SHM ring / RDMA QP / rescue TCP of §4.5.3), byte counts and failure
// history; the flight recorder turns resets, retry exhaustion and
// monitor restarts into self-explaining dumps. Dump.WriteChrome is the
// stack's one Chrome trace_event exporter.
package obs

import (
	"sync"
	"sync/atomic"

	"socksdirect/internal/telemetry"
)

// Package-wide metric handles (resolved once; see internal/telemetry).
var (
	mSpans   = telemetry.C(telemetry.ObsSpans)
	mDropped = telemetry.C(telemetry.ObsDropped)
)

// Op identifies which control-plane operation a trace belongs to.
type Op uint8

// Traced control-plane operations.
const (
	OpNone Op = iota
	OpConnect
	OpAccept
	OpBind
	OpTakeover
	OpFork
	OpRecovery
	OpReRegister
	OpDegrade
)

var opNames = [...]string{
	OpNone:       "none",
	OpConnect:    "connect",
	OpAccept:     "accept",
	OpBind:       "bind",
	OpTakeover:   "takeover",
	OpFork:       "fork",
	OpRecovery:   "recovery",
	OpReRegister: "reregister",
	OpDegrade:    "degrade",
}

// String returns the op's stable lower-case name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// Hop identifies which leg of an operation's journey a span covers.
type Hop uint8

// Hops of a control-plane operation, in causal order for a cross-host
// connect: the root span (HopApp) covers the whole blocking call; each
// message then contributes a queue hop (HopProcRing: sender enqueue to
// monitor/libsd dequeue on the SHM control duplex), a dispatch hop
// (HopMonDispatch / HopPeerDispatch: time inside the monitor's handler),
// and — across hosts — an mchan flight hop.
const (
	HopApp           Hop = iota // root: the blocking API call itself
	HopProcRing                 // SHM control-ring queue (libsd <-> monitor)
	HopMonDispatch              // local monitor handler
	HopMchanFlight              // monitor-to-monitor RDMA channel
	HopPeerDispatch             // remote monitor handler
	HopShardDispatch            // router -> shard inbox (sharded monitor routing)
	HopEvent                    // instant event outside any trace (see RecordEvent)
)

var hopNames = [...]string{
	HopApp:           "app",
	HopProcRing:      "proc_ring",
	HopMonDispatch:   "mon_dispatch",
	HopMchanFlight:   "mchan_flight",
	HopPeerDispatch:  "peer_dispatch",
	HopShardDispatch: "shard_dispatch",
	HopEvent:         "event",
}

// String returns the hop's stable lower-case name.
func (h Hop) String() string {
	if int(h) < len(hopNames) {
		return hopNames[h]
	}
	return "unknown"
}

// Span is one recorded interval. Root spans (Hop == HopApp) carry the Op
// and an OK flag set when the operation completed successfully; hop
// spans carry the ctlmsg kind that travelled the hop. Instant events
// (Hop == HopEvent) have Trace == 0, Start == End and their Event code
// in Kind. All timestamps are virtual-time nanoseconds.
type Span struct {
	Trace  uint64
	Span   uint64
	Parent uint64
	Start  int64
	End    int64
	Host   string
	PID    int64
	Op     Op
	Hop    Hop
	Kind   uint8 // ctlmsg kind for hop spans, Event code for events
	OK     bool  // root spans: operation completed successfully
}

// ID generation: one global counter each for traces and spans, so IDs
// are unique across hosts and processes (the simulation shares one
// address space; a real deployment would salt with a host ID).
var traceIDs, spanIDs atomic.Uint64

// NextSpan returns a fresh span ID.
func NextSpan() uint64 { return spanIDs.Add(1) }

// DefaultRingCap is the per-process span ring capacity.
const DefaultRingCap = 4096

// ring is one bounded per-process span buffer. It grows to
// DefaultRingCap, so a process that records a handful of spans holds a
// handful, then overwrites the oldest span: it never blocks, and once
// full it never allocates.
type ring struct {
	mu   sync.Mutex
	buf  []Span
	next int // oldest span once the ring is full
}

func (r *ring) record(sp Span) {
	r.mu.Lock()
	if len(r.buf) < DefaultRingCap {
		r.buf = append(r.buf, sp)
	} else {
		mDropped.Inc()
		r.buf[r.next] = sp
		r.next = (r.next + 1) % DefaultRingCap
	}
	r.mu.Unlock()
}

// spans returns retained spans oldest-first.
func (r *ring) spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// ringKey addresses one process's span ring. The monitor records under
// PID 0 (it is the per-host daemon, not an application process).
type ringKey struct {
	host string
	pid  int64
}

var rings struct {
	mu sync.Mutex
	m  map[ringKey]*ring
}

func init() { rings.m = make(map[ringKey]*ring) }

func ringFor(host string, pid int64) *ring {
	k := ringKey{host, pid}
	rings.mu.Lock()
	r := rings.m[k]
	if r == nil {
		r = &ring{}
		rings.m[k] = r
	}
	rings.mu.Unlock()
	return r
}

// Record stores one span into the (host, pid) ring.
func Record(sp Span) {
	ringFor(sp.Host, sp.PID).record(sp)
	mSpans.Inc()
}

// RecordHop records one hop span for a traced message and returns the
// new span ID to propagate as the next hop's parent. When the message
// is untraced (trace == 0) nothing is recorded and parent is returned
// unchanged, so call sites can write the result back unconditionally.
func RecordHop(host string, pid int64, hop Hop, kind uint8, trace, parent uint64, start, end int64) uint64 {
	if trace == 0 {
		return parent
	}
	sid := spanIDs.Add(1)
	ringFor(host, pid).record(Span{
		Trace: trace, Span: sid, Parent: parent,
		Start: start, End: end,
		Host: host, PID: pid, Hop: hop, Kind: kind,
	})
	mSpans.Inc()
	return sid
}

// AllSpans returns every retained span across all rings, unsorted.
func AllSpans() []Span {
	rings.mu.Lock()
	rs := make([]*ring, 0, len(rings.m))
	for _, r := range rings.m {
		rs = append(rs, r)
	}
	rings.mu.Unlock()
	var out []Span
	for _, r := range rs {
		out = append(out, r.spans()...)
	}
	return out
}

// OpSpan is an in-flight root span: created by BeginOp at the start of a
// blocking control-plane call, closed by End when it returns. It is a
// value type — carrying one through a call path costs no allocation.
type OpSpan struct {
	Trace uint64
	Span  uint64
	host  string
	pid   int64
	op    Op
	start int64
}

// BeginOp opens a root span for an operation.
func BeginOp(host string, pid int64, op Op, now int64) OpSpan {
	return OpSpan{
		Trace: traceIDs.Add(1),
		Span:  spanIDs.Add(1),
		host:  host, pid: pid, op: op, start: now,
	}
}

// End records the root span. ok marks the operation as having completed
// successfully (trace-completeness audits only consider ok roots:
// crash drills legitimately leave victims' operations unfinished).
func (o OpSpan) End(now int64, ok bool) {
	if o.Trace == 0 {
		return
	}
	Record(Span{
		Trace: o.Trace, Span: o.Span,
		Start: o.start, End: now,
		Host: o.host, PID: o.pid,
		Op: o.op, Hop: HopApp, OK: ok,
	})
}

// Event names an instant monitor event that no operation span covers.
type Event uint8

// Instant events, recorded as HopEvent spans.
const (
	EvHBSuspect     Event = iota + 1 // a peer missed enough heartbeats to be suspected
	EvHostDead                       // a peer host was declared dead (fan-out start)
	EvHostDeadSweep                  // one shard reset its connections to a dead host
	EvCrashCleanup                   // the monitor reclaimed a crashed process's state
)

var eventNames = [...]string{
	EvHBSuspect:     "hb_suspect",
	EvHostDead:      "host_dead",
	EvHostDeadSweep: "host_dead_sweep",
	EvCrashCleanup:  "crash_cleanup",
}

// String returns the event's stable lower-case name.
func (e Event) String() string {
	if int(e) < len(eventNames) && eventNames[e] != "" {
		return eventNames[e]
	}
	return "unknown"
}

// RecordEvent records an instant event at virtual time now on the
// (host, pid) track. Monitor-wide events use PID 0; per-process ones
// (crash cleanup) use the affected process's PID.
func RecordEvent(host string, pid int64, ev Event, now int64) {
	Record(Span{
		Span: spanIDs.Add(1), Start: now, End: now,
		Host: host, PID: pid, Hop: HopEvent, Kind: uint8(ev),
	})
}

// Reset clears all rings, flows, recorder state and ID counters
// (tests and sdbench between experiments).
func Reset() {
	rings.mu.Lock()
	rings.m = make(map[ringKey]*ring)
	rings.mu.Unlock()
	traceIDs.Store(0)
	spanIDs.Store(0)
	resetFlows()
	resetRecorder()
}

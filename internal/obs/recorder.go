package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"socksdirect/internal/telemetry"
)

var (
	mDumps    = telemetry.C(telemetry.ObsDumps)
	mTriggers = telemetry.C(telemetry.ObsTriggers)
)

// TrigReason says why the flight recorder dumped.
type TrigReason uint8

// Flight-recorder trigger reasons.
const (
	TrigReset           TrigReason = iota + 1 // ECONNRESET surfaced on a socket
	TrigRetryExhaustion                       // recovery budget exhausted (§4.5.3 fallback)
	TrigQPRecovery                            // a QP recovery completed
	TrigDegraded                              // rescue TCP installed
	TrigMonitorRestart                        // monitor came back in a new epoch
	TrigManual                                // ForceDump from a soak driver or CLI
	TrigOverloadShed                          // bounded queue shed work under overload
)

var trigNames = [...]string{
	TrigReset:           "reset",
	TrigRetryExhaustion: "retry_exhaustion",
	TrigQPRecovery:      "qp_recovery",
	TrigDegraded:        "degraded",
	TrigMonitorRestart:  "monitor_restart",
	TrigManual:          "manual",
	TrigOverloadShed:    "overload_shed",
}

// String returns the reason's stable lower-case name.
func (t TrigReason) String() string {
	if int(t) < len(trigNames) && trigNames[t] != "" {
		return trigNames[t]
	}
	return "unknown"
}

// Dump is one flight-recorder artifact: everything the rings and the
// flow table held at trigger time.
type Dump struct {
	Reason TrigReason     `json:"-"`
	Name   string         `json:"reason"`
	At     int64          `json:"at_ns"` // virtual time of the trigger
	Note   string         `json:"note"`
	Spans  []Span         `json:"spans"`
	Flows  []FlowSnapshot `json:"flows"`
}

// DefaultCooldown spaces dumps apart: cascading anomalies (retry
// exhaustion immediately followed by degradation) produce one artifact,
// not a stampede.
const DefaultCooldown = 50_000_000 // 50 ms virtual

var recorder struct {
	mu       sync.Mutex
	sink     func(Dump)
	lastDump int64 // virtual time of the last dump; -1 = never
	armed    atomic.Bool
	cooldown atomic.Int64
}

func init() {
	recorder.lastDump = -1
	recorder.armed.Store(true)
	recorder.cooldown.Store(DefaultCooldown)
}

// SetCooldown sets the minimum virtual-time gap between dumps.
func SetCooldown(ns int64) { recorder.cooldown.Store(ns) }

// SetArmed enables or disables anomaly-triggered dumps (ForceDump still
// works). Soaks that induce faults on purpose disarm the recorder for
// their warm-up, then re-arm.
func SetArmed(v bool) { recorder.armed.Store(v) }

// SetSink routes every delivered dump to fn. Soak drivers and tests use
// it to observe dumps in-process; callers that want a file write one with
// WriteChrome.
func SetSink(fn func(Dump)) {
	recorder.mu.Lock()
	recorder.sink = fn
	recorder.mu.Unlock()
}

// Trigger reports an anomaly at virtual time now. If the recorder is
// armed and outside the cooldown window it captures and delivers a dump;
// the return value says whether a dump was produced.
func Trigger(reason TrigReason, now int64, note string) bool {
	mTriggers.Inc()
	if !recorder.armed.Load() {
		return false
	}
	recorder.mu.Lock()
	cd := recorder.cooldown.Load()
	if recorder.lastDump >= 0 && now-recorder.lastDump < cd {
		recorder.mu.Unlock()
		return false
	}
	recorder.lastDump = now
	recorder.mu.Unlock()
	deliver(capture(reason, now, note))
	return true
}

// ForceDump captures and delivers a dump unconditionally (soak drivers
// call it when an assertion fails, so the failure ships its own
// evidence). The dump is also returned for in-process inspection.
func ForceDump(reason TrigReason, now int64, note string) Dump {
	d := capture(reason, now, note)
	deliver(d)
	return d
}

func capture(reason TrigReason, now int64, note string) Dump {
	spans := AllSpans()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Span < spans[j].Span
	})
	return Dump{
		Reason: reason, Name: reason.String(), At: now, Note: note,
		Spans: spans, Flows: Flows(),
	}
}

func deliver(d Dump) {
	mDumps.Inc()
	recorder.mu.Lock()
	sink := recorder.sink
	recorder.mu.Unlock()
	if sink != nil {
		sink(d)
	}
}

// resetRecorder restores defaults (called from Reset).
func resetRecorder() {
	recorder.mu.Lock()
	recorder.sink = nil
	recorder.lastDump = -1
	recorder.mu.Unlock()
	recorder.armed.Store(true)
	recorder.cooldown.Store(DefaultCooldown)
}

// WriteJSON serializes the dump as plain JSON (sdstat -json, CI diffs).
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("obs: write dump: %w", err)
	}
	return nil
}

// chromeSpan is one "X" (complete) event of the Chrome trace_event
// format; each (host, pid) gets its own track via metadata events.
type chromeSpan struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`  // microseconds
	Dur   float64           `json:"dur"` // microseconds
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]uint64 `json:"args,omitempty"`
}

// chromeInstant is one thread-scoped "i" (instant) event.
type chromeInstant struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat"`
	Phase string  `json:"ph"`
	Scope string  `json:"s"`
	TS    float64 `json:"ts"` // microseconds
	PID   int     `json:"pid"`
	TID   int     `json:"tid"`
}

type chromeMeta struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args"`
}

// WriteChrome serializes the dump's spans as Chrome trace_event JSON
// (open in chrome://tracing or Perfetto): one track per (host, process),
// spans as complete events with trace/span IDs in args, and HopEvent
// spans as instant events named after their Event. The flow table is
// not written; WriteJSON carries it.
func (d *Dump) WriteChrome(w io.Writer) error {
	type track struct {
		host string
		pid  int64
	}
	tids := map[track]int{}
	for _, sp := range d.Spans {
		k := track{sp.Host, sp.PID}
		if _, ok := tids[k]; !ok {
			tids[k] = 0
		}
	}
	keys := make([]track, 0, len(tids))
	for k := range tids {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].host != keys[j].host {
			return keys[i].host < keys[j].host
		}
		return keys[i].pid < keys[j].pid
	})
	out := make([]any, 0, len(d.Spans)+len(keys))
	for i, k := range keys {
		tids[k] = i + 1
		name := fmt.Sprintf("%s/pid%d", k.host, k.pid)
		if k.pid == 0 {
			name = k.host + "/monitor"
		}
		out = append(out, chromeMeta{
			Name: "thread_name", Phase: "M", PID: 1, TID: i + 1,
			Args: map[string]string{"name": name},
		})
	}
	for _, sp := range d.Spans {
		tid := tids[track{sp.Host, sp.PID}]
		if sp.Hop == HopEvent {
			out = append(out, chromeInstant{
				Name: Event(sp.Kind).String(), Cat: "obs", Phase: "i", Scope: "t",
				TS: float64(sp.Start) / 1e3, PID: 1, TID: tid,
			})
			continue
		}
		name := sp.Hop.String()
		if sp.Hop == HopApp {
			name = "op:" + sp.Op.String()
		}
		out = append(out, chromeSpan{
			Name: name, Cat: "obs", Phase: "X",
			TS:  float64(sp.Start) / 1e3,
			Dur: float64(sp.End-sp.Start) / 1e3,
			PID: 1, TID: tid,
			Args: map[string]uint64{
				"trace": sp.Trace, "span": sp.Span, "parent": sp.Parent,
				"kind": uint64(sp.Kind),
			},
		})
	}
	enc := json.NewEncoder(w)
	doc := struct {
		TraceEvents []any  `json:"traceEvents"`
		Unit        string `json:"displayTimeUnit"`
		Reason      string `json:"reason"`
		Note        string `json:"note"`
	}{TraceEvents: out, Unit: "ns", Reason: d.Name, Note: d.Note}
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("obs: write chrome trace: %w", err)
	}
	return nil
}

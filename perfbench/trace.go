package main

import (
	"encoding/json"
	"os"
	"time"

	sd "socksdirect"
)

// span is one call from the benchmark into the public sd API (or one
// whole op, named "op"), on both clocks.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Op     int64  `json:"op"`     // op id shared by the spans of one op; 0 for set-up calls
	Parent int64  `json:"parent"` // id of the enclosing span, 0 for none
	VStart int64  `json:"virt_start_ns"`
	VEnd   int64  `json:"virt_end_ns"`
	WStart int64  `json:"wall_start_ns"` // since the recorder was created
	WEnd   int64  `json:"wall_end_ns"`
	Err    bool   `json:"err,omitempty"`
}

// maxKeptSpans bounds the spans held for the output file; the per-name
// statistics below cover every span.
const maxKeptSpans = 200000

// callStats aggregates every span of one name.
type callStats struct {
	calls, errors int64
	virtNs        []int64
}

// recorder keeps the benchmark's spans in memory. A nil *recorder is an
// untraced round: begin and end then cost one nil check.
type recorder struct {
	base  time.Time
	spans []span
	ids   int64
	stats map[string]*callStats
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), stats: make(map[string]*callStats)}
}

// begin opens a span whose enclosing span has id parent (0 for none).
func (r *recorder) begin(t *sd.T, name string, op, parent int64) span {
	if r == nil {
		return span{}
	}
	r.ids++
	return span{ID: r.ids, Name: name, Op: op, Parent: parent, VStart: t.Now(), WStart: int64(time.Since(r.base))}
}

// end closes s and records it.
func (r *recorder) end(t *sd.T, s span, err error) {
	if r == nil {
		return
	}
	s.VEnd, s.WEnd, s.Err = t.Now(), int64(time.Since(r.base)), err != nil
	st := r.stats[s.Name]
	if st == nil {
		st = &callStats{}
		r.stats[s.Name] = st
	}
	st.calls++
	if s.Err {
		st.errors++
	}
	st.virtNs = append(st.virtNs, s.VEnd-s.VStart)
	if len(r.spans) < maxKeptSpans {
		r.spans = append(r.spans, s)
	}
}

// write stores the kept spans as JSON, in the order they ended.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

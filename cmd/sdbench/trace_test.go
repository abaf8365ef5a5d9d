package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestTraceFlag drives `sdbench -trace <file> table2` in process: the
// file must parse as Chrome trace_event JSON with "M" track metadata and
// at least one "X" span from the obs rings. An unwritable path exits 1
// and an unknown experiment exits 2.
func TestTraceFlag(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "sd-run.trace.json")
	var code int
	captureStdout(t, func() { code = run([]string{"-trace", out, "table2"}) })
	if code != 0 {
		t.Fatalf("sdbench -trace table2 exited %d, want 0", code)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Phase]++
	}
	if phases["M"] == 0 || phases["X"] == 0 {
		t.Fatalf("trace has phases %v, want M track metadata and X spans", phases)
	}

	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-trace", filepath.Join(dir, "missing", "x.json"), "table2"}, 1},
		{[]string{"-trace", out, "no-such-experiment"}, 2},
	} {
		captureStdout(t, func() { code = run(tc.args) })
		if code != tc.want {
			t.Errorf("sdbench %v exited %d, want %d", tc.args, code, tc.want)
		}
	}
}

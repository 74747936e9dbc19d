package bench

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestJSONStddevAndRuns checks the per-cell report fields derived from
// RepThroughputs: sample standard deviation and run count.
func TestJSONStddevAndRuns(t *testing.T) {
	ms := []*Measurement{{
		Fig: "3a", Workload: "hashtable", Algorithm: "pvrCAS",
		Threads: 2, Mix: ReadMostly, Ops: 300,
		Elapsed: time.Second, Throughput: 100,
		RepThroughputs: []float64{90, 100, 110},
	}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "stddev test", ms); err != nil {
		t.Fatal(err)
	}
	var f jsonFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.Label != "stddev test" || len(f.Cells) != 1 {
		t.Fatalf("label = %q, cells = %d", f.Label, len(f.Cells))
	}
	c := f.Cells[0]
	if c.Runs != 3 {
		t.Errorf("runs = %d, want 3", c.Runs)
	}
	if c.Stddev < 9.9 || c.Stddev > 10.1 { // sample stddev of {90,100,110} = 10
		t.Errorf("stddev = %.3f, want 10", c.Stddev)
	}
}

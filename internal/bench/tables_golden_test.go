package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bddkit/internal/model/gauntlet"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTable1CombinationalGolden pins the -json shape of a latch-free
// Table 1 row: the row must be emitted (not dropped) with "iterations": 0
// in every method, exact distinguishing-input counts in the states
// columns, and stable keys. Wall-clock fields are normalized; everything
// else in the row is deterministic.
func TestTable1CombinationalGolden(t *testing.T) {
	cfg := Table1Config{Circuits: []Table1Circuit{{
		Name:         "equiv-adder8f",
		Netlist:      gauntlet.MiterNetlist(8, true),
		RUAThreshold: 0, RUAQuality: 1.0,
		SPThreshold: 20,
		Budget:      30 * time.Second,
	}}}
	rows, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("combinational circuit produced %d rows, want 1", len(rows))
	}
	for i := range rows {
		for _, mr := range []*MethodResult{&rows[i].BFS, &rows[i].RUA, &rows[i].SP} {
			// The peak is the manager's high-water mark over compile and
			// subset, not the live count left at the end.
			if mr.PeakNodes < 1000 || mr.PeakNodes < mr.Nodes {
				t.Errorf("peak_nodes %d: want >= 1000 and >= nodes %d", mr.PeakNodes, mr.Nodes)
			}
			mr.Time = 0
			mr.PeakNodes = 0
		}
	}
	var buf bytes.Buffer
	if err := WriteTable1JSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"iterations": 0`)) {
		t.Fatalf("serialized row lacks an explicit zero iterations field:\n%s", buf.Bytes())
	}
	golden := filepath.Join("testdata", "table1_combinational.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("golden mismatch (run with -update to regenerate)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// syntheticRow builds a fully populated Table1Row scaled by k.
func syntheticRow(ckt string, k float64) Table1Row {
	mr := func(base time.Duration, peak int) MethodResult {
		return MethodResult{
			Time:        time.Duration(float64(base) * k),
			Done:        true,
			States:      65536,
			Nodes:       40,
			PeakNodes:   int(float64(peak) * k),
			CacheHit:    0.75,
			Iterations:  12,
			Images:      12,
			AndExists:   36,
			PeakProduct: 900,
			ImageTime:   time.Duration(float64(base) * k * 0.6),
			SubsetTime:  time.Duration(float64(base) * k * 0.1),
		}
	}
	return Table1Row{
		Ckt: ckt, FF: 16, States: 65536,
		BFS:   mr(2*time.Second, 50000),
		RUATh: 100, RUAQual: 1.0, RUAPImg: "NA", RUA: mr(1500*time.Millisecond, 30000),
		SPTh: 100, SPPImg: "NA", SP: mr(1800*time.Millisecond, 40000),
	}
}

// TestWriteTable1JSONRoundTrip round-trips rows through WriteTable1JSON's
// encoding and checks the per-phase breakdown survives with sane values.
func TestWriteTable1JSONRoundTrip(t *testing.T) {
	rows := []Table1Row{syntheticRow("counter", 1.0), syntheticRow("am2910", 1.3)}
	var buf bytes.Buffer
	if err := WriteTable1JSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Table string      `json:"table"`
		Rows  []Table1Row `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Table != "table1" || len(snap.Rows) != len(rows) {
		t.Fatalf("snapshot = %q/%d rows, want table1/%d", snap.Table, len(snap.Rows), len(rows))
	}
	for i, got := range snap.Rows {
		want := rows[i]
		if got != want {
			t.Fatalf("row %d changed across round trip:\ngot  %+v\nwant %+v", i, got, want)
		}
		for _, m := range []MethodResult{got.BFS, got.RUA, got.SP} {
			if m.Iterations <= 0 || m.Images <= 0 || m.AndExists <= 0 || m.PeakProduct <= 0 {
				t.Fatalf("row %d: phase counters not populated: %+v", i, m)
			}
			if m.ImageTime < 0 || m.SubsetTime < 0 || m.ClosureTime < 0 || m.Time < 0 {
				t.Fatalf("row %d: negative phase time: %+v", i, m)
			}
			if m.ImageTime+m.SubsetTime+m.ClosureTime > m.Time {
				t.Fatalf("row %d: phase times exceed total: %+v", i, m)
			}
		}
	}
}

// TestPrintTable1PartialRow: a row on which no method completes has no
// exact state count, so its States column prints "> N", N being the most
// states any method explored, as its time columns print "> t".
func TestPrintTable1PartialRow(t *testing.T) {
	row := syntheticRow("am2910", 1.0)
	row.States = 0
	for i, m := range []*MethodResult{&row.BFS, &row.RUA, &row.SP} {
		m.Done = false
		m.States = float64(100000 * (i + 1))
	}
	var buf bytes.Buffer
	PrintTable1(&buf, []Table1Row{row})
	line := strings.Split(buf.String(), "\n")[1]
	if cols := strings.Split(line, "|"); !strings.HasSuffix(strings.TrimSpace(cols[0]), " 16      > 3e+05") {
		t.Fatalf("partial row prints %q, want the States column \"> 3e+05\"", line)
	}
}

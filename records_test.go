package repro

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
)

// TestCommittedBenchRecords decodes every BENCH_*.json at the repo root
// through the one BENCH reader: each must be the current schema, name
// its experiment and carry at least one row, every value finite.
func TestCommittedBenchRecords(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json records at the repo root")
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := bench.ReadRecord(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if rec.Experiment == "" || len(rec.Rows) == 0 {
			t.Errorf("%s: experiment %q with %d rows", path, rec.Experiment, len(rec.Rows))
		}
		for _, row := range rec.Rows {
			if math.IsNaN(row.Value) || math.IsInf(row.Value, 0) {
				t.Errorf("%s: %s %s = %v", path, row.Name, row.Metric, row.Value)
			}
		}
	}
}

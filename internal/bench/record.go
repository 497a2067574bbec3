package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"

	"repro/internal/ffi"
)

// Schema versions the BENCH record layout: Write stamps it and
// ReadRecord accepts no other.
const Schema = 2

// Record is one experiment's results in the one layout every BENCH
// artifact uses: what was measured is a list of rows, and what fixed the
// measurement — iteration counts, the world's shape, the policy — is
// config. Each experiment builds its record from its typed results, so
// the text a Format* function prints and the record's rows are the same
// numbers.
type Record struct {
	Schema     int               `json:"schema"`
	Experiment string            `json:"experiment"`
	Env        Env               `json:"env"`
	Config     map[string]string `json:"config"`
	Rows       []Row             `json:"rows"`
}

// Env is the build and machine a record was measured on.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// GateCost is ffi.DefaultGateCost, the modelled WRPKRU's spin
	// iterations: every timed figure scales with it.
	GateCost int `json:"gate_cost"`
	// Revision is the VCS revision the binary was built from, when its
	// build info has one, suffixed "+dirty" when the tree had edits.
	Revision string `json:"revision,omitempty"`
}

// Row is one measured quantity: Metric of Name in Unit, summarising N
// samples. Name is what was measured — a benchmark, a scenario, a
// tenant, or, for a whole-run figure, the experiment itself. N counts
// the timed calls behind a timing, the requests behind a latency
// quantile, and is 1 for a count or a single reading.
type Row struct {
	Name   string  `json:"name"`
	Metric string  `json:"metric"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Value  float64 `json:"value"`
}

// NewRecord starts a record of experiment measured in this process.
func NewRecord(experiment string, config map[string]string) *Record {
	env := Env{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), GateCost: ffi.DefaultGateCost}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				env.Revision = s.Value + env.Revision
			case s.Key == "vcs.modified" && s.Value == "true":
				env.Revision += "+dirty"
			}
		}
	}
	return &Record{Schema: Schema, Experiment: experiment, Env: env, Config: config}
}

// Add appends a row.
func (r *Record) Add(name, metric, unit string, n int, value float64) {
	r.Rows = append(r.Rows, Row{Name: name, Metric: metric, Unit: unit, N: n, Value: value})
}

// Write encodes the record as indented JSON. A non-finite value is an
// error naming its row: JSON cannot carry it, and it explains nothing.
func (r *Record) Write(w io.Writer) error {
	for _, row := range r.Rows {
		if math.IsNaN(row.Value) || math.IsInf(row.Value, 0) {
			return fmt.Errorf("bench: %s record: %s %s = %v", r.Experiment, row.Name, row.Metric, row.Value)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("bench: encoding %s record: %w", r.Experiment, err)
	}
	return nil
}

// ReadRecord decodes a record Write produced.
func ReadRecord(rd io.Reader) (*Record, error) {
	var r Record
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: decoding record: %w", err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("bench: record schema %d, want %d", r.Schema, Schema)
	}
	return &r, nil
}

package bench

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// roundTrip writes rec and reads it back through the shared reader: the
// decoded record must equal the written one.
func roundTrip(t *testing.T, rec *Record) *Record {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecord(&buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", got, rec)
	}
	if got.Schema != Schema || got.Env.GoVersion == "" || got.Env.GOMAXPROCS < 1 || got.Env.GateCost <= 0 {
		t.Errorf("record header = schema %d, env %+v", got.Schema, got.Env)
	}
	return got
}

// wantRow checks that rec carries name's metric row with value v: a
// quantity the experiment's Format text prints.
func wantRow(t *testing.T, rec *Record, name, metric string, v float64) {
	t.Helper()
	got, ok := rowValue(rec, name, metric)
	if !ok {
		t.Errorf("%s record: no %s %s row", rec.Experiment, name, metric)
	} else if got != v {
		t.Errorf("%s record: %s %s = %v, want %v", rec.Experiment, name, metric, got, v)
	}
}

// rowValue returns the value of name's metric row.
func rowValue(rec *Record, name, metric string) (float64, bool) {
	for _, row := range rec.Rows {
		if row.Name == name && row.Metric == metric {
			return row.Value, true
		}
	}
	return 0, false
}

func TestRecordWriteRead(t *testing.T) {
	rec := NewRecord("demo", nil)
	rec.Add("demo", "bad", "ratio", 1, math.NaN())
	if err := rec.Write(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "demo bad") {
		t.Errorf("NaN row: err = %v, want one naming the row", err)
	}
	if _, err := ReadRecord(strings.NewReader(`{"schema": 1, "experiment": "old", "rows": []}`)); err == nil {
		t.Error("schema 1 record accepted")
	}
}

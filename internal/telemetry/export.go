package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// SnapshotSchema versions the JSON snapshot layout. Bump it when the
// shape of Snapshot/MetricSnapshot/SeriesSnapshot changes incompatibly.
const SnapshotSchema = 1

// Snapshot is a point-in-time copy of every registered metric, the
// JSON-exportable form of a run's telemetry.
type Snapshot struct {
	Schema  int              `json:"schema"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one family.
type MetricSnapshot struct {
	Name   string           `json:"name"`
	Kind   string           `json:"kind"`
	Help   string           `json:"help,omitempty"`
	Unit   string           `json:"unit,omitempty"`
	Labels []string         `json:"labels,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one labeled instance. Value is set for counters and
// gauges; Count/Sum/P50/P95/P99 (and any exemplars) for histograms.
type SeriesSnapshot struct {
	LabelValues []string   `json:"label_values,omitempty"`
	Value       float64    `json:"value,omitempty"`
	Count       uint64     `json:"count,omitempty"`
	Sum         uint64     `json:"sum,omitempty"`
	P50         float64    `json:"p50,omitempty"`
	P95         float64    `json:"p95,omitempty"`
	P99         float64    `json:"p99,omitempty"`
	Exemplars   []Exemplar `json:"exemplars,omitempty"`
}

// Snapshot captures every family. A nil registry yields an empty (but
// schema-stamped) snapshot.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{Schema: SnapshotSchema}
	if r == nil {
		return snap
	}
	for _, f := range r.sortedFamilies() {
		m := MetricSnapshot{
			Name:   f.name,
			Kind:   f.kind.String(),
			Help:   f.help,
			Unit:   f.unit,
			Labels: f.labels,
		}
		for _, s := range f.sortedSeries() {
			ss := SeriesSnapshot{LabelValues: s.values}
			switch f.kind {
			case KindCounter:
				ss.Value = float64(s.counter.Value())
			case KindGauge:
				ss.Value = s.gauge.Value()
			case KindHistogram:
				buckets, count, sum := s.hist.snapshot()
				ss.Count, ss.Sum = count, sum
				ss.P50 = quantileFromBuckets(buckets[:], count, 0.50)
				ss.P95 = quantileFromBuckets(buckets[:], count, 0.95)
				ss.P99 = quantileFromBuckets(buckets[:], count, 0.99)
				ss.Exemplars = s.hist.Exemplars()
			}
			m.Series = append(m.Series, ss)
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// escapeLabel escapes a label value per the Prometheus exposition rules.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// labelPairs renders {k="v",...} for the series, with an extra le pair
// appended when le != "".
func labelPairs(names, values []string, le string) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `le="%s"`, le)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4). Histograms are rendered as cumulative _bucket
// series with power-of-two le bounds (only up to the highest occupied
// bucket), plus _sum and _count. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind.String()); err != nil {
			return err
		}
		for _, s := range f.sortedSeries() {
			switch f.kind {
			case KindCounter:
				if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelPairs(f.labels, s.values, ""), s.counter.Value()); err != nil {
					return err
				}
			case KindGauge:
				if _, err := fmt.Fprintf(w, "%s%s %v\n", f.name, labelPairs(f.labels, s.values, ""), s.gauge.Value()); err != nil {
					return err
				}
			case KindHistogram:
				if err := writePromHistogram(w, f, s); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, f *family, s *series) error {
	buckets, count, sum := s.hist.snapshot()
	top := -1
	for i, c := range buckets {
		if c > 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += buckets[i]
		le := fmt.Sprintf("%d", bucketUpper(i))
		// OpenMetrics-style exemplar suffix. The value precedes the "#", so
		// plain 0.0.4 parsers (including this repo's promparse test parser,
		// which takes the first field after the metric name) still read the
		// bucket count unchanged.
		var ex string
		if e, ok := s.hist.exemplar(i); ok {
			ex = fmt.Sprintf(` # {trace_id="%s"} %d`, escapeLabel(e.TraceID), e.Value)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name, labelPairs(f.labels, s.values, le), cum, ex); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelPairs(f.labels, s.values, "+Inf"), count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", f.name, labelPairs(f.labels, s.values, ""), sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelPairs(f.labels, s.values, ""), count)
	return err
}

// FormatTable renders a snapshot as an aligned, human-readable table —
// what `pkrusafe stats` prints. Counter and gauge rows show the value;
// histogram rows show count, sum and the three exported quantiles (with
// durations pretty-printed when the unit is "ns").
func FormatTable(snap *Snapshot) string {
	rows := [][3]string{{"METRIC", "LABELS", "VALUE"}}
	for _, m := range snap.Metrics {
		for _, s := range m.Series {
			var labels []string
			for i, n := range m.Labels {
				if i < len(s.LabelValues) {
					labels = append(labels, n+"="+s.LabelValues[i])
				}
			}
			var val string
			switch m.Kind {
			case "histogram":
				val = fmt.Sprintf("n=%d sum=%s p50=%s p95=%s p99=%s",
					s.Count, formatUnit(float64(s.Sum), m.Unit),
					formatUnit(s.P50, m.Unit), formatUnit(s.P95, m.Unit), formatUnit(s.P99, m.Unit))
			default:
				val = trimFloat(s.Value)
			}
			rows = append(rows, [3]string{m.Name, strings.Join(labels, ","), val})
		}
	}
	w0, w1 := 0, 0
	for _, r := range rows {
		if len(r[0]) > w0 {
			w0 = len(r[0])
		}
		if len(r[1]) > w1 {
			w1 = len(r[1])
		}
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %-*s  %s\n", w0, r[0], w1, r[1], r[2])
	}
	return b.String()
}

// formatUnit pretty-prints v in the family's unit ("ns" becomes a
// duration; anything else keeps the raw number).
func formatUnit(v float64, unit string) string {
	if unit == "ns" {
		return time.Duration(v).Round(time.Nanosecond).String()
	}
	return trimFloat(v)
}

// trimFloat drops the trailing ".0*" noise off integral values.
func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// sortSeriesSnapshots orders series for deterministic output (used by
// tests poking at snapshots directly).
func sortSeriesSnapshots(ss []SeriesSnapshot) {
	sort.Slice(ss, func(i, j int) bool {
		return strings.Join(ss[i].LabelValues, ",") < strings.Join(ss[j].LabelValues, ",")
	})
}

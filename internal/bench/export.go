package bench

import "strconv"

// SuiteRecord is a suite run's BENCH record: each benchmark's three
// timings, its alloc and mpk overheads, transitions, %MU and telemetry
// (Figures 4-7), the means of the suite and of each Dromaeo sub-suite
// (Tables 1 and 2; rows "<suite>" and "<suite>/<sub>") and the suite's
// geometric-mean scores (Table 3). A benchmark's sub-suite is config
// ("<benchmark>.sub").
func SuiteRecord(r SuiteReport, opt Options) *Record {
	opt.fill()
	rec := NewRecord(r.Suite, map[string]string{
		"suite":   r.Suite,
		"scale":   strconv.FormatFloat(opt.Scale, 'g', -1, 64),
		"repeats": strconv.Itoa(opt.Repeats),
	})
	for _, res := range r.Results {
		name := res.Bench.Name
		if res.Bench.Sub != "" {
			rec.Config[name+".sub"] = res.Bench.Sub
		}
		rec.Add(name, "base_s", "s", opt.Repeats, res.Base.Seconds)
		rec.Add(name, "alloc_s", "s", opt.Repeats, res.Alloc.Seconds)
		rec.Add(name, "mpk_s", "s", opt.Repeats, res.MPK.Seconds)
		rec.Add(name, "alloc_overhead", "ratio", opt.Repeats, res.AllocOverhead())
		rec.Add(name, "mpk_overhead", "ratio", opt.Repeats, res.MPKOverhead())
		rec.Add(name, "transitions", "count", 1, float64(res.MPK.Transitions))
		rec.Add(name, "mu_share", "ratio", 1, res.MPK.UntrustedShare)
		rec.Rows = append(rec.Rows, res.Telemetry...)
	}
	if subs := r.Subs(); len(subs) > 1 {
		for _, sub := range subs {
			sub.Suite = r.Suite + "/" + sub.Suite
			addSuiteMeans(rec, sub)
		}
	}
	addSuiteMeans(rec, r)
	n := len(r.Results)
	rec.Add(r.Suite, "score_base", "1/s", n, r.GeomeanScore(func(b BenchResult) float64 { return b.Base.Seconds }))
	rec.Add(r.Suite, "score_alloc", "1/s", n, r.GeomeanScore(func(b BenchResult) float64 { return b.Alloc.Seconds }))
	rec.Add(r.Suite, "score_mpk", "1/s", n, r.GeomeanScore(func(b BenchResult) float64 { return b.MPK.Seconds }))
	return rec
}

// addSuiteMeans adds r's Table 1 row: mean overheads, total transitions
// and mean %MU.
func addSuiteMeans(rec *Record, r SuiteReport) {
	n := len(r.Results)
	rec.Add(r.Suite, "mean_alloc_overhead", "ratio", n, r.MeanAllocOverhead())
	rec.Add(r.Suite, "mean_mpk_overhead", "ratio", n, r.MeanMPKOverhead())
	rec.Add(r.Suite, "transitions", "count", n, float64(r.TotalTransitions()))
	rec.Add(r.Suite, "mu_share", "ratio", n, r.MeanUntrustedShare())
}

package bench

import (
	"fmt"
	"strings"

	"repro/internal/browser"
	"repro/internal/core"
)

// FormatTable1 renders the paper's Table 1: per-suite mean overheads,
// transition counts and %MU.
func FormatTable1(reports []SuiteReport) string {
	var b strings.Builder
	b.WriteString("Table 1: Servo-sim mean benchmark overhead and statistics\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %14s %8s\n", "suite", "alloc", "mpk", "transitions", "%MU")
	for _, r := range reports {
		fmt.Fprintf(&b, "%-12s %7.2f%% %7.2f%% %14d %7.2f%%\n",
			r.Suite,
			100*r.MeanAllocOverhead(),
			100*r.MeanMPKOverhead(),
			r.TotalTransitions(),
			100*r.MeanUntrustedShare())
	}
	return b.String()
}

// FormatTable2 renders Table 2: the Dromaeo sub-suite breakdown.
func FormatTable2(dromaeo SuiteReport) string {
	var b strings.Builder
	b.WriteString("Table 2: Dromaeo benchmark overhead and statistics\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %14s %8s\n", "sub-suite", "alloc", "mpk", "transitions", "%MU")
	for _, sub := range dromaeo.Subs() {
		fmt.Fprintf(&b, "%-10s %7.2f%% %7.2f%% %14d %7.2f%%\n",
			sub.Suite,
			100*sub.MeanAllocOverhead(),
			100*sub.MeanMPKOverhead(),
			sub.TotalTransitions(),
			100*sub.MeanUntrustedShare())
	}
	fmt.Fprintf(&b, "%-10s %7.2f%% %7.2f%%\n", "mean",
		100*dromaeo.MeanAllocOverhead(), 100*dromaeo.MeanMPKOverhead())
	return b.String()
}

// FormatTable3 renders Table 3: JetStream2 overall geometric-mean scores.
func FormatTable3(js SuiteReport) string {
	base := js.GeomeanScore(func(r BenchResult) float64 { return r.Base.Seconds })
	alloc := js.GeomeanScore(func(r BenchResult) float64 { return r.Alloc.Seconds })
	mpk := js.GeomeanScore(func(r BenchResult) float64 { return r.MPK.Seconds })
	var b strings.Builder
	b.WriteString("Table 3: JetStream2 overall scores (geometric mean; higher is better)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s\n", "", "base", "alloc", "mpk")
	fmt.Fprintf(&b, "%-10s %10.2f %10.2f %10.2f\n", "score", base, alloc, mpk)
	if base > 0 {
		fmt.Fprintf(&b, "%-10s %10s %9.2f%% %9.2f%%\n", "overhead", "-",
			100*(base/alloc-1), 100*(base/mpk-1))
	}
	return b.String()
}

// FormatFigure renders a per-benchmark normalized-runtime figure
// (Figures 4-7): one row per benchmark with alloc and mpk bars.
func FormatFigure(title string, r SuiteReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (normalized runtime; 1.00 = base)\n", title)
	nameW := 4
	for _, res := range r.Results {
		if len(res.Bench.Name) > nameW {
			nameW = len(res.Bench.Name)
		}
	}
	for _, res := range r.Results {
		an := 1 + res.AllocOverhead()
		mn := 1 + res.MPKOverhead()
		fmt.Fprintf(&b, "%-*s  alloc %5.2f %s\n", nameW, res.Bench.Name, an, bar(an))
		fmt.Fprintf(&b, "%-*s  mpk   %5.2f %s\n", nameW, "", mn, bar(mn))
	}
	return b.String()
}

// bar renders a normalized value as a text bar anchored at 1.0 = 25 chars.
func bar(v float64) string {
	n := int(v * 25)
	if n < 0 {
		n = 0
	}
	if n > 75 {
		n = 75
	}
	return strings.Repeat("=", n)
}

// SitesResult is the allocation-site statistic of §5.3 ("274 of Servo's
// 12088 allocation sites", 2.26%).
type SitesResult struct {
	TotalSites     int
	SharedSites    int
	SharedPercent  float64
	ProfiledFaults int
}

// RunSites runs the standard corpus through the pipeline and reports how
// many of the browser's allocation sites the profile moved to MU.
func RunSites() (SitesResult, error) {
	prof, err := browser.CollectProfile(browser.StandardCorpus)
	if err != nil {
		return SitesResult{}, err
	}
	b, err := browser.New(core.MPK, prof)
	if err != nil {
		return SitesResult{}, err
	}
	if err := browser.StandardCorpus(b); err != nil {
		return SitesResult{}, err
	}
	rep := b.Prog.Report()
	res := SitesResult{
		TotalSites:  rep.TotalSites,
		SharedSites: rep.UntrustedSites,
	}
	if rep.TotalSites > 0 {
		res.SharedPercent = 100 * float64(rep.UntrustedSites) / float64(rep.TotalSites)
	}
	res.ProfiledFaults = prof.Len()
	return res, nil
}

// FormatSites renders the allocation-site statistics.
func FormatSites(r SitesResult) string {
	return fmt.Sprintf(
		"Allocation-site statistics (cf. §5.3: 274 of 12088 sites, 2.26%%)\n"+
			"total sites: %d\nshared sites (moved to MU): %d (%.2f%%)\nprofiled shared sites: %d\n",
		r.TotalSites, r.SharedSites, r.SharedPercent, r.ProfiledFaults)
}

// Command pkru-profile manipulates sharing profiles, supporting the
// paper's workflow of assembling the deployment profile from many
// profiling runs (§5.3 merges Web Platform Tests, jQuery, Web-IDL and
// Selenium browsing sessions into one corpus):
//
//	pkru-profile show  a.prof            list shared sites with counters
//	pkru-profile merge a.prof b.prof ... -o combined.prof
//	pkru-profile diff  a.prof b.prof     sites in a missing from b
//
// A non-empty diff against the deployed profile is exactly the situation
// §6 warns about: flows the corpus missed will crash the enforced build.
//
// The same subcommands also operate on a *generational profile store*
// (docs/profiling.md) when given -store:
//
//	pkru-profile show  -store s.json                 list generations
//	pkru-profile merge -store s.json d.prof ...      commit a generation
//	                   [-promote]                    ... and activate it
//	pkru-profile diff  -store s.json [-from N -to M -window W]
//	pkru-profile serve -store s.json [-listen addr]  serve /profile et al.
//
// Store diffs additionally surface re-tighten candidates: sites that have
// not been observed crossing for `window` generations, i.e. the MU→MT
// demotions a fresh profiling run would discover.
//
// Every subcommand accepts -metrics / -metrics-json to export telemetry
// about the processed profiles (profiles loaded, sites seen/merged/
// missing, fault and byte totals) in Prometheus text or JSON form, for
// parity with pkrusafe and pkru-bench; "-" writes to stdout. Flags may
// appear anywhere on the command line.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/profstore"
	"repro/internal/telemetry"
)

// tool bundles the telemetry the profile operations report into.
type tool struct {
	reg          *telemetry.Registry
	loaded       *telemetry.Counter
	sitesSeen    *telemetry.Counter
	faultsSeen   *telemetry.Counter
	bytesSeen    *telemetry.Counter
	sitesMerged  *telemetry.Counter
	sitesMissing *telemetry.Counter
}

func newTool() *tool {
	reg := telemetry.NewRegistry()
	return &tool{
		reg:          reg,
		loaded:       reg.Counter("pkruprofile_profiles_loaded_total", "Profile files read."),
		sitesSeen:    reg.Counter("pkruprofile_sites_seen_total", "Shared allocation sites across all loaded profiles."),
		faultsSeen:   reg.Counter("pkruprofile_faults_seen_total", "Recorded faults across all loaded profiles."),
		bytesSeen:    reg.Counter("pkruprofile_bytes_seen_total", "Recorded bytes across all loaded profiles."),
		sitesMerged:  reg.Counter("pkruprofile_sites_merged_total", "Distinct sites in the merged output profile."),
		sitesMissing: reg.Counter("pkruprofile_sites_missing_total", "Sites the diff found missing from the second profile."),
	}
}

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var metrics, metricsJSON, storePath string
	args = stripFlag(args, "-metrics", &metrics)
	args = stripFlag(args, "-metrics-json", &metricsJSON)
	args = stripFlag(args, "-store", &storePath)

	tl := newTool()
	status := 0
	switch cmd {
	case "show":
		if storePath != "" {
			showStore(tl, storePath)
			break
		}
		if len(args) < 1 {
			usage()
		}
		p := tl.load(args[0])
		fmt.Printf("%d shared allocation site(s)\n", p.Len())
		for _, id := range p.IDs() {
			rec, _ := p.Get(id)
			fmt.Printf("  %-40s faults=%-8d bytes=%d\n", id, rec.Faults, rec.Bytes)
		}

	case "merge":
		if storePath != "" {
			mergeStore(tl, storePath, args)
			break
		}
		var out string
		inputs := stripFlag(args, "-o", &out)
		if len(inputs) == 0 || out == "" {
			usage()
		}
		merged := profile.New()
		for _, in := range inputs {
			merged.Merge(tl.load(in))
		}
		tl.sitesMerged.Add(uint64(merged.Len()))
		data, err := json.MarshalIndent(merged, "", "  ")
		exitOn(err)
		exitOn(os.WriteFile(out, data, 0o644))
		fmt.Printf("merged %d profile(s): %d shared sites -> %s\n", len(inputs), merged.Len(), out)

	case "diff":
		if storePath != "" {
			status = diffStore(storePath, args)
			break
		}
		if len(args) < 2 {
			usage()
		}
		a, b := tl.load(args[0]), tl.load(args[1])
		onlyA := a.Diff(b)
		tl.sitesMissing.Add(uint64(len(onlyA)))
		if len(onlyA) == 0 {
			fmt.Printf("%s ⊆ %s: every site covered\n", args[0], args[1])
		} else {
			fmt.Printf("%d site(s) in %s missing from %s (enforced builds using the latter would crash on these):\n",
				len(onlyA), args[0], args[1])
			for _, id := range onlyA {
				fmt.Printf("  %s\n", id)
			}
			status = 1
		}

	case "serve":
		if storePath == "" {
			usage()
		}
		serveStore(storePath, args)

	default:
		usage()
	}

	if metrics != "" {
		exitOn(cli.WriteTo(metrics, tl.reg.WritePrometheus))
	}
	if metricsJSON != "" {
		exitOn(cli.WriteTo(metricsJSON, tl.reg.Snapshot().WriteJSON))
	}
	os.Exit(status)
}

// showStore lists a store's generations and the active generation's sites.
func showStore(t *tool, path string) {
	s, err := profstore.LoadFile(path)
	exitOn(err)
	t.loaded.Inc()
	fmt.Printf("profile store %s: %d generation(s), active %d\n", path, s.Len(), s.ActiveSeq())
	for i := 0; i < s.Len(); i++ {
		g, _ := s.Generation(i)
		mark := " "
		if g.Seq == s.ActiveSeq() {
			mark = "*"
		}
		parent := "-"
		if g.Parent >= 0 {
			parent = strconv.Itoa(g.Parent)
		}
		fmt.Printf("  #%d%s source=%-8s parent=%-2s sites=%d\n", g.Seq, mark, g.Source, parent, g.Sites.Len())
	}
	active := s.Active()
	t.sitesSeen.Add(uint64(active.Sites.Len()))
	if active.Sites.Len() > 0 {
		fmt.Printf("active generation %d sites:\n", active.Seq)
		for _, id := range active.Sites.IDs() {
			rec, _ := active.Sites.Get(id)
			last, _ := s.LastSeen(id)
			fmt.Printf("  %-40s faults=%-8d bytes=%-10d last_seen=%d\n", id, rec.Faults, rec.Bytes, last)
		}
	}
}

// mergeStore commits the given delta profiles as one new generation
// (creating the store if the file does not exist yet), optionally
// promoting it immediately with -promote.
func mergeStore(t *tool, path string, args []string) {
	args, promote := stripBool(args, "-promote")
	if len(args) == 0 {
		usage()
	}
	s, err := profstore.LoadFileOrNew(path)
	exitOn(err)
	delta := profile.New()
	for _, in := range args {
		delta.Merge(t.load(in))
	}
	gen := s.Commit(delta, "merge")
	t.sitesMerged.Add(uint64(gen.Sites.Len()))
	fmt.Printf("committed generation %d (source merge, %d site(s)) -> %s\n", gen.Seq, gen.Sites.Len(), path)
	if promote {
		exitOn(s.Promote(gen.Seq))
		fmt.Printf("promoted generation %d\n", gen.Seq)
	}
	exitOn(s.SaveFile(path))
}

// diffStore prints a deterministic generation diff with the re-tighten
// section. Defaults compare the active generation against its parent.
func diffStore(path string, args []string) int {
	s, err := profstore.LoadFile(path)
	exitOn(err)
	active := s.Active()
	from, to := active.Parent, active.Seq
	if from < 0 {
		from = active.Seq
	}
	window := 0
	args = stripInt(args, "-from", &from)
	args = stripInt(args, "-to", &to)
	args = stripInt(args, "-window", &window)
	if len(args) != 0 {
		usage()
	}
	d, err := s.Diff(from, to, window)
	exitOn(err)
	fmt.Printf("store diff: generation %d -> %d\n", d.From, d.To)
	fmt.Printf("added (%d):\n", len(d.Added))
	for _, site := range d.Added {
		fmt.Printf("  + %s\n", site)
	}
	fmt.Printf("removed (%d):\n", len(d.Removed))
	for _, site := range d.Removed {
		fmt.Printf("  - %s\n", site)
	}
	fmt.Printf("retained (%d):\n", len(d.Retained))
	for _, site := range d.Retained {
		fmt.Printf("  = %s\n", site)
	}
	fmt.Printf("re-tighten candidates (window %d, proposed MU->MT demotions) (%d):\n", d.Window, len(d.Retighten))
	for _, c := range d.Retighten {
		fmt.Printf("  ~ %s last crossed in generation %d\n", c.Site, c.LastSeen)
	}
	if len(d.Retighten) > 0 {
		return 1
	}
	return 0
}

// serveStore exposes a persisted store over the observability endpoints
// (/profile, /profile/diff) and blocks until interrupted.
func serveStore(path string, args []string) {
	listen := "127.0.0.1:0"
	args = stripFlag(args, "-listen", &listen)
	if len(args) != 0 {
		usage()
	}
	s, err := profstore.LoadFile(path)
	exitOn(err)
	reg := telemetry.NewRegistry()
	s.SetTelemetry(reg)
	srv, err := obs.ListenAndServe(listen, obs.ServerConfig{Registry: reg, Profiles: s})
	exitOn(err)
	fmt.Fprintf(os.Stderr, "pkru-profile: profile server on %s (Ctrl-C to stop)\n", srv.URL())
	select {}
}

// stripFlag removes "name value" from args wherever it appears (matching
// the historical anywhere-on-the-line parsing) and stores the value.
func stripFlag(args []string, name string, value *string) []string {
	out := args[:0:0]
	for i := 0; i < len(args); i++ {
		if args[i] == name && i+1 < len(args) {
			*value = args[i+1]
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// stripInt is stripFlag for integer-valued flags.
func stripInt(args []string, name string, value *int) []string {
	var s string
	args = stripFlag(args, name, &s)
	if s != "" {
		n, err := strconv.Atoi(s)
		exitOn(err)
		*value = n
	}
	return args
}

// stripBool removes a valueless flag from args, reporting its presence.
func stripBool(args []string, name string) ([]string, bool) {
	out := args[:0:0]
	found := false
	for _, a := range args {
		if a == name {
			found = true
			continue
		}
		out = append(out, a)
	}
	return out, found
}

func (t *tool) load(path string) *profile.Profile {
	data, err := os.ReadFile(path)
	exitOn(err)
	p := profile.New()
	exitOn(json.Unmarshal(data, p))
	t.loaded.Inc()
	t.sitesSeen.Add(uint64(p.Len()))
	for _, id := range p.IDs() {
		rec, _ := p.Get(id)
		t.faultsSeen.Add(rec.Faults)
		t.bytesSeen.Add(rec.Bytes)
	}
	return p
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pkru-profile show  <a.prof>
  pkru-profile merge <a.prof> [b.prof ...] -o <out.prof>
  pkru-profile diff  <a.prof> <b.prof>

generational store mode (docs/profiling.md):
  pkru-profile show  -store <s.json>
  pkru-profile merge -store <s.json> <delta.prof> [...] [-promote]
  pkru-profile diff  -store <s.json> [-from N] [-to M] [-window W]
  pkru-profile serve -store <s.json> [-listen addr]

flags (any subcommand, anywhere on the line):
  -metrics <path>       write Prometheus metrics ("-" = stdout)
  -metrics-json <path>  write a JSON metrics snapshot ("-" = stdout)`)
	os.Exit(2)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pkru-profile:", err)
		os.Exit(1)
	}
}

// Command lrbench regenerates the paper's tables and figures from the
// simulation. Each experiment prints the same rows/series the paper
// reports (Sec. 5): Table 1 (feature costs), Table 2 (main comparison),
// Table 3 (accuracy-optimized baselines), Table 4 (per-feature
// effectiveness), Figure 2 (motivation curve), Figure 3 (latency
// breakdown), Figure 4 (branch coverage), Figure 5 (switching-cost
// heatmaps), plus the design ablations (DESIGN.md §5).
//
// Usage:
//
//	lrbench -exp table2           # one experiment
//	lrbench -exp all              # everything
//	lrbench -exp table2 -scale small   # quick, small fixture
//
// Stdout is deterministic: `-scale small` and `-scale full` reproduce
// internal/report/testdata/paper_{small,full}.golden byte for byte.
package main

import (
	"flag"
	"log"
	"os"
	"strings"
	"time"

	"litereconfig/internal/fixture"
	"litereconfig/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lrbench: ")

	exp := flag.String("exp", "all", "comma-separated experiments: table1..table4, fig2..fig5, ablations or all")
	scale := flag.String("scale", "full", "fixture scale: small (seconds) or full (tens of seconds)")
	flag.Parse()

	build := map[string]func() (*fixture.Setup, error){"small": fixture.Small, "full": fixture.Full}[*scale]
	if build == nil {
		log.Fatalf("unknown scale %q", *scale)
	}
	t0 := time.Now()
	set, err := build()
	if err != nil {
		log.Fatalf("fixture: %v", err)
	}
	log.Printf("fixture ready in %v (%d branches, %d val videos)",
		time.Since(t0).Round(time.Millisecond), len(set.Models.Branches), len(set.Corpus.Val))

	var names []string
	for _, e := range strings.Split(*exp, ",") {
		names = append(names, strings.TrimSpace(e))
	}
	res, err := report.Run(set, names)
	if err != nil {
		log.Fatal(err)
	}
	for i, name := range res.Names {
		log.Printf("%s done in %v", name, res.Elapsed[i].Round(time.Millisecond))
	}
	if err := res.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

package cli

import (
	"fmt"
	"io"
	"strings"
	"time"

	"litereconfig/internal/fixture"
	"litereconfig/internal/report"
)

// paperCmd regenerates the paper's tables and figures (Table 1–4,
// Figures 2–5) and the design ablations through report.Run. Stdout is
// deterministic: -scale small and -scale full reproduce
// internal/report/testdata/paper_{small,full}.golden byte for byte.
//
//	lr paper -exp table2 -scale small
func paperCmd(args []string, stdout, stderr io.Writer) error {
	fs, lg := newCommand("paper", stderr)
	exp := fs.String("exp", "all", "comma-separated experiments: table1..table4, fig2..fig5, ablations or all")
	scale := fs.String("scale", "full", "fixture scale: small (seconds) or full (tens of seconds)")
	if err := parse(fs, args); err != nil {
		return err
	}

	build := map[string]func() (*fixture.Setup, error){"small": fixture.Small, "full": fixture.Full}[*scale]
	if build == nil {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	t0 := time.Now()
	set, err := build()
	if err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	lg.Printf("fixture ready in %v (%d branches, %d val videos)",
		time.Since(t0).Round(time.Millisecond), len(set.Models.Branches), len(set.Corpus.Val))

	var names []string
	for _, e := range strings.Split(*exp, ",") {
		names = append(names, strings.TrimSpace(e))
	}
	res, err := report.Run(set, names)
	if err != nil {
		return err
	}
	for i, name := range res.Names {
		lg.Printf("%s done in %v", name, res.Elapsed[i].Round(time.Millisecond))
	}
	return res.Write(stdout)
}

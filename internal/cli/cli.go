// Package cli implements the lr command: one binary whose subcommands
// (train, run, paper, serve, fleet, load, replay; see commands) drive
// every experiment of the reproduction, the way the paper artifact's
// LiteReconfig.py does with one script and shared flags.
//
// Each subcommand parses its own flag set and returns an error instead
// of exiting; Main maps the outcome to an exit status. The option
// groups that several subcommands share (model bundle, device, seed,
// stream mix, board shape, faults and output files) are registered by
// one function each in options.go.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
)

// command is one lr subcommand.
type command struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) error
}

var commands = []command{
	{"train", "train the scheduler's predictors and write a model bundle", trainCmd},
	{"run", "run one protocol on one device under an SLO", runCmd},
	{"paper", "regenerate the paper's tables and figures", paperCmd},
	{"serve", "serve many streams on one simulated board", serveCmd},
	{"fleet", "place and migrate streams over a fleet of boards", fleetCmd},
	{"load", "run an open-loop workload scenario against the fleet", loadCmd},
	{"replay", "replay recorded decision traces, verbatim or what-if", replayCmd},
}

// Main runs the subcommand named by args[0] and returns the process
// exit status: 0 on success, 1 when the command fails, 2 on a usage
// error.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		err := c.run(args[1:], stdout, stderr)
		var pe parseError
		switch {
		case err == nil:
			return 0
		case errors.As(err, &pe) && errors.Is(pe.error, flag.ErrHelp):
			return 0
		case errors.As(err, &pe):
			return 2 // the flag set has already reported it
		}
		fmt.Fprintf(stderr, "lr %s: %v\n", c.name, err)
		return 1
	}
	fmt.Fprintf(stderr, "lr: unknown command %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: lr <command> [flags]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-7s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "\nRun lr <command> -h for the command's flags.")
}

// parseError marks a flag error that the flag set has already printed.
type parseError struct{ error }

// newCommand returns a subcommand's flag set, which reports to stderr,
// and its logger.
func newCommand(name string, stderr io.Writer) (*flag.FlagSet, *log.Logger) {
	fs := flag.NewFlagSet("lr "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs, log.New(stderr, "lr "+name+": ", 0)
}

// parse parses args into fs and marks a failure as one fs has already
// reported, so Main does not print it twice.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return parseError{err}
	}
	return nil
}

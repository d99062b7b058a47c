// Command lr is the reproduction's one command-line tool. Its
// subcommands (train, run, paper, serve, fleet, load, replay) are
// implemented and documented in internal/cli; run lr with no arguments
// for the list.
package main

import (
	"os"

	"litereconfig/internal/cli"
)

func main() {
	os.Exit(cli.Main(os.Args[1:], os.Stdout, os.Stderr))
}

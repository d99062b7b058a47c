package cli

import (
	"flag"
	"fmt"
	"io"
	"log"
	"strconv"
	"strings"

	"litereconfig/internal/core"
	"litereconfig/internal/fault"
	"litereconfig/internal/fixture"
	"litereconfig/internal/obs"
	"litereconfig/internal/sched"
	"litereconfig/internal/serve"
	"litereconfig/internal/simlat"
)

// modelsFlag registers -models, the trained bundle file.
func modelsFlag(fs *flag.FlagSet) *string {
	return fs.String("models", "", "trained model bundle from lr train (trains the compact fixture set if empty)")
}

// loadModels reads the bundle at path or, when path is empty, trains
// the compact fixture set (once per process).
func loadModels(path string, lg *log.Logger) (*sched.Models, error) {
	if path == "" {
		lg.Printf("no -models given; training the compact fixture set (use lr train for the full pipeline)")
		set, err := fixture.Small()
		if err != nil {
			return nil, fmt.Errorf("training failed: %w", err)
		}
		return set.Models, nil
	}
	m, err := sched.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("load models: %w", err)
	}
	lg.Printf("loaded %s (%d branches)", path, len(m.Branches))
	return m, nil
}

// deviceFlag registers -mobile_device.
func deviceFlag(fs *flag.FlagSet) *string {
	return fs.String("mobile_device", "tx2", "device (of every board): tx2 or xv")
}

func device(name string) (simlat.Device, error) {
	dev, ok := simlat.DeviceByName(name)
	if !ok {
		return dev, fmt.Errorf("unknown device %q (want tx2 or xv)", name)
	}
	return dev, nil
}

// seedFlag registers -seed; every subcommand defaults it to 7.
func seedFlag(fs *flag.FlagSet, usage string) *int64 {
	return fs.Int64("seed", 7, usage)
}

// parseFloats splits a comma-separated float list.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// streamMix is the -slos/-policies pair, both cycled across streams.
type streamMix struct{ slos, policies string }

func (m *streamMix) register(fs *flag.FlagSet, slos string) {
	fs.StringVar(&m.slos, "slos", slos, "comma-separated per-frame SLOs in ms, cycled across streams")
	fs.StringVar(&m.policies, "policies", "full", "comma-separated scheduler policies, cycled across streams (full, mincost, maxcontent-resnet, maxcontent-mobilenet)")
}

func (m *streamMix) parse() ([]float64, []core.Policy, error) {
	slos, err := parseFloats(m.slos)
	if err != nil {
		return nil, nil, fmt.Errorf("bad -slos: %w", err)
	}
	var policies []core.Policy
	for _, tok := range strings.Split(m.policies, ",") {
		p, err := serve.ParsePolicy(tok)
		if err != nil {
			return nil, nil, err
		}
		policies = append(policies, p)
	}
	return slos, policies, nil
}

// boardShape is the per-board group: worker pool, contention coupling,
// round length and (where the subcommand offers it) the admission
// occupancy threshold.
type boardShape struct {
	gpuSlots                  int
	coupling, roundMS, maxOcc float64
}

// register adds the group's flags; -max_occupancy only when
// maxOccUsage is not empty.
func (b *boardShape) register(fs *flag.FlagSet, maxOccUsage string) {
	fs.IntVar(&b.gpuSlots, "gpu_slots", 2, "per-board worker pool size / GPU slot count")
	fs.Float64Var(&b.coupling, "coupling", serve.DefaultCoupling, "per-board cross-stream occupancy-to-contention coupling")
	fs.Float64Var(&b.roundMS, "round_ms", serve.DefaultRoundMS, "simulated board round length in ms")
	if maxOccUsage != "" {
		fs.Float64Var(&b.maxOcc, "max_occupancy", 0, maxOccUsage)
	}
}

// faultsFlag registers -faults.
func faultsFlag(fs *flag.FlagSet, usage string) *string {
	return fs.String("faults", "", usage)
}

// parseFaults parses a one-board fault spec; nil when spec is empty. A
// spec without its own seed takes seed.
func parseFaults(spec string, seed int64) (*fault.Config, error) {
	if spec == "" {
		return nil, nil
	}
	fc, err := fault.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("bad -faults: %w", err)
	}
	if fc.Seed == 0 {
		fc.Seed = seed
	}
	return fc, nil
}

// outputs is the output-file group: decision trace, fleet trace, the
// replay payload and the metrics dump.
type outputs struct {
	trace, fleetTrace    string
	replayTrace, metrics bool
}

// register adds -trace and -metrics, plus -fleet_trace and
// -replay_trace where the subcommand writes them.
func (o *outputs) register(fs *flag.FlagSet, fleetTrace, replayTrace bool) {
	fs.StringVar(&o.trace, "trace", "", "write the scheduler decision trace (JSON Lines) to this file; a .gz suffix gzip-compresses it")
	if fleetTrace {
		fs.StringVar(&o.fleetTrace, "fleet_trace", "", "write the fleet placement/migration/workload trace (JSON Lines) to this file; a .gz suffix gzip-compresses it")
	}
	if replayTrace {
		fs.BoolVar(&o.replayTrace, "replay_trace", false, "enrich the decision trace with the scheduler-input replay payload (for lr replay); traces get large")
	}
	fs.BoolVar(&o.metrics, "metrics", false, "print the metrics registry (Prometheus exposition format) after the run")
}

// observed reports whether any output needs an observer.
func (o *outputs) observed() bool { return o.trace != "" || o.fleetTrace != "" || o.metrics }

// writeTrace writes n records of what to path through obs.CreateTrace,
// so a .gz path is gzip-compressed. An empty path writes nothing.
func writeTrace(lg *log.Logger, path, what string, n int, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := obs.CreateTrace(path)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", what, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	lg.Printf("wrote %d %s to %s", n, what, path)
	return nil
}

// printMetrics prints a metrics exposition after a blank line.
func printMetrics(w io.Writer, text string) {
	fmt.Fprintln(w)
	fmt.Fprint(w, text)
}

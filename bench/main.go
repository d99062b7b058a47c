// Command bench is the repository benchmark. One run trains the
// scheduler bundle in set-up, runs one workload's timed phase with
// tracing off, checks the outputs and prints every end-to-end metric.
// With -trace 1 it then repeats the timed phase with benchmark-owned
// spans around the calls into each layer, writes the spans as JSON lines
// and prints the per-layer metrics instead. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics; a failed check exits with status 1.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload serve_steady --seed 1 --seconds 8 --trace 0
//
// bench/README.md describes the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for replay corpora and the span file
}

// repOut is one timed rep of a workload.
type repOut struct {
	// What the rep's measurement window saw.
	wallS, allocMB, gcs, gcPauseMS, rssMB float64

	frames int // video frames served, or covered by replayed decisions
	// offeredFrames and goldFrames are the attainment bases: frames of
	// every offered stream, and of the gold ones. tries and failed are
	// served_frac's: streams offered and those not served (replay:
	// decisions of the identity pass and those that diverged).
	offeredFrames, goldFrames, tries, failed int
	outcomes                                 []outcome
	problems                                 []string           // failed correctness checks
	counts                                   map[string]float64 // per-layer counts
}

func (r *repOut) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runner holds one run's state: its options and scale, the trained
// bundle, and the inputs set-up prepared.
type runner struct {
	o      options
	sc     *scale
	b      *bundle
	attrib []attribStream // rep 0's serve streams, for the attribution pass
	// replay_sweep's recorded corpora, their JSON size before gzip, and
	// the frame-weighted mAP they were served at.
	corpus      []string
	corpusBytes int64
	corpusMAP   float64
	recordS     float64
}

// workloadDef is one workload: an optional set-up step run after the
// bundle is trained, one timed rep, and an optional check over all the
// untraced reps of a run.
type workloadDef struct {
	prepare func(r *runner, tr *tracer) error
	rep     func(r *runner, rep int, tr *tracer) (*repOut, error)
	check   func(reps []*repOut) []string
}

var workloads = map[string]workloadDef{
	"serve_steady": {rep: func(r *runner, rep int, tr *tracer) (*repOut, error) {
		return r.serveRep(false, rep, tr)
	}},
	"fleet_churn": {rep: (*runner).fleetRep, check: checkRecovery},
	"serve_drift": {rep: func(r *runner, rep int, tr *tracer) (*repOut, error) {
		return r.serveRep(true, rep, tr)
	}},
	"replay_sweep": {prepare: (*runner).recordCorpora, rep: (*runner).replayRep},
}

// units of every metric the benchmark prints.
var units = map[string]string{
	"frames_per_s":      "frames/s",
	"setup_s":           "s",
	"peak_rss_mb":       "MB",
	"sim_map":           "mAP",
	"sim_mean_frame_ms": "sim_ms",
	"sim_p50_frame_ms":  "sim_ms",
	"sim_p99_frame_ms":  "sim_ms",
	"slo_attain":        "fraction",
	"slo_attain_gold":   "fraction",
	"served_frac":       "fraction",

	"sched.collect_s":   "s",
	"sched.train_s":     "s",
	"sched.save_ms":     "ms",
	"sched.load_ms":     "ms",
	"sched.bundle_mb":   "MB",
	"sched.clone_ms":    "ms",
	"sched.clones":      "count",
	"sched.clone_share": "fraction",

	"workload.take_ms":  "ms",
	"workload.arrivals": "count",

	"vid.generate_ms": "ms",

	"fleet.barrier_ms_p50": "ms",
	"fleet.barrier_ms_p99": "ms",
	"fleet.barriers":       "count",
	"fleet.report_ms":      "ms",
	"fleet.placed":         "count",
	"fleet.migrations":     "count",

	"ckpt.board_deaths":  "count",
	"ckpt.recoveries":    "count",
	"ckpt.replayed_gofs": "count",

	"glm.p95_coverage":     "fraction",
	"glm.coverage_samples": "count",

	"serve.submit_ms_p50":      "ms",
	"serve.round_ms_p50":       "ms",
	"serve.round_ms_p99":       "ms",
	"serve.rounds":             "count",
	"serve.drain_ms":           "ms",
	"serve.preemptions":        "count",
	"serve.quarantined":        "count",
	"serve.first_frame_ms_p50": "sim_ms",
	"serve.first_frame_ms_p90": "sim_ms",

	"core.decide_us_p50":               "us",
	"core.decide_us_p99":               "us",
	"core.decisions":                   "count",
	"core.observe_us_p50":              "us",
	"core.heavy_features_per_decision": "ratio",
	"core.breaker_opens":               "count",
	"core.overruns":                    "count",

	"harness.step_us_p50": "us",
	"harness.step_us_p99": "us",
	"harness.gofs":        "count",

	"mbek.self_us_per_gof":  "us",
	"mbek.switches_per_gof": "ratio",

	"adapt.observe_outcome_us_p50": "us",
	"adapt.refits":                 "count",
	"adapt.promotions":             "count",
	"adapt.demotions":              "count",

	"obs.write_ms":           "ms",
	"obs.bytes_per_decision": "B",
	"obs.read_ms":            "ms",
	"obs.read_mb_per_s":      "MB/s",

	"replay.pass_ms_p50":     "ms",
	"replay.decisions_per_s": "1/s",
	"replay.passes":          "count",
	"replay.missing_heavy":   "count",
	"replay.record_s":        "s",
	"replay.pred_acc":        "ratio",

	"simlat.detector_ms_per_frame":  "sim_ms",
	"simlat.tracker_ms_per_frame":   "sim_ms",
	"simlat.scheduler_ms_per_frame": "sim_ms",
	"simlat.switch_ms_per_frame":    "sim_ms",
	"simlat.fault_ms_per_frame":     "sim_ms",
	"simlat.migrate_ms_per_frame":   "sim_ms",

	"go.alloc_mb_per_kframe": "MB",
	"go.gc_cycles":           "count",
	"go.gc_pause_ms":         "ms",

	"bench.span_coverage":  "fraction",
	"bench.trace_overhead": "ratio",
}

// endToEnd lists the end-to-end metrics in print order.
var endToEnd = []string{
	"frames_per_s", "setup_s", "peak_rss_mb", "sim_map", "sim_mean_frame_ms",
	"sim_p50_frame_ms", "sim_p99_frame_ms", "slo_attain", "slo_attain_gold", "served_frac",
}

// result is the JSON object the run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a run measured: every end-to-end metric and the result
// it printed.
type report struct {
	e2e map[string]float64
	res *result
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: serve_steady, fleet_churn, serve_drift or replay_sweep")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; timed rep r uses seed+r")
	flag.Float64Var(&o.seconds, "seconds", 8, "minimum timed-phase length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 repeats the timed phase traced and prints per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for replay corpora and the span file")
	flag.Parse()
	o.trace = trace == 1
	if raceEnabled {
		fmt.Fprintln(os.Stderr, "bench: built with -race; the race detector distorts every timing, refusing to run")
		os.Exit(2)
	}
	rep, err := run(o, &fullScale, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !rep.res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its report to w.
func run(o options, sc *scale, w io.Writer) (*report, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want serve_steady, fleet_churn, serve_drift or replay_sweep)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Fprintln(w, envLine())
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	r := &runner{o: o, sc: sc}

	// Set-up, repeated so setup_s is a median; the last set-up is kept.
	tr.setRep(repSetup)
	var setupS []float64
	var stages []stageTimes
	for i := 0; i < sc.setupReps; i++ {
		t0 := time.Now()
		b, err := trainBundle(sc, tr)
		if err != nil {
			return nil, err
		}
		r.b = b
		if wl.prepare != nil {
			if err := wl.prepare(r, tr); err != nil {
				return nil, err
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		stages = append(stages, b.stageTimes)
	}

	// Untraced timed phase: the pooled reps, then more until -seconds.
	pooled := sc.minReps[o.workload]
	var untraced []*repOut
	for rep, elapsed := 0, 0.0; rep < pooled || elapsed < o.seconds; rep++ {
		out, err := wl.rep(r, rep, nil)
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", rep, err)
		}
		if rep >= pooled {
			// Only the pooled reps feed the simulated metrics; holding on
			// to later reps' samples would inflate every later rep's
			// resident set.
			out.outcomes = nil
		}
		untraced = append(untraced, out)
		elapsed += out.wallS
	}

	res := &result{}
	var problems []string
	var rss []float64
	frames, alloc, gcs, pause := 0, 0.0, 0.0, 0.0
	for _, out := range untraced {
		res.Attempted += out.tries
		res.Failed += out.failed
		problems = append(problems, out.problems...)
		rss = append(rss, out.rssMB)
		frames += out.frames
		alloc += out.allocMB
		gcs += out.gcs
		pause += out.gcPauseMS
	}
	if wl.check != nil {
		problems = append(problems, wl.check(untraced)...)
	}
	sim := poolSim(untraced[:pooled])
	e2e := sim.metrics()
	e2e["frames_per_s"] = ratio(float64(frames), sumWall(untraced))
	e2e["setup_s"] = median(setupS)
	e2e["peak_rss_mb"] = median(rss)

	var layer map[string]float64
	if o.trace {
		var err error
		layer, err = r.tracedPhase(wl, tr, untraced[:pooled], sim, stages, &problems)
		if err != nil {
			return nil, err
		}
		layer["go.alloc_mb_per_kframe"] = ratio(alloc, float64(frames)/1000)
		layer["go.gc_cycles"] = gcs
		layer["go.gc_pause_ms"] = pause
		spans := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := tr.write(spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", len(tr.spans), spans)
	}

	fmt.Fprintf(w, "workload %s seed %d: set-up %d× (median %.3f s); %d untraced reps, %.2f s timed; first %d pooled for the simulated metrics (%d frame-latency samples, %d first-frame samples)\n",
		o.workload, o.seed, len(setupS), e2e["setup_s"], len(untraced), sumWall(untraced),
		pooled, len(sim.lat), len(sim.first))
	printMetrics(w, "end-to-end", e2e)
	res.Metrics = pick(e2e, endToEnd)
	if o.trace {
		printMetrics(w, "per-layer", layer)
		res.Metrics = pick(layer, sortedKeys(layer))
	}
	for _, p := range problems {
		fmt.Fprintln(w, "check FAILED:", p)
	}
	res.Failed += len(problems)
	res.Correct = len(problems) == 0
	if res.Correct {
		fmt.Fprintln(w, "checks: ok")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, string(line))
	return &report{e2e: e2e, res: res}, nil
}

func poolSim(reps []*repOut) *simPool {
	p := &simPool{}
	for _, out := range reps {
		p.add(out)
	}
	return p
}

func sumWall(reps []*repOut) float64 {
	t := 0.0
	for _, out := range reps {
		t += out.wallS
	}
	return t
}

// tracedPhase repeats the pooled reps with spans on, checks they give the
// untraced simulated metrics, runs the serve attribution pass and times
// standalone clones, and returns the per-layer metrics.
func (r *runner) tracedPhase(wl workloadDef, tr *tracer, untraced []*repOut, sim *simPool,
	stages []stageTimes, problems *[]string) (map[string]float64, error) {
	var traced []*repOut
	counts := map[string]float64{}
	for rep := range untraced {
		tr.setRep(rep)
		out, err := wl.rep(r, rep, tr)
		if err != nil {
			return nil, fmt.Errorf("traced rep %d: %w", rep, err)
		}
		traced = append(traced, out)
		*problems = append(*problems, out.problems...)
		for k, v := range out.counts {
			counts[k] += v
		}
	}
	want, got := sim.metrics(), poolSim(traced).metrics()
	for _, k := range sortedKeys(want) {
		if want[k] != got[k] {
			*problems = append(*problems, fmt.Sprintf("traced phase changed %s: %v untraced, %v traced", k, want[k], got[k]))
		}
	}

	L := map[string]float64{}
	for k := range units {
		if strings.Contains(k, ".") {
			L[k] = 0 // layers a workload bypasses report 0
		}
	}
	tracedWall := sumWall(traced)
	L["bench.trace_overhead"] = ratio(tracedWall, sumWall(untraced))
	L["bench.span_coverage"] = ratio(float64(tr.topLevelNS())/1e9, tracedWall)
	if c := L["bench.span_coverage"]; c < 0.9 {
		*problems = append(*problems, fmt.Sprintf("span coverage %.3f < 0.9", c))
	}

	// Set-up: medians over the set-up repetitions.
	stage := func(f func(t stageTimes) float64) float64 {
		var xs []float64
		for _, t := range stages {
			xs = append(xs, f(t))
		}
		return median(xs)
	}
	L["sched.collect_s"] = stage(func(t stageTimes) float64 { return t.collectS })
	L["sched.train_s"] = stage(func(t stageTimes) float64 { return t.trainS })
	L["sched.save_ms"] = stage(func(t stageTimes) float64 { return t.saveS * 1e3 })
	L["sched.load_ms"] = stage(func(t stageTimes) float64 { return t.loadS * 1e3 })
	L["sched.bundle_mb"] = float64(r.b.bytes) / 1e6
	L["replay.record_s"] = r.recordS
	L["replay.pred_acc"] = ratio(counts["replay.pred_acc_frames"], counts["replay.frames"])
	L["serve.first_frame_ms_p50"] = want["serve.first_frame_ms_p50"]
	L["serve.first_frame_ms_p90"] = want["serve.first_frame_ms_p90"]
	L["vid.generate_ms"] = (stage(func(t stageTimes) float64 { return t.generateS }) + counts["vid.generate_s"]) * 1e3

	var cloneMS []float64
	for i := 0; i < r.sc.cloneCalls; i++ {
		t0 := time.Now()
		if _, err := r.b.models.Clone(); err != nil {
			return nil, err
		}
		cloneMS = append(cloneMS, time.Since(t0).Seconds()*1e3)
	}
	L["sched.clone_ms"] = median(cloneMS)
	L["sched.clones"] = counts["sched.clones"]
	L["sched.clone_share"] = ratio(counts["sched.clones"]*L["sched.clone_ms"]/1e3, tracedWall)

	for _, k := range []string{"workload.arrivals", "fleet.placed", "fleet.migrations", "fleet.barriers",
		"ckpt.board_deaths", "ckpt.recoveries", "ckpt.replayed_gofs", "serve.rounds",
		"serve.preemptions", "serve.quarantined", "adapt.refits", "adapt.promotions",
		"adapt.demotions", "replay.passes", "replay.missing_heavy"} {
		L[k] = counts[k]
	}
	L["workload.take_ms"] = sum(tr.durations("workload.take", 1e-3))
	L["fleet.barrier_ms_p50"] = median(tr.durations("fleet.barrier", 1e-3))
	L["fleet.barrier_ms_p99"] = quantile(tr.durations("fleet.barrier", 1e-3), 0.99)
	L["fleet.report_ms"] = median(tr.durations("fleet.report", 1e-3))
	L["glm.p95_coverage"] = ratio(counts["glm.covered"], counts["glm.samples"])
	L["glm.coverage_samples"] = counts["glm.samples"]
	L["serve.submit_ms_p50"] = median(tr.durations("serve.submit", 1e-3))
	L["serve.round_ms_p50"] = median(tr.durations("serve.step_round", 1e-3))
	L["serve.round_ms_p99"] = quantile(tr.durations("serve.step_round", 1e-3), 0.99)
	L["serve.drain_ms"] = median(tr.durations("serve.drain", 1e-3))
	L["obs.write_ms"] = median(tr.durations("obs.write_trace", 1e-3))
	L["obs.bytes_per_decision"] = ratio(counts["obs.bytes"], counts["obs.decisions"])
	readMS := tr.durations("obs.read", 1e-3)
	L["obs.read_ms"] = median(readMS)
	L["obs.read_mb_per_s"] = ratio(float64(r.corpusBytes)/1e6, L["obs.read_ms"]/1e3)
	passMS := tr.durations("replay.pass", 1e-3)
	L["replay.pass_ms_p50"] = median(passMS)
	L["replay.decisions_per_s"] = ratio(counts["replay.decisions"], sum(passMS)/1e3)
	for _, c := range simComponents {
		L["simlat."+c+"_ms_per_frame"] = ratio(counts["simlat."+c], counts["simlat.frames"])
	}

	if len(r.attrib) > 0 {
		a, err := r.attribute(r.o.workload == "serve_drift", tr)
		if err != nil {
			return nil, err
		}
		L["harness.step_us_p50"] = median(tr.durations("harness.step", 1e-6))
		L["harness.step_us_p99"] = quantile(tr.durations("harness.step", 1e-6), 0.99)
		L["harness.gofs"] = float64(a.gofs)
		L["mbek.self_us_per_gof"] = ratio(float64(tr.selfNS("harness.step"))/1e3, float64(a.gofs))
		L["mbek.switches_per_gof"] = ratio(float64(a.switches), float64(a.gofs))
		L["core.decide_us_p50"] = median(tr.durations("core.decide", 1e-6))
		L["core.decide_us_p99"] = quantile(tr.durations("core.decide", 1e-6), 0.99)
		L["core.decisions"] = float64(a.decisions)
		L["core.observe_us_p50"] = median(tr.durations("core.observe_gof", 1e-6))
		L["core.heavy_features_per_decision"] = ratio(float64(a.heavy), float64(a.decisions))
		L["core.breaker_opens"] = float64(a.breakerOpens)
		L["core.overruns"] = float64(a.overruns)
		L["adapt.observe_outcome_us_p50"] = median(tr.durations("adapt.observe_outcome", 1e-6))
	}
	return L, nil
}

// envLine stamps the run with its environment.
func envLine() string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return fmt.Sprintf("env: go=%s os/arch=%s/%s nproc=%d GOMAXPROCS=%d GOGC=%s cpu=%q",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(),
		runtime.GOMAXPROCS(0), gogc, cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printMetrics(w io.Writer, title string, m map[string]float64) {
	fmt.Fprintf(w, "%s metrics:\n", title)
	names := sortedKeys(m)
	if title == "end-to-end" {
		names = endToEnd
	}
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %16.6f %s\n", k, m[k], units[k])
	}
}

func pick(m map[string]float64, names []string) map[string]metricValue {
	out := make(map[string]metricValue, len(names))
	for _, k := range names {
		out[k] = metricValue{Value: m[k], Unit: units[k]}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

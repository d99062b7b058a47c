package cli

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"litereconfig/internal/adapt"
	"litereconfig/internal/fixture"
	"litereconfig/internal/harness"
	"litereconfig/internal/metric"
	"litereconfig/internal/vid"
)

// The golden files in testdata hold each invocation's stdout as the
// seven single-purpose binaries that lr replaced printed it, with the
// run's scratch directory written as $TMP. Every invocation trains
// nothing of its own: without -models the subcommands share the
// process's memoized fixture.Small.

// lr runs one lr invocation in-process and returns its stdout (with dir
// written as $TMP), its stderr and its exit status.
func lr(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := Main(args, &stdout, &stderr)
	out := stdout.String()
	if dir != "" {
		out = strings.ReplaceAll(out, dir, "$TMP")
	}
	return out, stderr.String(), code
}

// golden runs args, requires exit status 0 and compares stdout with
// testdata/<name>.golden.
func golden(t *testing.T, name, dir string, args ...string) {
	t.Helper()
	out, stderr, code := lr(t, dir, args...)
	if code != 0 {
		t.Fatalf("lr %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	checkGolden(t, name, out)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: stdout differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", name, name, got, want)
	}
}

// gzipLines gunzips a trace file and returns its line count.
func gzipLines(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s is not gzip-compressed: %v", path, err)
	}
	n := 0
	sc := bufio.NewScanner(zr)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRunGolden(t *testing.T) {
	dir := t.TempDir()
	golden(t, "run", dir, "run", "-gl", "20", "-lat_req", "50", "-val_videos", "2", "-frames", "60",
		"-faults", "spike=0.05,extract=0.1", "-metrics",
		"-trace", filepath.Join(dir, "run.jsonl.gz"), "-output", filepath.Join(dir, "exec.txt"))
	if n := gzipLines(t, filepath.Join(dir, "run.jsonl.gz")); n != 18 {
		t.Errorf("run trace: %d decisions, want 18", n)
	}
	for _, f := range []string{"exec_det.txt", "exec_lat.txt"} {
		if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", f, err)
		}
	}
}

func TestTrainLoadGolden(t *testing.T) {
	set, err := fixture.Small()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	models, reg := filepath.Join(dir, "models.gob"), filepath.Join(dir, "offline.gob")
	if err := set.Models.SaveFile(models); err != nil {
		t.Fatal(err)
	}
	golden(t, "train", dir, "train", "-load", models, "-registry_out", reg)
	r, err := adapt.LoadRegistryFile(reg)
	if err != nil {
		t.Fatal(err)
	}
	if vs := r.Versions(); len(vs) != 1 || vs[0].Label != "offline.v0" || r.Get("offline.v0") == nil {
		t.Fatalf("registry versions = %+v, want the one offline.v0 baseline", vs)
	}
}

func TestPaperGolden(t *testing.T) {
	golden(t, "paper", "", "paper", "-exp", "table1", "-scale", "small")
}

// TestServeFleetReplayGolden records serve and fleet traces with the
// replay payload and replays them: verbatim, under what-if knobs, from
// the adaptation registry that serve saved, and through a failing
// identity check.
func TestServeFleetReplayGolden(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	// No -metrics here: serve and fleet steppers add float samples to
	// shared counters in completion order, so the sums' last digits vary
	// from run to run. The run golden covers -metrics.
	golden(t, "serve_risk", dir, "serve", "-streams", "4", "-frames", "60", "-risk_q", "0.95",
		"-replay_trace", "-trace", p("risk.jsonl.gz"))
	golden(t, "serve_adapt", dir, "serve", "-streams", "4", "-frames", "120", "-mobile_device", "xv",
		"-adapt", "-replay_trace", "-trace", p("adapt.jsonl.gz"), "-registry_out", p("reg.gob"))
	golden(t, "fleet", dir, "fleet", "-boards", "3", "-streams", "6", "-frames", "60", "-slos", "100",
		"-faults", "b1:crash=6;b2:blackout=4", "-checkpoint_interval", "2",
		"-replay_trace", "-trace", p("fleet.jsonl"), "-fleet_trace", p("fleet_events.jsonl"))

	golden(t, "replay_adapted", dir, "replay", "-registry", p("reg.gob"), "-compare", p("adapt.jsonl.gz"))
	golden(t, "replay_identity", dir, "replay", "-identity", p("risk.jsonl.gz"), p("fleet.jsonl"), p("fleet_events.jsonl"))
	golden(t, "replay_slo_sweep", dir, "replay", "-slo_sweep", "15,33.3,50,100", "-compare", p("risk.jsonl.gz"))
	golden(t, "replay_risk_sweep", dir, "replay", "-risk_sweep", "0,0.9,0.95,0.99", p("risk.jsonl.gz"))
	golden(t, "replay_degrade", dir, "replay", "-degrade", "off", "-policy", "mincost", "-compare", p("fleet.jsonl"))

	out, stderr, code := lr(t, dir, "replay", "-identity", "-slo", "15", p("risk.jsonl.gz"))
	if code != 1 {
		t.Fatalf("identity replay under -slo 15: exit %d, want 1\n%s", code, stderr)
	}
	checkGolden(t, "replay_identity_fail", out)
	want, err := os.ReadFile(filepath.Join("testdata", "replay_identity_fail.divergences"))
	if err != nil {
		t.Fatal(err)
	}
	stderr = strings.ReplaceAll(stderr, dir, "$TMP")
	if !strings.Contains(stderr, "lr replay: identity check FAILED: 37/37 decisions diverged") ||
		!strings.Contains(stderr, string(want)) || strings.Count(stderr, " -> branch ") != 5 {
		t.Errorf("identity failure does not list the divergent decisions:\n%s", stderr)
	}

	if _, _, code := lr(t, dir, "replay", "-registry", p("reg.gob"), "-models", p("x.gob"), p("adapt.jsonl.gz")); code != 1 {
		t.Errorf("-models with -registry: exit %d, want 1", code)
	}
	if _, _, code := lr(t, dir, "replay", "-degrade", "sometimes", p("fleet.jsonl")); code != 1 {
		t.Errorf("bad -degrade: exit %d, want 1", code)
	}
}

func TestLoadGolden(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	golden(t, "load_compare", dir, "load", "-scenario", "flashcrowd", "-scale", "small", "-compare",
		"-out", p("workload.json"), "-trace", p("load.jsonl.gz"), "-fleet_trace", p("load_events.jsonl.gz"))
	if n := gzipLines(t, p("load.jsonl.gz")); n != 105 {
		t.Errorf("load trace: %d decisions, want 105", n)
	}
	if n := gzipLines(t, p("load_events.jsonl.gz")); n != 50 {
		t.Errorf("load fleet trace: %d events, want 50", n)
	}
	var bench benchOut
	data, err := os.ReadFile(p("workload.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil || len(bench.Runs) != 2 || bench.GoldAttainDelta == nil {
		t.Fatalf("workload.json: %v, %+v", err, bench)
	}

	golden(t, "load_risk", dir, "load", "-scenario", "flashcrowd", "-scale", "small",
		"-bench_risk", "-coverage_band", "0.5,1", "-out", p("risk.json"))

	out, stderr, code := lr(t, dir, "load", "-scenario", "flashcrowd", "-scale", "small",
		"-bench_risk", "-coverage_band", "0.999,1")
	if code != 1 {
		t.Fatalf("coverage band miss: exit %d, want 1\n%s", code, stderr)
	}
	checkGolden(t, "load_risk_band", out)
	if !strings.Contains(stderr, "calibration smoke FAILED: overall p95 coverage 0.804 outside [1.00, 1.00] (97 decisions)") {
		t.Errorf("coverage band failure not reported:\n%s", stderr)
	}
}

// TestReplayBench checks every field of the replay benchmark report
// except the wall-clock ones.
func TestReplayBench(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if _, stderr, code := lr(t, dir, "replay", "-bench", path, "-bench_streams", "2", "-bench_frames", "60",
		"-slo_sweep", "33.3,100"); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	var rep benchReport
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	rep.RecordWallMS = 0
	rep.Identity.ReplayWallMS, rep.Identity.GoFsPerSec = 0, 0
	rep.Identity.SpeedupVsRecord, rep.Identity.SpeedupVsSim = 0, 0
	for i := range rep.SLOSweep {
		rep.SLOSweep[i].ReplayWallMS, rep.SLOSweep[i].GoFsPerSec = 0, 0
	}
	got, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "replay_bench.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got)+"\n" != string(want) {
		t.Errorf("bench report differs from testdata/replay_bench.json:\n%s", got)
	}
}

func TestMainUsageAndErrors(t *testing.T) {
	cases := []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"help"}, 0},
		{[]string{"lrserve"}, 2},
		{[]string{"serve", "-no_such_flag"}, 2},
		{[]string{"serve", "-h"}, 0},
		{[]string{"serve", "-registry_out", "reg.gob"}, 1},
		{[]string{"serve", "-slos", "33,abc"}, 1},
		{[]string{"fleet", "-adapt_stagger"}, 1},
		{[]string{"fleet", "-faults", "b9:panic=0.3"}, 1},
		{[]string{"run", "-protocol", "selsa"}, 1},
		{[]string{"run", "-mobile_device", "nano"}, 1},
		{[]string{"paper", "-scale", "huge"}, 1},
		{[]string{"train", "-space", "tiny"}, 1},
		{[]string{"load", "-coverage_band", "high"}, 1},
		{[]string{"replay"}, 1},
	}
	for _, c := range cases {
		if _, stderr, code := lr(t, "", c.args...); code != c.code {
			t.Errorf("lr %s: exit %d, want %d\n%s", strings.Join(c.args, " "), code, c.code, stderr)
		}
	}
}

func TestProtocolNameMapping(t *testing.T) {
	cases := map[string]string{
		"LiteReconfig":         "LiteReconfig",
		"litereconfig":         "LiteReconfig",
		"MinCost":              "LiteReconfig-MinCost",
		"MaxContent_ResNet":    "LiteReconfig-MaxContent-ResNet",
		"SmartAdapt_RPN":       "LiteReconfig-MaxContent-ResNet", // artifact alias
		"MaxContent_MobileNet": "LiteReconfig-MaxContent-MobileNet",
		"ApproxDet":            "ApproxDet",
		"SSD":                  "SSD+",
		"yolo+":                "YOLO+",
	}
	for in, want := range cases {
		got, err := protocolName(in)
		if err != nil || got != want {
			t.Errorf("protocolName(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := protocolName("selsa"); err == nil {
		t.Error("unsupported protocol should error")
	}
}

func TestWriteLogs(t *testing.T) {
	dir := t.TempDir()
	v := vid.Generate("v", 1, vid.GenConfig{Frames: 3})
	res := &harness.Result{}
	for _, f := range v.Frames {
		res.Frames = append(res.Frames, metric.FrameResult{
			Truth: f.Objects,
			Dets: []metric.Detection{{Class: vid.Car,
				Box: f.Objects[0].Box, Score: 0.9}},
		})
		res.Latency.Add(12.5)
	}
	prefix := filepath.Join(dir, "sub", "executor_test.txt")
	if _, err := writeLogs(prefix, res); err != nil {
		t.Fatal(err)
	}
	det, err := os.ReadFile(filepath.Join(dir, "sub", "executor_test_det.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(det), "\n"); lines != 3 {
		t.Fatalf("det lines = %d, want 3", lines)
	}
	if !strings.Contains(string(det), "car") {
		t.Fatalf("det log missing class name:\n%s", det)
	}
	lat, err := os.ReadFile(filepath.Join(dir, "sub", "executor_test_lat.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(lat), "\n"); lines != 3 {
		t.Fatalf("lat lines = %d, want 3", lines)
	}
	if !strings.Contains(string(lat), "12.5") {
		t.Fatalf("lat log missing sample:\n%s", lat)
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("33.3, 50,90")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 33.3 || got[1] != 50 || got[2] != 90 {
		t.Fatalf("parseFloats = %v", got)
	}
	if _, err := parseFloats("33,abc"); err == nil {
		t.Error("bad float should error")
	}
}

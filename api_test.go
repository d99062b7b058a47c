package litereconfig

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

// TestParseFaultSpecMapsEveryKey checks that each key of the -faults
// grammar lands in its own FaultConfig field and nowhere else, alone
// and all together.
func TestParseFaultSpecMapsEveryKey(t *testing.T) {
	all := FaultConfig{Seed: 42, SpikeRate: 0.01, SpikeMS: 12.5, ExtractFailRate: 0.02,
		BurstRate: 0.03, BurstLevel: 0.45, BurstFrames: 17, StallRate: 0.04, StallMS: 260,
		PanicRate: 0.05}
	for _, c := range []struct {
		spec string
		want FaultConfig
	}{
		{"seed=42", FaultConfig{Seed: 42}},
		{"spike=0.01", FaultConfig{SpikeRate: 0.01}},
		{"spike_ms=12.5", FaultConfig{SpikeMS: 12.5}},
		{"extract=0.02", FaultConfig{ExtractFailRate: 0.02}},
		{"extract_fail=0.02", FaultConfig{ExtractFailRate: 0.02}},
		{"burst=0.03", FaultConfig{BurstRate: 0.03}},
		{"burst_level=0.45", FaultConfig{BurstLevel: 0.45}},
		{"burst_frames=17", FaultConfig{BurstFrames: 17}},
		{"stall=0.04", FaultConfig{StallRate: 0.04}},
		{"stall_ms=260", FaultConfig{StallMS: 260}},
		{"panic=0.05", FaultConfig{PanicRate: 0.05}},
		{"", FaultConfig{}},
		{"seed=42,spike=0.01,spike_ms=12.5,extract=0.02,burst=0.03,burst_level=0.45," +
			"burst_frames=17,stall=0.04,stall_ms=260,panic=0.05", all},
		{" panic = 0.05 , stall_ms=260,stall=0.04,burst_frames=17,burst_level=0.45,burst=0.03," +
			"extract=0.02,spike_ms=12.5,spike=0.01,seed=42,", all},
	} {
		got, err := ParseFaultSpec(c.spec)
		if err != nil {
			t.Fatalf("ParseFaultSpec(%q): %v", c.spec, err)
		}
		if *got != c.want {
			t.Errorf("ParseFaultSpec(%q) = %+v, want %+v", c.spec, *got, c.want)
		}
		if back := got.inner(); back.Seed != c.want.Seed || back.PanicRate != c.want.PanicRate ||
			back.BurstFrames != c.want.BurstFrames || back.StallMS != c.want.StallMS {
			t.Errorf("ParseFaultSpec(%q): internal config %+v does not carry the fields back", c.spec, *back)
		}
	}
}

func TestParseFaultSpecRejectsMalformed(t *testing.T) {
	for _, spec := range []string{
		"spike",                        // no value
		"=0.1",                         // no key
		"bogus=1",                      // unknown key
		"spike=0.1,spike=0.2",          // repeated key
		"extract=0.1,extract_fail=0.2", // repeated through an alias
		"spike=1.5",                    // rate above 1
		"stall=-0.1",                   // negative rate
		"spike=abc",                    // not a number
		"stall_ms=NaN",                 // magnitude not finite
		"burst_level=-1",               // negative magnitude
		"burst_frames=-1",              // negative count
		"burst_frames=2.5",             // count not an integer
		"seed=1.5",                     // seed not an integer
	} {
		if c, err := ParseFaultSpec(spec); err == nil {
			t.Errorf("ParseFaultSpec(%q) = %+v, want an error", spec, *c)
		}
	}
}

// TestObserverRecordsDecisionTrace checks the root observer's decision
// count and trace: one JSON line per decision in sequence order, the
// same bytes from a second identical run, and an empty trace from an
// observer that saw no run.
func TestObserverRecordsDecisionTrace(t *testing.T) {
	models := apiFixture(t)
	run := func() (*Observer, []byte) {
		ob := NewObserver()
		sys, err := NewSystem(models, Config{SLO: 33.3, Observer: ob})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.ProcessVideo(GenerateVideo(4242, 120)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ob.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return ob, buf.Bytes()
	}
	ob, trace := run()
	n := ob.Decisions()
	if n == 0 {
		t.Fatal("no decisions recorded over a 120-frame video")
	}
	sc := bufio.NewScanner(bytes.NewReader(trace))
	sc.Buffer(nil, 1<<20)
	lines := 0
	for sc.Scan() {
		var d struct {
			Seq    int    `json:"seq"`
			Branch string `json:"branch"`
		}
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("trace line %d: %v", lines+1, err)
		}
		if d.Seq != lines || d.Branch == "" {
			t.Fatalf("trace line %d: seq %d branch %q, want seq %d and a branch", lines+1, d.Seq, d.Branch, lines)
		}
		lines++
	}
	if lines != n {
		t.Fatalf("trace has %d lines, Decisions() = %d", lines, n)
	}
	if _, again := run(); !bytes.Equal(trace, again) {
		t.Fatal("a second identical run wrote a different trace")
	}

	var buf bytes.Buffer
	if err := NewObserver().WriteTrace(&buf); err != nil || buf.Len() != 0 || NewObserver().Decisions() != 0 {
		t.Fatalf("an unused observer wrote %q (err %v)", buf.String(), err)
	}
}

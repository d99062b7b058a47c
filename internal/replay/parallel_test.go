package replay

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"litereconfig/internal/adapt"
	"litereconfig/internal/fault"
	"litereconfig/internal/fixture"
	"litereconfig/internal/obs"
	"litereconfig/internal/serve"
)

// withGOMAXPROCS runs fn at the given GOMAXPROCS.
func withGOMAXPROCS(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// multiChainCorpus is two files of several (stream, gen) chains each: a
// faulted adaptive run and a risk-admitted WFQ run.
func multiChainCorpus(t *testing.T) *Corpus {
	t.Helper()
	faulted := recordServe(t, serve.Options{Adapt: &adapt.Config{}},
		&fault.Config{Seed: 11, SpikeRate: 0.08, ExtractFailRate: 0.1}, nil)
	risk := recordServe(t, serve.Options{
		Admission:    serve.AdmissionWFQ,
		ClassWeights: map[string]int{"33.3ms": 4, "50ms": 2},
		RiskQuantile: 0.95,
	}, nil, nil)
	c := FromDecisions("faulted", faulted)
	c.Files = append(c.Files, FromDecisions("risk", risk).Files...)
	return c
}

// TestReplayIndependentOfGOMAXPROCS: chains replay concurrently, but the
// Result — redecisions in corpus order, tallies and frame-weighted
// means — is the same at any worker count, for every kind of knob.
func TestReplayIndependentOfGOMAXPROCS(t *testing.T) {
	set, err := fixture.Small()
	if err != nil {
		t.Fatal(err)
	}
	corpus := multiChainCorpus(t)
	q, slo := 0.95, 20.0
	// digest is the FNV-64a hash of the Result printed with %+v, recorded
	// with the serial replay engine before chains ran concurrently.
	configs := []struct {
		name   string
		cfg    Config
		digest uint64
	}{
		{"identity", Config{}, 0x7f45e803df694b6b},
		{"slo", Config{SLOMS: slo}, 0x737de43feb1fb9a2},
		{"risk", Config{RiskQuantile: &q}, 0xae8ea5d452bf6194},
		{"degrade-sim", Config{SLOMS: slo, Degrade: DegradeSim}, 0x7165929246571206},
		{"model-predicted", Config{UseModelPredictions: true}, 0x7f45e803df694b6b},
		{"policy", Config{Policy: "mincost"}, 0xac432422c2a2369b},
	}
	for _, c := range configs {
		name, cfg := c.name, c.cfg
		t.Run(name, func(t *testing.T) {
			cfg.Models = set.Models
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var serial, parallel, again *Result
			withGOMAXPROCS(1, func() { serial, err = e.Replay(corpus) })
			if err != nil {
				t.Fatal(err)
			}
			withGOMAXPROCS(4, func() { parallel, err = e.Replay(corpus) })
			if err != nil {
				t.Fatal(err)
			}
			// The engine's scratch, now four workers with clones, must
			// serve a serial call again.
			withGOMAXPROCS(1, func() { again, err = e.Replay(corpus) })
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("GOMAXPROCS 4 result differs from GOMAXPROCS 1:\nserial   %+v %+v\nparallel %+v %+v",
					serial.Replayed, serial.Recorded, parallel.Replayed, parallel.Recorded)
			}
			if !reflect.DeepEqual(serial, again) {
				t.Fatal("a serial call after a parallel one gives a different result")
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v", *serial)
			if h.Sum64() != c.digest {
				t.Fatalf("result digest %#016x, want %#016x: the replay is no longer bit-identical to the serial engine's",
					h.Sum64(), c.digest)
			}
			if name == "identity" && serial.DivergedDecisions != 0 {
				t.Fatalf("identity diverged on %d decisions", serial.DivergedDecisions)
			}
			if name == "slo" && serial.DivergedDecisions == 0 {
				t.Fatal("SLO override re-decided nothing; the off-recording switch rows went untested")
			}
		})
	}
}

// TestReplayErrorIsFirstChainInCorpusOrder: when several chains fail,
// the error is the one a serial pass meets first.
func TestReplayErrorIsFirstChainInCorpusOrder(t *testing.T) {
	corpus := multiChainCorpus(t)
	var firstErr string
	for _, f := range []int{1, 0} {
		ds := corpus.Files[f].Decisions
		d := &ds[len(ds)/2]
		d.Replay = nil
		firstErr = fmt.Sprintf("replay: %s: stream %d gen %d seq %d: decision has no replay payload",
			corpus.Files[f].Path, d.Stream, d.Gen, d.Seq)
	}
	e := identityEngine(t)
	for _, procs := range []int{1, 4} {
		var err error
		withGOMAXPROCS(procs, func() { _, err = e.Replay(corpus) })
		if err == nil || !strings.HasPrefix(err.Error(), firstErr) {
			t.Fatalf("GOMAXPROCS %d: error %v, want one starting %q", procs, err, firstErr)
		}
	}
}

// writeJSONL writes records one JSON value per line, gzipped when the
// path ends in .gz.
func writeJSONL[T any](t *testing.T, path string, recs []T) {
	t.Helper()
	w, err := obs.CreateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// sequentialLoad is the reference loader for well-formed files: each
// file loaded by wholeFileLoad.
func sequentialLoad(t *testing.T, files ...string) *Corpus {
	t.Helper()
	c := &Corpus{}
	for _, path := range files {
		tf, err := wholeFileLoad(path)
		if err != nil {
			t.Fatal(err)
		}
		c.Files = append(c.Files, tf)
	}
	return c
}

// wholeFileLoad is the reference for loading one trace file: the file
// read whole, its type sniffed by map-decoding the first JSON value,
// and every record decoded by one json.Decoder, decision files sorted
// stably. Errors read as Load words them.
func wholeFileLoad(path string) (TraceFile, error) {
	r, err := obs.OpenTrace(path)
	if err != nil {
		return TraceFile{}, fmt.Errorf("replay: %w", err)
	}
	data, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		return TraceFile{}, fmt.Errorf("replay: %s: %w", path, err)
	}
	tf := TraceFile{Path: path}
	var first json.RawMessage
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&first); err != nil {
		if len(bytes.TrimSpace(data)) == 0 {
			return tf, nil
		}
		return TraceFile{}, fmt.Errorf("replay: %s: record 1: %w", path, err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(first, &keys); err != nil {
		return TraceFile{}, fmt.Errorf("replay: %s: record 1: %w", path, err)
	}
	if _, fleet := keys["kind"]; fleet {
		tf.Fleet, err = decodeAll[obs.FleetEvent](data, "fleet")
	} else {
		tf.Decisions, err = decodeAll[obs.Decision](data, "decision")
		obs.SortDecisions(tf.Decisions)
	}
	if err != nil {
		return TraceFile{}, fmt.Errorf("replay: %s: %w", path, err)
	}
	return tf, nil
}

// decodeAll decodes every JSON value in data with one json.Decoder,
// numbering records in errors as the obs readers do.
func decodeAll[T any](data []byte, kind string) ([]T, error) {
	var out []T
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var v T
		if err := dec.Decode(&v); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: %s record %d: %w", kind, len(out)+1, err)
		}
		out = append(out, v)
	}
}

// TestLoadMatchesSequentialLoad loads two files and a directory at
// several worker counts: the corpus equals a whole-file sequential load,
// and with corrupt files the error names the first corrupt file in path
// order and its record, as a sequential load does.
func TestLoadMatchesSequentialLoad(t *testing.T) {
	ds := recordServe(t, serve.Options{}, nil, nil)
	dir := t.TempDir()
	sub := filepath.Join(dir, "more")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, "first.jsonl.gz")
	second := filepath.Join(dir, "second.jsonl")
	inDir := filepath.Join(sub, "a.jsonl")
	fleetFile := filepath.Join(sub, "b.jsonl.gz")
	writeJSONL(t, first, ds[:len(ds)/2])
	// A hand-concatenated file out of (stream, seq) order.
	writeJSONL(t, second, append(append([]obs.Decision{}, ds[len(ds)/2:]...), ds[:3]...))
	writeJSONL(t, inDir, ds[:5])
	writeJSONL(t, fleetFile, []obs.FleetEvent{{Kind: "place", Stream: 1, To: "b0"},
		{Seq: 1, Barrier: 3, Kind: "migrate", Stream: 1, From: "b0", To: "b1"}})

	want := sequentialLoad(t, first, second, inDir, fleetFile)
	for _, procs := range []int{1, 2, 4} {
		var got *Corpus
		var err error
		withGOMAXPROCS(procs, func() { got, err = Load(first, second, sub) })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS %d: loaded corpus differs from a sequential load", procs)
		}
	}

	// Corrupt the third record of the second file and the first of the
	// directory's decision file.
	corrupt := func(path string, rec int) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		lines[rec-1] = []byte("{\"stream\": oops}\n")
		if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(second, 3)
	corrupt(inDir, 1)
	wantErr := fmt.Sprintf("replay: %s: obs: decision record 3: invalid character 'o' looking for beginning of value", second)
	missing := filepath.Join(dir, "missing.jsonl")
	for _, procs := range []int{1, 4} {
		for _, paths := range [][]string{{first, second, sub}, {first, second, missing}} {
			var err error
			withGOMAXPROCS(procs, func() { _, err = Load(paths...) })
			if err == nil || err.Error() != wantErr {
				t.Fatalf("GOMAXPROCS %d, paths %v: error %v, want %s", procs, paths, err, wantErr)
			}
		}
	}

	// A corrupt gzip stream is a read error, reported for its file
	// without a record number, as reading it whole reports it.
	gz, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	gz[len(gz)-6] ^= 0xff // inside the trailing CRC-32
	if err := os.WriteFile(first, gz, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(first); err == nil || err.Error() != fmt.Sprintf("replay: %s: %v", first, gzip.ErrChecksum) {
		t.Fatalf("corrupt gzip: error %v, want the checksum error", err)
	}
}

// FuzzLoad: for any file contents, plain or gzipped, Load never panics
// and returns what wholeFileLoad returns — the same corpus, or an error
// with the same text.
func FuzzLoad(f *testing.F) {
	dec, err := json.Marshal(obs.Decision{Stream: 2, Seq: 1, Frame: 8, Policy: "full", SimMS: 12.5})
	if err != nil {
		f.Fatal(err)
	}
	ev, err := json.Marshal(obs.FleetEvent{Seq: 1, Barrier: 3, Kind: "migrate", Stream: 1, From: "b0", To: "b1"})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(dec) + "\n" + string(dec) + "\n",
		string(ev) + "\n" + string(ev),
		string(dec) + "\n" + string(ev) + "\n",
		string(ev) + "\n" + string(dec) + "\n",
		string(dec[:len(dec)-5]),
		"",
		" \n\v",
		`{"Kind":"place","seq":2}`,
		`{"k\u0069nd":"place"}` + "\n" + `{"kind":"migrate"}`,
		"null\n{\"seq\":1}\n",
		"[1]\n",
		"{oops\n",
		"{}{}\n{} x\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		plain := filepath.Join(dir, "t.jsonl")
		gz := filepath.Join(dir, "t.jsonl.gz")
		if err := os.WriteFile(plain, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := obs.CreateTrace(gz)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{plain, gz} {
			want, wantErr := wholeFileLoad(path)
			got, err := Load(path)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, want %v", filepath.Base(path), err, wantErr)
			}
			if err != nil {
				if got != nil {
					t.Fatalf("%s: failed load returned a corpus", filepath.Base(path))
				}
				continue
			}
			if !reflect.DeepEqual(got, &Corpus{Files: []TraceFile{want}}) {
				t.Fatalf("%s: corpus differs from a whole-file load", filepath.Base(path))
			}
		}
	})
}

// TestLoadSniffEdgeCases pins how a file's first record decides its
// type, with the results a whole-file load with a map-decoded first
// record gives.
func TestLoadSniffEdgeCases(t *testing.T) {
	cases := []struct {
		name, data string
		decisions  int
		fleet      int
		err        string // after "replay: <path>: "
	}{
		{name: "unicode-space", data: " \n\v"},
		{name: "kind-is-case-sensitive", data: `{"Kind":"place","seq":2}` + "\n", decisions: 1},
		{name: "escaped-kind-key", data: `{"k\u0069nd":"place"}` + "\n" + `{"kind":"migrate"}`, fleet: 2},
		{name: "null-first", data: "null\n{\"seq\":1}\n", decisions: 2},
		{name: "array-first", data: "[1]\n",
			err: "record 1: json: cannot unmarshal array into Go value of type map[string]json.RawMessage"},
		{name: "broken-first", data: "{oops\n",
			err: "record 1: invalid character 'o' looking for beginning of object key string"},
	}
	dir := t.TempDir()
	for _, c := range cases {
		path := filepath.Join(dir, c.name+".jsonl")
		if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if c.err != "" {
			if want := "replay: " + path + ": " + c.err; err == nil || err.Error() != want {
				t.Errorf("%s: error %v, want %s", c.name, err, want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got.Decisions() != c.decisions || got.FleetEvents() != c.fleet {
			t.Errorf("%s: loaded %d decisions and %d fleet events, want %d and %d",
				c.name, got.Decisions(), got.FleetEvents(), c.decisions, c.fleet)
		}
	}
}

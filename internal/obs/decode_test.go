package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"litereconfig/internal/testutil"
)

// baseLine is a small canonical decision line with a replay payload; the
// edge and fallback lines below are one edit away from it.
const baseLine = `{"stream":1,"stream_name":"s1","seq":2,"frame":16,"sim_ms":10.5,"features":["hoc"],"branch":"b","gof_frames":8,` +
	`"replay":{"slo_ms":33.3,"light":[0.1,0.2],"heavy":{"hoc":[3]},"acc_light":[0.5,0.6],"acc":[0.52,0.61],"kernel_ms":[10.5,20.25]}}`

// edit replaces the first old in baseLine with new.
func edit(old, new string) string {
	if !strings.Contains(baseLine, old) {
		panic("edit: " + old + " not in baseLine")
	}
	return strings.Replace(baseLine, old, new, 1)
}

// canonicalEdgeLines are canonical lines at the edges of the grammar:
// the fast path must take them and decode them as json.Unmarshal does.
var canonicalEdgeLines = []string{
	baseLine,
	`{}`,
	`{"stream":1,"replay":{}}`,
	edit(`"stream":1,`, `"stream":-0,`),
	edit(`"sim_ms":10.5`, `"sim_ms":-0`),
	edit(`"sim_ms":10.5`, `"sim_ms":-1.25E+3`),
	edit(`"sim_ms":10.5`, `"sim_ms":0.5e-320`),
	edit(`"features":["hoc"]`, `"features":[]`),
	edit(`"light":[0.1,0.2]`, `"light":[]`),
	edit(`"heavy":{"hoc":[3]}`, `"heavy":{}`),
	edit(`"heavy":{"hoc":[3]}`, `"heavy":{"hoc":[],"resnet":[1,-2e2]}`),
}

// fallbackLines are near-canonical lines the fast path must hand to
// json.Unmarshal; readSeeds checks each against the sequential decoder.
var fallbackLines = []string{
	edit(`"stream":1,"stream_name":"s1",`, `"stream_name":"s1","stream":1,`),
	edit(`"acc":[0.52,0.61]`, `"acc":[0.52,0.61],"acc":[0.7]`),
	// json.Unmarshal merges the two maps.
	edit(`"heavy":{"hoc":[3]}`, `"heavy":{"hoc":[3]},"heavy":{"resnet":[1,2]}`),
	edit(`"stream":1`, `"Stream":1`),
	edit(`"branch":"b"`, `"branch":"b\"c"`),
	edit(`"branch":"b"`, `"branch":"bé"`),
	edit(`"branch":"b"`, "\"branch\":\"b\xff\""),
	edit(`"light":[0.1,0.2]`, `"light":null`),
	baseLine[:strings.Index(baseLine, `"replay":`)] + `"replay":null}`,
	edit(`"sim_ms":10.5`, `"sim_ms":1e400`),
	// Numbers strconv.ParseFloat takes but the JSON grammar does not.
	edit(`"sim_ms":10.5`, `"sim_ms":010.5`),
	edit(`"sim_ms":10.5`, `"sim_ms":10.`),
	edit(`"sim_ms":10.5`, `"sim_ms":.5`),
	edit(`"sim_ms":10.5`, `"sim_ms":1e`),
	edit(`"sim_ms":10.5`, `"sim_ms":+1`),
	edit(`"sim_ms":10.5`, `"sim_ms":0x1p3`),
	edit(`"sim_ms":10.5`, `"sim_ms":NaN`),
	edit(`"sim_ms":10.5`, `"sim_ms":Infinity`),
	edit(`"seq":2`, `"seq":1.0`),
	edit(`"seq":2`, `"seq":99999999999999999999`),
	edit(`"frame":16,`, `"frame": 16,`),
	baseLine + " ",
	edit(`"branch":"b",`, `"branch":"b","bogus":[1],`),
}

// traceLines returns the lines WriteTrace emits for ds.
func traceLines(t testing.TB, ds ...Decision) [][]byte {
	t.Helper()
	o := New()
	for _, d := range ds {
		o.record(d)
	}
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
}

// replayGolden returns the serve package's recorded replay-payload trace.
func replayGolden(t testing.TB) []byte {
	t.Helper()
	f, err := OpenTrace(filepath.Join("..", "serve", "testdata", "decision_trace_replay.golden.jsonl.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDecodeDecisionTakesRecordedTraces: the canonical decoder itself,
// not the json.Unmarshal fallback, takes every line of a fully populated
// decision and of a recorded serve replay trace, and the canonical edge
// lines, and decodes each exactly as json.Unmarshal does. A decoder that
// always fell back would pass every equality test but this one.
func TestDecodeDecisionTakesRecordedTraces(t *testing.T) {
	lines := traceLines(t, fullDecision())
	golden := bytes.Split(bytes.TrimSuffix(replayGolden(t), []byte("\n")), []byte("\n"))
	if len(golden) == 0 {
		t.Fatal("empty replay golden")
	}
	lines = append(lines, golden...)
	for _, l := range canonicalEdgeLines {
		lines = append(lines, []byte(l))
	}
	for i, line := range lines {
		var got, want Decision
		if !decodeDecision(line, &got) {
			t.Fatalf("line %d is not canonical to the fast path: %.300s", i, line)
		}
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) || !sameJSON(t, got, want) {
			t.Fatalf("line %d decodes differently from json.Unmarshal:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
}

// sameJSON compares the encodings of a and b, which unlike
// reflect.DeepEqual tell -0 from 0.
func sameJSON(t testing.TB, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

// TestDecodeDecisionRejectsNonCanonical: each fallback line really
// reaches json.Unmarshal, so the seeds built from them test the fallback.
func TestDecodeDecisionRejectsNonCanonical(t *testing.T) {
	for i, line := range fallbackLines {
		var d Decision
		if decodeDecision([]byte(line), &d) {
			t.Errorf("fallback line %d taken by the fast path: %s", i, line)
		}
	}
}

// TestDecodeDecisionAllocs bounds the fast path's allocations on a fully
// populated line: at most one per string, slice, map entry and the
// payload pointer, and none per number.
func TestDecodeDecisionAllocs(t *testing.T) {
	line := traceLines(t, fullDecision())[0]
	var d Decision
	allocs := testutil.AllocsPerRun(t, 300, func() {
		d = Decision{}
		if !decodeDecision(line, &d) {
			t.Fatal("fullDecision's line is not canonical to the fast path")
		}
	})
	budget := allocBudget(reflect.ValueOf(fullDecision()))
	if allocs > budget {
		t.Fatalf("decoding fullDecision's line allocates %d/op, want at most %d", allocs, budget)
	}
	t.Logf("%d allocs/op, budget %d", allocs, budget)
}

// allocBudget counts the non-empty strings, slices, map entries and
// pointers reachable from v.
func allocBudget(v reflect.Value) uint64 {
	var n uint64
	switch v.Kind() {
	case reflect.String:
		if v.Len() > 0 {
			n = 1
		}
	case reflect.Slice:
		if !v.IsNil() {
			n = 1
		}
		for i := 0; i < v.Len(); i++ {
			n += allocBudget(v.Index(i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			n += 1 + allocBudget(it.Key()) + allocBudget(it.Value())
		}
	case reflect.Pointer:
		if !v.IsNil() {
			n = 1 + allocBudget(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += allocBudget(v.Field(i))
		}
	}
	return n
}

var benchDecisions []Decision

// BenchmarkReadDecisions reads the recorded serve replay trace.
func BenchmarkReadDecisions(b *testing.B) {
	data := replayGolden(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := ReadDecisions(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		benchDecisions = ds
	}
}

package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"litereconfig/internal/testutil"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total")
	g := r.Gauge("depth")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
	if got := g.Value(); got != 999 {
		t.Fatalf("gauge = %v, want 999", got)
	}
	if r.Counter("hits_total") != c {
		t.Fatal("counter handle must be stable across lookups")
	}
	c.Add(-5)
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter moved backwards: %v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", []float64{10, 20, 50})
	for _, v := range []float64{5, 10, 15, 30, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hs := s.Histograms["lat_ms"]
	want := []uint64{2, 1, 1, 1} // le=10 gets 5 and 10 (le is inclusive), le=20 gets 15, le=50 gets 30, +Inf gets 100
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
	if hs.Count != 5 || hs.Sum != 160 {
		t.Fatalf("count=%d sum=%v, want 5/160", hs.Count, hs.Sum)
	}
}

func TestSnapshotTextDeterministicAndPrometheusShaped(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Counter("b_total").Add(2)
		r.Counter("a_total").Add(1)
		r.Gauge(`g{stream="s1"}`).Set(0.5)
		r.Gauge(`g{stream="s0"}`).Set(0.25)
		h := r.Histogram(`lat_ms{class="gold"}`, []float64{10, 20})
		h.Observe(5)
		h.Observe(15)
		h.Observe(99)
		return r.Snapshot()
	}
	text := build().Text()
	if text != build().Text() {
		t.Fatalf("identical registries must render identical text:\n%s", text)
	}
	for _, want := range []string{
		"# TYPE a_total counter",
		"# TYPE g gauge",
		`g{stream="s0"} 0.25`,
		"# TYPE lat_ms histogram",
		`lat_ms_bucket{class="gold",le="10"} 1`,
		`lat_ms_bucket{class="gold",le="20"} 2`,
		`lat_ms_bucket{class="gold",le="+Inf"} 3`,
		`lat_ms_sum{class="gold"} 119`,
		`lat_ms_count{class="gold"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("text missing %q:\n%s", want, text)
		}
	}
	// Families render in sorted order.
	if strings.Index(text, "a_total") > strings.Index(text, "b_total") {
		t.Fatalf("families not sorted:\n%s", text)
	}
}

func TestNilSafety(t *testing.T) {
	var o *Observer
	var r *Registry
	o.Registry().Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", []float64{1}).Observe(2)
	if v := r.Counter("x").Value(); v != 0 {
		t.Fatalf("nil counter value = %v", v)
	}
	so := o.StreamObserver(0, "s")
	if so != nil {
		t.Fatal("nil observer must yield a nil stream view")
	}
	so.BeginDecision(0, 0)
	if so.Pending() != nil {
		t.Fatal("nil stream view must have no pending decision")
	}
	so.EndGoF(8, 30)
	so.Close()
	if got := o.Decisions(); got != nil {
		t.Fatalf("nil observer decisions = %v", got)
	}
	if text := o.Snapshot().Text(); text != "" {
		t.Fatalf("nil observer snapshot text = %q", text)
	}
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil observer trace: err=%v len=%d", err, buf.Len())
	}
}

func TestDecisionLifecycleAndOrdering(t *testing.T) {
	o := New()
	// Two streams recording interleaved, as parallel rounds would.
	s0 := o.StreamObserver(0, "a")
	s1 := o.StreamObserver(1, "b")
	d := s1.BeginDecision(0, 0)
	d.Branch = "s224_n1_det"
	s1.EndGoF(1, 40)
	d = s0.BeginDecision(0, 0)
	d.Branch = "s448_n20_kcf_g8_d2"
	s0.EndGoF(8, 25)
	d = s0.BeginDecision(8, 200)
	d.Branch = "s448_n20_kcf_g8_d2"
	s0.Close() // trailing GoF: committed without realized fields

	got := o.Decisions()
	if len(got) != 3 {
		t.Fatalf("decisions = %d, want 3", len(got))
	}
	if got[0].Stream != 0 || got[0].Seq != 0 || got[1].Seq != 1 || got[2].Stream != 1 {
		t.Fatalf("trace not ordered by (stream, seq): %+v", got)
	}
	if got[0].GoFFrames != 8 || got[0].RealizedMS != 25 {
		t.Fatalf("realized fields lost: %+v", got[0])
	}
	if got[0].StreamName != "a" || got[2].StreamName != "b" {
		t.Fatalf("stream names lost: %+v", got)
	}

	var b1, b2 bytes.Buffer
	if err := o.WriteTrace(&b1); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteTrace(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("repeated WriteTrace must be byte-identical")
	}
	if lines := bytes.Count(b1.Bytes(), []byte("\n")); lines != 3 {
		t.Fatalf("trace lines = %d, want 3", lines)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1.5)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_ms", DefaultLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 200))
	}
}

func BenchmarkDecisionRecord(b *testing.B) {
	o := New()
	so := o.StreamObserver(0, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := so.BeginDecision(i, float64(i))
		d.Branch = "s448_n20_kcf_g8_d2"
		d.PredLatencyMS = 25
		so.EndGoF(8, 26)
	}
}

// TestLabeledMemoization pins the Labeled cache contract: canonical
// rendering (sorted keys, escaping, empty labels dropped) is unchanged,
// repeated calls return the identical string, call-order variants of
// one label set converge on one canonical name, and the steady-state
// hit path allocates nothing.
func TestLabeledMemoization(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Labeled("m"), "m"},
		{Labeled("m", L("b", "2"), L("a", "1")), `m{a="1",b="2"}`},
		{Labeled("m", L("a", "1"), L("b", "2")), `m{a="1",b="2"}`},
		{Labeled("m", L("", "x"), L("k", "")), "m"},
		{Labeled("m", L("k", `v"\`+"\n")), `m{k="v\"\\\n"}`},
		{Labeled("m", L("c", "3"), L("a", "1"), L("b", "2")), `m{a="1",b="2",c="3"}`},
		// 4+ labels bypass the cache but render identically.
		{Labeled("m", L("d", "4"), L("c", "3"), L("b", "2"), L("a", "1")),
			`m{a="1",b="2",c="3",d="4"}`},
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Fatalf("case %d: got %q, want %q", i, c.got, c.want)
		}
	}
	// Repeat calls hit the cache and agree byte for byte.
	for i := 0; i < 3; i++ {
		if got := Labeled("serve_rounds_total", L("board", "b7"), L("class", "gold")); got != `serve_rounds_total{board="b7",class="gold"}` {
			t.Fatalf("repeat %d: got %q", i, got)
		}
	}
	allocs := testutil.AllocsPerRun(t, 300, func() {
		Labeled("serve_rounds_total", L("board", "b7"), L("class", "gold"))
	})
	if allocs != 0 {
		t.Fatalf("cached Labeled allocates %d/op, want 0", allocs)
	}
}

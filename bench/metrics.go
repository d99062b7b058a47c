package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"litereconfig/internal/serve"
)

// outcome is one offered stream as the simulated metrics see it. For
// replay it is one (pass, recorded stream) chain.
type outcome struct {
	gold   bool
	served bool      // completed: not refused, retired, quarantined or preempt-retired
	frames int       // frames delivered
	within int       // frames delivered within the stream's SLO
	mapSum float64   // mAP × frames
	lat    []float64 // GoF-averaged per-frame latency samples, sim ms
	// firstMS is arrival → first frame delivered, sim ms: queue wait plus
	// the first GoF's per-frame latency; negative when unknown.
	firstMS float64
}

// servedOutcome converts a serve report row. waitMS is the stream's wait
// before its first round; a negative wait leaves firstMS unknown.
func servedOutcome(s *serve.StreamResult, waitMS float64) outcome {
	o := outcome{
		gold:    s.Class == "gold",
		served:  !s.Quarantined && !s.PreemptRetired && !s.FleetRetired,
		frames:  s.Frames,
		mapSum:  s.MAP * float64(s.Frames),
		firstMS: -1,
	}
	if s.Raw == nil {
		return o
	}
	o.lat = s.Raw.Latency.Samples()
	if len(o.lat) > 0 && waitMS >= 0 {
		o.firstMS = waitMS + o.lat[0]
	}
	if o.served {
		for _, ms := range o.lat {
			if ms <= s.SLO {
				o.within++
			}
		}
	}
	return o
}

// simPool accumulates the simulated outcomes of the pooled reps.
type simPool struct {
	// offered and failed are served_frac's base: streams offered (replay:
	// decisions of the identity pass) and those not served (replay:
	// diverged decisions).
	offered, failed int
	// Attainment bases: frames offered, including every frame of a
	// stream that was refused or not served to completion.
	frames, goldFrames int
	within, goldWithin int
	served             int // frames delivered, sim_map's weight
	mapSum             float64
	lat, first         []float64
}

// add pools one rep's outcomes and bases.
func (p *simPool) add(r *repOut) {
	p.offered += r.tries
	p.failed += r.failed
	p.frames += r.offeredFrames
	p.goldFrames += r.goldFrames
	for _, o := range r.outcomes {
		p.within += o.within
		if o.gold {
			p.goldWithin += o.within
		}
		p.served += o.frames
		p.mapSum += o.mapSum
		p.lat = append(p.lat, o.lat...)
		if o.firstMS >= 0 {
			p.first = append(p.first, o.firstMS)
		}
	}
}

// metrics returns the simulated metrics of the pool: the end-to-end ones
// and the arrival-to-first-frame waits, which the serve layer reports.
func (p *simPool) metrics() map[string]float64 {
	return map[string]float64{
		"sim_map":                  ratio(p.mapSum, float64(p.served)),
		"sim_mean_frame_ms":        ratio(sum(p.lat), float64(len(p.lat))),
		"sim_p50_frame_ms":         quantile(p.lat, 0.50),
		"sim_p99_frame_ms":         quantile(p.lat, 0.99),
		"slo_attain":               ratio(float64(p.within), float64(p.frames)),
		"slo_attain_gold":          ratio(float64(p.goldWithin), float64(p.goldFrames)),
		"served_frac":              1 - ratio(float64(p.failed), float64(p.offered)),
		"serve.first_frame_ms_p50": quantile(p.first, 0.50),
		"serve.first_frame_ms_p90": quantile(p.first, 0.90),
	}
}

// window measures one rep's timed window: wall time, the Go runtime's
// allocation and GC work, and the peak resident set. Opening it returns
// freed heap to the OS and resets the kernel's peak-RSS mark, so every
// rep starts from the same resident set and its peak is its own.
type window struct {
	t0 time.Time
	m0 runtime.MemStats
}

func openWindow() *window {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux); elsewhere the peak
	// spans the whole process, which only overstates it.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	w := &window{}
	runtime.ReadMemStats(&w.m0)
	w.t0 = time.Now()
	return w
}

func (w *window) close(out *repOut) {
	out.wallS = time.Since(w.t0).Seconds()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	out.allocMB = float64(m1.TotalAlloc-w.m0.TotalAlloc) / 1e6
	out.gcs = float64(m1.NumGC - w.m0.NumGC)
	out.gcPauseMS = float64(m1.PauseTotalNs-w.m0.PauseTotalNs) / 1e6
	out.rssMB = peakRSSMB()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// quantile returns the nearest-rank q-quantile (q in [0, 1]) of xs, or 0
// for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0, so no metric is ever NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countWriter counts the bytes written to it and discards them: trace
// encoding is timed without disk I/O.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

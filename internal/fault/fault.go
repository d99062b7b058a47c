// Package fault is the deterministic fault-injection subsystem: a
// seeded, per-stream schedule of adverse events that the pipeline and
// the serving engine must absorb without deadlocking or silently
// blowing the latency SLO. It models the failure modes a deployed
// LiteReconfig board actually faces beyond the paper's well-behaved
// contention generator (Sec. 6): latency spikes on the detector,
// tracker or feature-extraction path, heavy-feature extraction
// failures, contention bursts from co-located applications, whole
// stream stalls, and worker crashes.
//
// Determinism is the design constraint: every draw is keyed by
// (seed, class, frame[, feature]) through an order-independent hash, so
// a fixed seed yields the same fault schedule regardless of query
// order, and two runs of the same chaos configuration produce
// byte-identical decision traces. One-shot events (worker panics and
// explicit Plan entries) fire exactly once and stay fired, which keeps
// bounded retry of a failed round from re-triggering the same fault
// forever.
//
// An Injector belongs to one stream and is queried only from the
// goroutine currently running that stream (the serving engine's round
// barrier orders handoffs); it is not safe for concurrent use.
package fault

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"litereconfig/internal/contend"
	"litereconfig/internal/fastrand"
)

// Class identifies a fault family.
type Class int

// The injectable fault classes.
const (
	// LatencySpike charges extra simulated milliseconds at a GoF
	// boundary, attributed to the detector, tracker or feature path.
	LatencySpike Class = iota
	// ExtractFail makes one heavy-feature extraction fail: the
	// extraction cost is still paid (the work was attempted) but no
	// feature vector is produced.
	ExtractFail
	// ContentionBurst adds a burst of GPU contention on top of whatever
	// the stream's contention generator reports, for a window of frames.
	ContentionBurst
	// StreamStall freezes the stream for a block of simulated
	// milliseconds at a GoF boundary (an I/O hiccup, a decoder reset).
	StreamStall
	// WorkerPanic panics the goroutine running the stream's round; the
	// serving engine must contain it. One-shot per scheduled event.
	WorkerPanic

	// NumClasses is the number of fault classes.
	NumClasses int = iota
)

var classNames = [NumClasses]string{
	"spike", "extract_fail", "burst", "stall", "panic",
}

// String returns the canonical lower-case class name.
func (c Class) String() string {
	if c < 0 || int(c) >= NumClasses {
		return "unknown"
	}
	return classNames[c]
}

// Spike targets, cycled deterministically per event.
var spikeComponents = []string{"detector", "tracker", "feature"}

// Event is one concrete fault: either an explicit Plan entry or a
// rate-driven draw that fired.
type Event struct {
	Class Class
	// Frame is the global frame index the event is anchored at. A
	// scheduled event fires at the first opportunity at or after Frame.
	Frame int
	// MS is the magnitude of latency-shaped faults (spike, stall).
	MS float64
	// Level and Frames describe a contention burst: added level and
	// window length.
	Level  float64
	Frames int
	// Feature names the extraction target of an ExtractFail ("" = any
	// heavy feature).
	Feature string
	// Component names the spike target (detector, tracker, feature).
	Component string
}

// String renders the event for traces: "spike:detector:40ms",
// "extract_fail:hoc", "stall:250ms", "burst:0.40x30", "panic".
func (e Event) String() string {
	switch e.Class {
	case LatencySpike:
		return fmt.Sprintf("spike:%s:%.0fms", e.Component, e.MS)
	case ExtractFail:
		f := e.Feature
		if f == "" {
			f = "any"
		}
		return "extract_fail:" + f
	case ContentionBurst:
		return fmt.Sprintf("burst:%.2fx%d", e.Level, e.Frames)
	case StreamStall:
		return fmt.Sprintf("stall:%.0fms", e.MS)
	case WorkerPanic:
		return "panic"
	}
	return "unknown"
}

// Plan is an explicit per-stream fault schedule. Scheduled events are
// one-shot: each fires at the first query at or after its frame, then
// never again.
type Plan struct{ Events []Event }

// Config describes a rate-driven fault schedule. All rates are
// per-opportunity probabilities (per GoF boundary for spikes, stalls
// and panics; per extraction for failures; per frame for burst starts);
// zero disables the class. Magnitudes left zero take the defaults.
type Config struct {
	// Seed drives every draw; the injector mixes in the stream's own
	// seed so sibling streams see distinct schedules.
	Seed int64

	// SpikeRate / SpikeMS: latency spikes at GoF boundaries.
	SpikeRate float64
	SpikeMS   float64 // default 40

	// ExtractFailRate: heavy-feature extraction failures.
	ExtractFailRate float64

	// BurstRate / BurstLevel / BurstFrames: contention bursts.
	BurstRate   float64
	BurstLevel  float64 // default 0.4
	BurstFrames int     // default 30

	// StallRate / StallMS: whole-stream stalls at GoF boundaries.
	StallRate float64
	StallMS   float64 // default 250

	// PanicRate: worker panics, checked once per GoF step.
	PanicRate float64

	// CrashRound schedules a fail-stop board crash: at the given 1-based
	// fleet round the whole board dies permanently and every live
	// stream's in-memory state is lost. Zero disables. Board-scoped:
	// only the fleet dispatcher interprets it; per-stream injectors
	// ignore it.
	CrashRound int

	// BlackoutRound / BlackoutRounds schedule a transient board
	// blackout: starting at the given 1-based fleet round the board is
	// unresponsive (skipped at barriers, state frozen intact) for
	// BlackoutRounds rounds, then returns. Zero BlackoutRound disables;
	// zero BlackoutRounds takes the default. Board-scoped like
	// CrashRound.
	BlackoutRound  int
	BlackoutRounds int
}

// Defaults for Config magnitudes left zero.
const (
	DefaultSpikeMS        = 40.0
	DefaultBurstLevel     = 0.4
	DefaultBurstFrames    = 30
	DefaultStallMS        = 250.0
	DefaultBlackoutRounds = 3
)

func (c Config) withDefaults() Config {
	if c.SpikeMS <= 0 {
		c.SpikeMS = DefaultSpikeMS
	}
	if c.BurstLevel <= 0 {
		c.BurstLevel = DefaultBurstLevel
	}
	if c.BurstFrames <= 0 {
		c.BurstFrames = DefaultBurstFrames
	}
	if c.StallMS <= 0 {
		c.StallMS = DefaultStallMS
	}
	if c.BlackoutRounds <= 0 {
		c.BlackoutRounds = DefaultBlackoutRounds
	}
	return c
}

// Enabled reports whether any per-stream fault class has a positive
// rate. Board-scoped fail-stop faults (crash, blackout) deliberately do
// not count: they are enacted by the fleet dispatcher, not by stream
// injectors, so a crash-only board config must not create injectors.
func (c Config) Enabled() bool {
	return c.SpikeRate > 0 || c.ExtractFailRate > 0 || c.BurstRate > 0 ||
		c.StallRate > 0 || c.PanicRate > 0
}

// BlackoutWindow returns the board blackout window [start, end) in
// 1-based fleet rounds, or (0, 0) when no blackout is scheduled.
func (c Config) BlackoutWindow() (start, end int) {
	if c.BlackoutRound <= 0 {
		return 0, 0
	}
	rounds := c.BlackoutRounds
	if rounds <= 0 {
		rounds = DefaultBlackoutRounds
	}
	return c.BlackoutRound, c.BlackoutRound + rounds
}

// Injector drives one stream's faults. The zero of every query on a
// nil *Injector is "no fault", so callers wire it unconditionally.
type Injector struct {
	cfg  Config
	plan Plan
	seed int64

	// fired marks consumed one-shot events: plan entries by index,
	// rate-driven panics by frame.
	firedPlan  map[int]bool
	firedPanic map[int]bool

	counts [NumClasses]int

	// rng is every draw's source, reseeded in place per draw.
	rng *rand.Rand
}

// NewInjector builds a rate-driven injector. streamSeed is the stream's
// own seed, mixed with cfg.Seed so every stream draws an independent
// deterministic schedule.
func NewInjector(cfg Config, streamSeed int64) *Injector {
	return &Injector{
		cfg:        cfg.withDefaults(),
		seed:       cfg.Seed*1000003 + streamSeed*40503,
		firedPlan:  map[int]bool{},
		firedPanic: map[int]bool{},
		rng:        rand.New(fastrand.New(0)),
	}
}

// FromPlan builds an injector that fires exactly the scheduled events.
func FromPlan(p Plan) *Injector {
	in := NewInjector(Config{}, 0)
	in.plan = p
	return in
}

// draw returns the deterministic uniform draw for (class, frame, salt).
// The key is a hash, not a sequence position, so draws are identical
// whether frames are queried in order, backwards, or with gaps. The
// returned source is the injector's own, reseeded with the key; it is
// valid until the next draw.
func (in *Injector) draw(class Class, frame int, salt int64) *rand.Rand {
	h := in.seed
	h = h*1000003 + int64(class+1)*7919
	h = h*1000003 + int64(frame)*2654435761
	h = h*1000003 + salt
	in.rng.Seed(h)
	return in.rng
}

// takePlan fires (at most one per call) an unfired plan event of the
// class anchored at or before frame, matching the feature filter.
func (in *Injector) takePlan(class Class, frame int, feature string) (Event, bool) {
	for i, e := range in.plan.Events {
		if e.Class != class || e.Frame > frame || in.firedPlan[i] {
			continue
		}
		if class == ExtractFail && e.Feature != "" && e.Feature != feature {
			continue
		}
		in.firedPlan[i] = true
		return e, true
	}
	return Event{}, false
}

// Boundary returns the latency faults (spikes and stalls) due at the
// GoF boundary anchored at the given global frame: the total extra
// simulated milliseconds to charge, plus the fired events for the
// trace. It must be called at most once per boundary.
func (in *Injector) Boundary(frame int) (ms float64, events []Event) {
	if in == nil {
		return 0, nil
	}
	if e, ok := in.takePlan(LatencySpike, frame, ""); ok {
		if e.Component == "" {
			e.Component = spikeComponents[frame%len(spikeComponents)]
		}
		ms += e.MS
		events = append(events, e)
		in.counts[LatencySpike]++
	}
	if e, ok := in.takePlan(StreamStall, frame, ""); ok {
		ms += e.MS
		events = append(events, e)
		in.counts[StreamStall]++
	}
	if in.cfg.SpikeRate > 0 {
		rng := in.draw(LatencySpike, frame, 0)
		if rng.Float64() < in.cfg.SpikeRate {
			e := Event{
				Class: LatencySpike, Frame: frame,
				// Half-to-full magnitude, and a deterministic target.
				MS:        in.cfg.SpikeMS * (0.5 + rng.Float64()*0.5),
				Component: spikeComponents[rng.Intn(len(spikeComponents))],
			}
			ms += e.MS
			events = append(events, e)
			in.counts[LatencySpike]++
		}
	}
	if in.cfg.StallRate > 0 {
		rng := in.draw(StreamStall, frame, 0)
		if rng.Float64() < in.cfg.StallRate {
			e := Event{Class: StreamStall, Frame: frame,
				MS: in.cfg.StallMS * (0.5 + rng.Float64()*0.5)}
			ms += e.MS
			events = append(events, e)
			in.counts[StreamStall]++
		}
	}
	return ms, events
}

// ExtractFails reports whether the heavy-feature extraction of the
// named feature at the given decision frame fails.
func (in *Injector) ExtractFails(frame int, feature string) bool {
	if in == nil {
		return false
	}
	if _, ok := in.takePlan(ExtractFail, frame, feature); ok {
		in.counts[ExtractFail]++
		return true
	}
	if in.cfg.ExtractFailRate <= 0 {
		return false
	}
	var salt int64
	for _, b := range []byte(feature) {
		salt = salt*131 + int64(b)
	}
	if in.draw(ExtractFail, frame, salt).Float64() < in.cfg.ExtractFailRate {
		in.counts[ExtractFail]++
		return true
	}
	return false
}

// Contention returns the burst contention level added at the given
// frame: the strongest burst whose window covers it. Burst windows are
// pure functions of the schedule, so this query is stateless and safe
// at any frame.
func (in *Injector) Contention(frame int) float64 {
	if in == nil || frame < 0 {
		return 0
	}
	level := 0.0
	for _, e := range in.plan.Events {
		if e.Class == ContentionBurst && frame >= e.Frame &&
			(e.Frames <= 0 || frame < e.Frame+e.Frames) && e.Level > level {
			level = e.Level
		}
	}
	if in.cfg.BurstRate > 0 {
		for start := frame - in.cfg.BurstFrames + 1; start <= frame; start++ {
			if start < 0 {
				continue
			}
			rng := in.draw(ContentionBurst, start, 0)
			if rng.Float64() < in.cfg.BurstRate {
				if l := in.cfg.BurstLevel * (0.5 + rng.Float64()*0.5); l > level {
					level = l
				}
			}
		}
	}
	return level
}

// PanicDue reports whether a worker panic is scheduled at or before the
// given frame. Every firing is one-shot: after the serving engine
// recovers and retries the round, the same frame does not re-panic.
func (in *Injector) PanicDue(frame int) bool {
	if in == nil {
		return false
	}
	if _, ok := in.takePlan(WorkerPanic, frame, ""); ok {
		in.counts[WorkerPanic]++
		return true
	}
	if in.cfg.PanicRate <= 0 || in.firedPanic[frame] {
		return false
	}
	if in.draw(WorkerPanic, frame, 0).Float64() < in.cfg.PanicRate {
		in.firedPanic[frame] = true
		in.counts[WorkerPanic]++
		return true
	}
	return false
}

// Counts returns how many events of each class have fired so far.
func (in *Injector) Counts() map[string]int {
	out := map[string]int{}
	if in == nil {
		return out
	}
	for c, n := range in.counts {
		if n > 0 {
			out[Class(c).String()] = n
		}
	}
	return out
}

// burstGenerator layers the injector's contention bursts on top of an
// inner generator.
type burstGenerator struct {
	inner contend.Generator
	inj   *Injector
}

// Level implements contend.Generator.
func (b burstGenerator) Level(frame int) float64 {
	level := b.inner.Level(frame) + b.inj.Contention(frame)
	if level > 0.99 {
		level = 0.99
	}
	return level
}

// Name implements contend.Generator.
func (b burstGenerator) Name() string { return b.inner.Name() + "+bursts" }

// WrapContention layers the injector's contention bursts on top of a
// generator. A nil injector returns the generator unchanged.
func WrapContention(g contend.Generator, inj *Injector) contend.Generator {
	if inj == nil {
		return g
	}
	return burstGenerator{inner: g, inj: inj}
}

// ParseSpec parses the -faults flag grammar: comma-separated key=value
// pairs, where the keys are the class rates (spike, extract, burst,
// stall, panic), the magnitudes (spike_ms, burst_level, burst_frames,
// stall_ms), the board-scoped fail-stop schedules (crash, blackout,
// blackout_rounds — 1-based fleet rounds) and seed. Example:
//
//	spike=0.05,extract=0.1,burst=0.02,stall=0.01,panic=0.005,seed=42
//	crash=8            (board dies permanently at round 8)
//	blackout=5,blackout_rounds=3  (board unresponsive rounds 5-7)
//
// Rates must lie in [0, 1]; magnitudes must be finite and >= 0; seed
// must be an integer, and burst_frames, crash, blackout and
// blackout_rounds integers >= 0.
// Errors name the offending token and its 1-based position in the spec.
// Repeating a key (including via an alias such as extract/extract_fail)
// is an error rather than a silent last-one-wins.
func ParseSpec(spec string) (*Config, error) {
	cfg := &Config{}
	seen := map[string]int{} // canonical key -> first token position
	pos := 0
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		pos++
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("fault: bad spec token %q at position %d (want key=value)", tok, pos)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		canon := key
		if key == "extract_fail" {
			canon = "extract"
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = parseInt64(val)
		case "spike":
			cfg.SpikeRate, err = parseRate(val)
		case "spike_ms":
			cfg.SpikeMS, err = parseMagnitude(val)
		case "extract", "extract_fail":
			cfg.ExtractFailRate, err = parseRate(val)
		case "burst":
			cfg.BurstRate, err = parseRate(val)
		case "burst_level":
			cfg.BurstLevel, err = parseMagnitude(val)
		case "burst_frames":
			cfg.BurstFrames, err = parseCount(val)
		case "stall":
			cfg.StallRate, err = parseRate(val)
		case "stall_ms":
			cfg.StallMS, err = parseMagnitude(val)
		case "panic":
			cfg.PanicRate, err = parseRate(val)
		case "crash":
			cfg.CrashRound, err = parseCount(val)
		case "blackout":
			cfg.BlackoutRound, err = parseCount(val)
		case "blackout_rounds":
			cfg.BlackoutRounds, err = parseCount(val)
		default:
			return nil, fmt.Errorf("fault: unknown key %q at position %d (token %q; known: %s)",
				key, pos, tok, strings.Join(specKeys(), ", "))
		}
		if err != nil {
			return nil, fmt.Errorf("fault: bad value %q for key %q at position %d (token %q): %v",
				val, key, pos, tok, err)
		}
		if first, dup := seen[canon]; dup {
			return nil, fmt.Errorf("fault: duplicate key %q at position %d (first set at position %d)",
				key, pos, first)
		}
		seen[canon] = pos
	}
	return cfg, nil
}

// parseRate parses a per-opportunity probability: finite, in [0, 1].
func parseRate(s string) (float64, error) {
	f, err := parseFloat(s)
	if err == nil && !(f >= 0 && f <= 1) {
		err = errors.New("want a rate in [0, 1]")
	}
	return f, err
}

// parseMagnitude parses a duration or level: finite and >= 0.
func parseMagnitude(s string) (float64, error) {
	f, err := parseFloat(s)
	if err == nil && !(f >= 0 && f <= math.MaxFloat64) {
		err = errors.New("want a finite value >= 0")
	}
	return f, err
}

func parseFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	return f, numErr(err)
}

// parseCount parses a round number or frame count: an integer >= 0.
func parseCount(s string) (int, error) {
	n, err := strconv.ParseInt(s, 10, strconv.IntSize)
	if err == nil && n < 0 {
		return 0, errors.New("want an integer >= 0")
	}
	return int(n), numErr(err)
}

func parseInt64(s string) (int64, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	return n, numErr(err)
}

// numErr drops strconv's "strconv.ParseX: parsing ..." prefix, which
// repeats what the ParseSpec error already says.
func numErr(err error) error {
	if ne, ok := err.(*strconv.NumError); ok {
		return ne.Err
	}
	return err
}

// ParseBoardSpecs parses the board-scoped fault grammar used by the
// fleet dispatcher: semicolon-separated entries, each either a bare
// ParseSpec spec (applied to every board, keyed "*") or "<board>:<spec>"
// scoping the schedule to one named board. Later entries may not repeat
// a board. Example:
//
//	"spike=0.01;b1:panic=0.2,stall=0.1"
//
// injects a mild spike schedule fleet-wide and a panic/stall storm on
// board b1 only. The returned map keys are board names plus "*" for the
// fleet-wide default; an empty spec yields an empty map.
func ParseBoardSpecs(spec string) (map[string]*Config, error) {
	out := map[string]*Config{}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		board, body := "*", entry
		if head, rest, ok := strings.Cut(entry, ":"); ok && !strings.Contains(head, "=") {
			board, body = strings.TrimSpace(head), rest
			if board == "" {
				board = "*"
			}
		}
		cfg, err := ParseSpec(body)
		if err != nil {
			return nil, fmt.Errorf("board %q: %w", board, err)
		}
		if _, dup := out[board]; dup {
			return nil, fmt.Errorf("fault: duplicate board %q in spec %q", board, spec)
		}
		out[board] = cfg
	}
	return out, nil
}

// BoardConfig resolves the schedule for one board from a ParseBoardSpecs
// map: the board's own entry if present, else the "*" default, else nil.
func BoardConfig(specs map[string]*Config, board string) *Config {
	if c, ok := specs[board]; ok {
		return c
	}
	return specs["*"]
}

// ValidateBoards rejects a ParseBoardSpecs map naming a board that is
// not in the fleet: a typo'd board label would otherwise silently
// inject nothing. The "*" fleet-wide default is always accepted. The
// error names the unknown label and the known board set.
func ValidateBoards(specs map[string]*Config, known []string) error {
	knownSet := make(map[string]bool, len(known))
	for _, k := range known {
		knownSet[k] = true
	}
	labels := make([]string, 0, len(specs))
	for label := range specs {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		if label == "*" || knownSet[label] {
			continue
		}
		sorted := append([]string(nil), known...)
		sort.Strings(sorted)
		return fmt.Errorf("fault: spec names unknown board %q (known boards: %s)",
			label, strings.Join(sorted, ", "))
	}
	return nil
}

// specKeys lists the ParseSpec grammar's keys for error messages.
func specKeys() []string {
	keys := []string{"seed", "spike", "spike_ms", "extract", "burst",
		"burst_level", "burst_frames", "stall", "stall_ms", "panic",
		"crash", "blackout", "blackout_rounds"}
	sort.Strings(keys)
	return keys
}

package obs

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"sync"
)

// Decision is one scheduler decision at a Group-of-Frames boundary: what
// the scheduler saw, what it predicted, what it chose, and — filled in
// once the GoF has executed — what actually happened. Timestamps are
// simulated milliseconds on the stream's clock.
type Decision struct {
	// Stream and StreamName identify the stream; Seq is the per-stream
	// decision index and Frame the global frame index at the boundary.
	Stream     int    `json:"stream"`
	StreamName string `json:"stream_name,omitempty"`
	Seq        int    `json:"seq"`
	Frame      int    `json:"frame"`
	// Gen is the stream's recovery generation: 0 (omitted) for the
	// original incarnation, n for the incarnation restored from its
	// n-th checkpoint recovery. Replayed decisions after a board crash
	// would otherwise collide with the lost incarnation's (stream, seq)
	// coordinates in the shared trace.
	Gen int `json:"gen,omitempty"`
	// SimMS is the stream's simulated clock at decision start.
	SimMS float64 `json:"sim_ms"`

	// Policy is the scheduler variant; Contention the contention level
	// the scheduler planned against (sensed, or ground truth under the
	// oracle ablation).
	Policy     string  `json:"policy,omitempty"`
	Contention float64 `json:"contention"`

	// Features is the heavy feature set the cost-benefit analyzer
	// selected; BenefitMAP its Ben(f_H) verdict (net objective gain of
	// the set over light-only, in predicted mAP) and FeatureCostMS the
	// predicted extract+predict cost it weighed against that gain.
	Features      []string `json:"features,omitempty"`
	BenefitMAP    float64  `json:"benefit_map"`
	FeatureCostMS float64  `json:"feature_cost_ms"`

	// Branch is the chosen execution branch; Switched and SwitchCostMS
	// record the reconfiguration actually charged by the kernel.
	Branch       string  `json:"branch"`
	Switched     bool    `json:"switched,omitempty"`
	SwitchCostMS float64 `json:"switch_cost_ms"`

	// PredAccuracy and PredLatencyMS are the Eq. 3 terms for the chosen
	// branch: predicted A(b, f) and predicted per-frame latency L(b, f)
	// including the amortized scheduler and switching overhead.
	// FeasibleBranches counts the branches that fit the SLO budget;
	// Fallback marks a decision where none did and the scheduler
	// degraded to the cheapest branch.
	PredAccuracy     float64 `json:"pred_acc"`
	PredLatencyMS    float64 `json:"pred_lat_ms"`
	FeasibleBranches int     `json:"feasible_branches"`
	Fallback         bool    `json:"fallback,omitempty"`

	// SchedMS is the realized scheduler cost of this decision (feature
	// extraction, model inference, optimization) on the simulated clock.
	SchedMS float64 `json:"sched_ms"`

	// Fault and degradation state (all omitted on a healthy, unfaulted
	// decision, so unfaulted traces are byte-identical with older runs).
	// FaultMS is injected fault latency (spikes, stalls) charged at this
	// GoF boundary and FaultEvents names the fired events; Degrade is
	// the watchdog's branch-ladder level (0 = normal, higher = cheaper
	// branches forced); Breaker is the heavy-feature circuit state when
	// not closed ("open", "half-open"); FailedFeatures lists heavy
	// extractions that failed this decision.
	FaultMS        float64  `json:"fault_ms,omitempty"`
	FaultEvents    []string `json:"fault_events,omitempty"`
	Degrade        int      `json:"degrade,omitempty"`
	Breaker        string   `json:"breaker,omitempty"`
	FailedFeatures []string `json:"failed_features,omitempty"`

	// Online-adaptation state (all omitted when adaptation is off, so
	// unadapted traces are byte-identical with older runs). AdaptVersion
	// is the champion model version serving this decision ("v0" until
	// the first promotion, then registry labels like "s3.v2");
	// AdaptEvent marks a rollout action taken at the preceding GoF
	// barrier ("promote" or "demote"); AdaptChampErrMS and
	// AdaptChalErrMS are the shadow-error EWMAs (|predicted − realized|
	// per-frame GoF latency) of champion and challenger.
	AdaptVersion    string  `json:"adapt_version,omitempty"`
	AdaptEvent      string  `json:"adapt_event,omitempty"`
	AdaptChampErrMS float64 `json:"adapt_champ_err_ms,omitempty"`
	AdaptChalErrMS  float64 `json:"adapt_chal_err_ms,omitempty"`

	// GoFFrames and RealizedMS close the loop once the GoF has run: the
	// realized GoF length and its realized GoF-averaged per-frame
	// latency, directly comparable with PredLatencyMS.
	GoFFrames  int     `json:"gof_frames"`
	RealizedMS float64 `json:"realized_ms"`

	// Risk-aware admission state (all omitted under legacy mean
	// admission — RiskQuantile 0 — so existing traces stay
	// byte-identical; appended after the older fields so their
	// serialized order is unchanged). RiskQ is the configured admission
	// quantile; PredP95MS the chosen branch's q-quantile per-frame
	// latency — the point estimate lifted by the lognormal prediction
	// interval, named for the paper's default q = 0.95; FailProb its
	// predicted tracker-failure probability. RealizedMS <= PredP95MS
	// per decision is what the empirical-coverage calibration counts.
	RiskQ     float64 `json:"risk_q,omitempty"`
	PredP95MS float64 `json:"pred_p95_ms,omitempty"`
	FailProb  float64 `json:"fail_prob,omitempty"`

	// Replay is the opt-in counterfactual-replay payload: the full set
	// of scheduler *inputs* behind this decision, rich enough for
	// internal/replay to re-run the branch/feature optimization offline
	// under altered policy knobs. Nil (and omitted) unless the run was
	// configured with ReplayTrace, so existing traces stay
	// byte-identical. It is the last field so the serialized order of
	// all older fields is unchanged.
	Replay *ReplayPayload `json:"replay,omitempty"`
}

// ReplayPayload captures everything the scheduler consumed while taking
// one decision — knobs, sensed environment, feature vectors, and the
// per-branch prediction tables of Eq. 3 for the full candidate set.
// Replaying the *unchanged* policy over these inputs must reproduce the
// recorded decision exactly (the fidelity invariant internal/replay
// enforces); altering a knob yields a counterfactual decision priced by
// the same tables.
type ReplayPayload struct {
	// SLOMS, SafetyFactor, BudgetMS, Hysteresis and CostWeight are the
	// policy knobs the decision planned under (BudgetMS = SLO x safety).
	SLOMS        float64 `json:"slo_ms"`
	SafetyFactor float64 `json:"safety_factor"`
	BudgetMS     float64 `json:"budget_ms"`
	Hysteresis   float64 `json:"hysteresis,omitempty"`
	CostWeight   float64 `json:"cost_weight,omitempty"`
	// S0MS is the estimated light-path scheduler cost (extract +
	// predict) the cost-benefit analyzer amortizes; SchedSpentMS the
	// realized scheduler spend at constrained-optimization time (light
	// path plus any heavy extraction/prediction actually charged).
	S0MS         float64 `json:"s0_ms"`
	SchedSpentMS float64 `json:"sched_spent_ms"`
	// ManageOverhead mirrors the policy's overhead regime: false for
	// the greedy MaxContent/ForceFeature variants, which apply the SLO
	// to the kernel only. DisableSwitchCost mirrors the C(b0,b)
	// ablation knob.
	ManageOverhead    bool `json:"manage_overhead,omitempty"`
	DisableSwitchCost bool `json:"no_switch_cost,omitempty"`
	// HasCur and CurBranch identify the branch the kernel was on (the
	// b0 of the switching cost); SwitchMS is C(b0, b) per candidate
	// branch as the scheduler priced it (adapter-observed estimates
	// included), present only when HasCur.
	HasCur    bool      `json:"has_cur,omitempty"`
	CurBranch string    `json:"cur_branch,omitempty"`
	SwitchMS  []float64 `json:"switch_ms,omitempty"`
	// GPUScale and CPUScale convert base (TX2, zero-contention) costs
	// into planned milliseconds under the decision's device, sensed
	// contention and drift estimate: the scheduler's estimate(class, 1).
	// CPUAdj is the online-learned global CPU multiplier in effect.
	GPUScale float64 `json:"gpu_scale"`
	CPUScale float64 `json:"cpu_scale"`
	CPUAdj   float64 `json:"cpu_adj,omitempty"`
	// NumBranches pins the candidate-set size; a replay engine must
	// load a model bundle with the same branch space.
	NumBranches int `json:"num_branches"`
	// Light is the light feature vector; Heavy the extracted heavy
	// feature vectors by kind (only kinds that were actually extracted
	// this decision are present).
	Light []float64            `json:"light"`
	Heavy map[string][]float64 `json:"heavy,omitempty"`
	// AccLight is the content-agnostic per-branch accuracy prediction
	// A(b, f_L); Acc the content-aware A(b, f) under the extracted
	// feature set (omitted when no heavy feature survived — the two
	// are then identical). KernelMS is the per-branch kernel latency
	// estimate L0(b, f_L) scaled to planned milliseconds (device,
	// contention, drift, CPU adjustment and learned bias included).
	AccLight []float64 `json:"acc_light"`
	Acc      []float64 `json:"acc,omitempty"`
	KernelMS []float64 `json:"kernel_ms"`
	// FeatCostMS is the estimated extract+predict cost of every heavy
	// feature kind under this decision's device and contention — the
	// prices the cost-benefit analyzer weighed (recorded for all kinds,
	// selected or not, so replay can re-select under altered budgets).
	FeatCostMS map[string]float64 `json:"feat_cost_ms,omitempty"`
	// PolicyRev versions the admission procedure the decision was taken
	// under: 0 (omitted) is legacy mean admission, 1 is risk-aware
	// quantile admission. Replay dispatches on it so corpora recorded
	// before the risk procedure existed keep replaying under the old
	// procedure bit-exactly. RiskQ is the admission quantile, and
	// RiskFactor / FailProb carry the per-branch quantile inflation
	// factors and tracker-failure probabilities the admission consumed —
	// recorded verbatim so replay needs no variance state of its own.
	// All omitted under mean admission.
	PolicyRev  int       `json:"policy_rev,omitempty"`
	RiskQ      float64   `json:"risk_q,omitempty"`
	RiskFactor []float64 `json:"risk_factor,omitempty"`
	FailProb   []float64 `json:"fail_prob,omitempty"`
}

// Observer is the root observability sink for one run: a metrics
// Registry plus the decision trace. One Observer is shared by every
// stream of a run; per-stream recording goes through StreamObserver
// views. Safe for concurrent use.
type Observer struct {
	registry *Registry

	mu        sync.Mutex
	decisions []Decision
	fleet     []FleetEvent
}

// New builds an Observer with a fresh registry.
func New() *Observer { return &Observer{registry: NewRegistry()} }

// Registry returns the observer's metrics registry (nil for a nil
// observer, which every registry operation tolerates).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.registry
}

// Snapshot copies the observer's current metric values.
func (o *Observer) Snapshot() Snapshot { return o.Registry().Snapshot() }

// record appends one completed decision to the trace.
func (o *Observer) record(d Decision) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.decisions = append(o.decisions, d)
	o.mu.Unlock()
}

// Decisions returns a copy of the trace sorted by (stream, gen, seq).
// The order is independent of goroutine scheduling, so fixed-seed runs
// yield identical traces; a recovered stream's replayed decisions sort
// after its lost incarnation's.
func (o *Observer) Decisions() []Decision {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	out := append([]Decision(nil), o.decisions...)
	o.mu.Unlock()
	SortDecisions(out)
	return out
}

// SortDecisions sorts ds stably into (stream, gen, seq) order, the
// order the trace writers emit, which replay chains per-stream state
// in. Input already in that order is left untouched without sorting.
func SortDecisions(ds []Decision) {
	type key struct{ stream, gen, seq, at int }
	keys := make([]key, len(ds))
	for i := range ds {
		keys[i] = key{ds[i].Stream, ds[i].Gen, ds[i].Seq, i}
	}
	byKey := func(a, b key) int {
		return cmp.Or(cmp.Compare(a.stream, b.stream), cmp.Compare(a.gen, b.gen),
			cmp.Compare(a.seq, b.seq), cmp.Compare(a.at, b.at))
	}
	if slices.IsSortedFunc(keys, byKey) {
		return
	}
	// Sort small keys rather than the large records; the position breaks
	// ties, so the order is the stable one. Then move each record once,
	// following the permutation's cycles: slot k takes record keys[k].at.
	slices.SortFunc(keys, byKey)
	for i := range keys {
		if keys[i].at == i {
			continue
		}
		held, k := ds[i], i
		for keys[k].at != i {
			from := keys[k].at
			ds[k], keys[k].at = ds[from], k
			k = from
		}
		ds[k], keys[k].at = held, k
	}
}

// WriteTrace writes the decision trace as JSON Lines, one decision per
// line, in (stream, seq) order.
func (o *Observer) WriteTrace(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, d := range o.Decisions() {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return nil
}

// StreamObserver is one stream's recording view: it builds up the
// pending decision across the scheduler (prediction-time fields) and
// the harness (realized-latency fields), then commits it to the shared
// trace. It is used from one goroutine at a time — the one running the
// stream's round — which the serving engine already guarantees.
type StreamObserver struct {
	o      *Observer
	stream int
	name   string
	gen    int

	seq        int
	pending    Decision
	hasPending bool
}

// StreamObserver returns a recording view bound to the given stream
// identity. A nil observer yields a nil view, on which every method
// no-ops.
func (o *Observer) StreamObserver(stream int, name string) *StreamObserver {
	return o.StreamObserverGen(stream, name, 0)
}

// StreamObserverGen is StreamObserver for a restored incarnation of a
// stream: decisions are stamped with the given recovery generation so
// they never collide with the lost incarnation's (stream, seq)
// coordinates. Generation 0 is the original incarnation and is omitted
// from the serialized trace.
func (o *Observer) StreamObserverGen(stream int, name string, gen int) *StreamObserver {
	if o == nil {
		return nil
	}
	return &StreamObserver{o: o, stream: stream, name: name, gen: gen}
}

// Registry returns the underlying metrics registry.
func (s *StreamObserver) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.o.Registry()
}

// BeginDecision opens the decision record for the GoF boundary at the
// given global frame and simulated time, committing any still-pending
// record first. The returned pointer stays valid until the next
// BeginDecision or EndGoF.
func (s *StreamObserver) BeginDecision(frame int, simMS float64) *Decision {
	if s == nil {
		return nil
	}
	s.commit()
	s.pending = Decision{
		Stream: s.stream, StreamName: s.name, Seq: s.seq, Gen: s.gen,
		Frame: frame, SimMS: simMS,
	}
	s.seq++
	s.hasPending = true
	return &s.pending
}

// Pending returns the open decision record, or nil when none is open.
// The scheduler uses it to attach prediction-time fields without
// knowing the stream identity.
func (s *StreamObserver) Pending() *Decision {
	if s == nil || !s.hasPending {
		return nil
	}
	return &s.pending
}

// EndGoF closes the open decision with the realized outcome of its GoF
// — frame count and GoF-averaged per-frame latency — and commits it.
func (s *StreamObserver) EndGoF(frames int, avgMS float64) {
	if s == nil || !s.hasPending {
		return
	}
	s.pending.GoFFrames = frames
	s.pending.RealizedMS = avgMS
	s.commit()
}

// Close commits a still-open decision (a trailing GoF cut short by the
// end of the corpus is flushed by the harness before Close, so this is
// a safety net).
func (s *StreamObserver) Close() {
	if s == nil {
		return
	}
	s.commit()
}

func (s *StreamObserver) commit() {
	if !s.hasPending {
		return
	}
	s.o.record(s.pending)
	s.hasPending = false
}

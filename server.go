package litereconfig

import (
	"fmt"

	"litereconfig/internal/serve"
	"litereconfig/internal/simlat"
)

// ServerConfig configures a multi-stream serving engine.
type ServerConfig struct {
	// Device is the simulated board shared by all streams. Default TX2.
	Device Device
	// GPUSlots bounds how many streams execute simultaneously; foreign
	// occupancy is normalized by it. Default 2.
	GPUSlots int
	// MaxOccupancy is the admission threshold on aggregate GPU
	// occupancy. Default 2 x GPUSlots.
	MaxOccupancy float64
	// Coupling scales the other streams' occupancy into a stream's
	// contention level. Default 0.5.
	Coupling float64
	// QueueLimit bounds the admission queue; submissions beyond it are
	// rejected with an error (backpressure). Default 16.
	QueueLimit int
	// RoundMS is the simulated length of one board round. Default 200.
	RoundMS float64
	// Faults, when set, injects the configured deterministic fault
	// schedule into every served stream (override per stream with
	// StreamOptions.Faults) and engages graceful degradation: the
	// scheduler's watchdog and circuit breaker, plus the engine's
	// per-stream health machine (healthy → degraded → quarantined) with
	// panic containment and bounded round retry.
	Faults *FaultConfig
	// RetryLimit is how many recovered worker panics one stream may
	// accumulate before quarantine. Zero means the default (2); negative
	// means quarantine on the first panic.
	RetryLimit int
	// StallRounds quarantines a stream after this many consecutive
	// rounds with zero frame progress. Zero means the default (10).
	StallRounds int
	// Observer, when set, records engine metrics (per-round occupancy,
	// queue depth, admissions, rejections, per-stream contention) and the
	// scheduler decision trace of every served stream. Recording is
	// passive: an observed run takes the same decisions as an unobserved
	// one. Read it after Drain via MetricsText / WriteTrace.
	Observer *Observer
	// Adapt, when set, turns on online model adaptation for every served
	// stream: each stream refits a challenger copy of its cloned models
	// from its own realized GoF outcomes, and promoted champions are
	// committed to a board-wide versioned registry. Nil means frozen
	// models.
	Adapt *AdaptConfig
	// ReplayTrace enriches every recorded decision with the scheduler's
	// full input set for offline counterfactual replay (lrreplay /
	// internal replay engine). Requires Observer; off by default.
	ReplayTrace bool
}

// Server multiplexes concurrent video streams over one simulated board,
// coupling each stream's GPU contention to the other streams' measured
// occupancy. Build with NewServer, feed with Submit, finish with Drain.
type Server struct {
	srv *serve.Server
}

// NewServer builds a multi-stream serving engine from trained models.
func NewServer(models *Models, cfg ServerConfig) (*Server, error) {
	if models == nil {
		return nil, fmt.Errorf("litereconfig: models are required")
	}
	opts := serve.Options{
		Models:       models.m,
		GPUSlots:     cfg.GPUSlots,
		MaxOccupancy: cfg.MaxOccupancy,
		Coupling:     cfg.Coupling,
		QueueLimit:   cfg.QueueLimit,
		RoundMS:      cfg.RoundMS,
		Faults:       cfg.Faults.inner(),
		RetryLimit:   cfg.RetryLimit,
		StallRounds:  cfg.StallRounds,
		Observer:     cfg.Observer.inner(),
		Adapt:        cfg.Adapt.inner(),
		ReplayTrace:  cfg.ReplayTrace,
	}
	if cfg.Device != "" {
		dev, ok := simlat.DeviceByName(string(cfg.Device))
		if !ok {
			return nil, fmt.Errorf("litereconfig: unknown device %q", cfg.Device)
		}
		opts.Device = dev
	}
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	return &Server{srv: srv}, nil
}

// StreamOptions describes one stream submitted to a Server.
type StreamOptions struct {
	// Name labels the stream in reports. Default "stream-<id>".
	Name string
	// SLO is the stream's per-frame latency objective in simulated
	// milliseconds. Required.
	SLO float64
	// Class groups streams for aggregate SLO attainment (e.g. "gold").
	// Default: derived from the SLO.
	Class string
	// Policy is the scheduler variant. Default Full.
	Policy Policy
	// Seed fixes the stream's stochastic realization.
	Seed int64
	// BaseContention is a contention floor external to the served
	// streams (e.g. a co-located non-video workload).
	BaseContention float64
	// ContentionTrace replays a recorded per-frame external contention
	// floor instead of the constant BaseContention; frames past the end
	// of the trace hold its last level.
	ContentionTrace []float64
	// Faults overrides the server-wide fault schedule for this stream.
	Faults *FaultConfig
}

// StreamHandle identifies a submitted stream; after Drain it exposes the
// stream's report.
type StreamHandle struct {
	h *serve.Stream
}

// ID returns the stream's server-assigned id (submission order).
func (h *StreamHandle) ID() int { return h.h.ID() }

// Name returns the stream's label.
func (h *StreamHandle) Name() string { return h.h.Name() }

// Report returns the stream's report, or an error before the server has
// drained the stream to completion.
func (h *StreamHandle) Report() (*StreamReport, error) {
	r := h.h.Result()
	if r == nil {
		return nil, fmt.Errorf("litereconfig: stream %q not finished (call Drain first)", h.Name())
	}
	rep := streamReport(r)
	return &rep, nil
}

// Submit queues one video stream for service. It returns an error when
// the admission queue is full (backpressure), when the server is
// draining, or when the options are invalid.
func (s *Server) Submit(v *Video, opts StreamOptions) (*StreamHandle, error) {
	if v == nil {
		return nil, fmt.Errorf("litereconfig: no video")
	}
	policy, err := serve.ParsePolicy(string(opts.Policy))
	if err != nil {
		return nil, err
	}
	h, err := s.srv.Submit(serve.StreamConfig{
		Name:            opts.Name,
		Video:           v.v,
		SLO:             opts.SLO,
		Class:           opts.Class,
		Policy:          policy,
		Seed:            opts.Seed,
		BaseContention:  opts.BaseContention,
		ContentionTrace: opts.ContentionTrace,
		Faults:          opts.Faults.inner(),
	})
	if err != nil {
		return nil, err
	}
	return &StreamHandle{h: h}, nil
}

// Drain stops intake, serves every admitted and queued stream to
// completion, shuts the worker pool down, and returns the report. It is
// idempotent.
func (s *Server) Drain() (*ServerReport, error) {
	return serverReport(s.srv.Drain()), nil
}

// serverReport converts an internal drain result to the public type.
func serverReport(res *serve.Result) *ServerReport {
	rep := &ServerReport{
		Rejected:       res.Rejected,
		Quarantined:    res.Quarantined,
		Panics:         res.Panics,
		Rounds:         res.Rounds,
		AttainRate:     res.AttainRate,
		MeanContention: res.MeanContention,
		TotalFrames:    res.TotalFrames,
		Promotions:     res.Promotions,
		Demotions:      res.Demotions,
		Refits:         res.Refits,
	}
	for _, sr := range res.Streams {
		rep.Streams = append(rep.Streams, streamReport(&sr))
	}
	for _, c := range res.Classes {
		rep.Classes = append(rep.Classes, ClassReport{
			Class:         c.Class,
			Streams:       c.Streams,
			Attained:      c.Attained,
			AttainRate:    c.AttainRate,
			ViolationRate: c.ViolationRate,
			MeanMAP:       c.MeanMAP,
		})
	}
	return rep
}

// StreamReport is one stream's outcome: the usual per-stream Report plus
// the serving-specific coupling metrics.
type StreamReport struct {
	ID     int
	Name   string
	Class  string
	SLO    float64
	Policy string
	Frames int
	Report
	// MeanContention is the average cross-stream contention level the
	// board applied to this stream.
	MeanContention float64
	// MeanOccupancy is the fraction of the stream's timeline spent in
	// GPU work.
	MeanOccupancy float64
	// Rounds the stream ran; WaitRounds it spent queued for admission.
	Rounds     int
	WaitRounds int
	// Health is the stream's final health state ("healthy", "degraded",
	// "quarantined"); Panics counts recovered worker panics. A
	// Quarantined stream was retired before completing its video
	// (QuarantineReason says why) and never counts as attaining its SLO.
	Health           string
	Panics           int
	Quarantined      bool
	QuarantineReason string
	// Board names the board that served (and retired) the stream; empty
	// for single-board servers. Migrations counts fleet-level board
	// hand-offs the stream went through.
	Board      string
	Migrations int
	// Adapt summarizes the stream's online-adaptation activity (zero
	// when ServerConfig.Adapt is nil).
	Adapt AdaptReport
}

// ClassReport aggregates SLO attainment over one class of streams.
type ClassReport struct {
	Class         string
	Streams       int
	Attained      int
	AttainRate    float64
	ViolationRate float64
	MeanMAP       float64
}

// ServerReport is the aggregate outcome of Server.Drain.
type ServerReport struct {
	// Streams holds per-stream reports in submission order.
	Streams []StreamReport
	// Classes holds per-class SLO attainment, sorted by class name.
	Classes []ClassReport
	// Rejected counts submissions refused by backpressure.
	Rejected int
	// Quarantined counts streams retired before completion; Panics
	// counts recovered worker panics across all streams.
	Quarantined int
	Panics      int
	// Rounds is the number of board rounds the drain ran.
	Rounds int
	// AttainRate is the overall fraction of streams meeting their SLO.
	AttainRate float64
	// MeanContention is the average cross-stream contention the board
	// generated — zero only when streams never overlapped.
	MeanContention float64
	TotalFrames    int
	// Promotions, Demotions and Refits sum online-adaptation activity
	// across all streams (zero when ServerConfig.Adapt is nil).
	Promotions int
	Demotions  int
	Refits     int
}

// streamReport converts an internal stream row to the public type.
func streamReport(r *serve.StreamResult) StreamReport {
	rep := StreamReport{
		ID:     r.ID,
		Name:   r.Name,
		Class:  r.Class,
		SLO:    r.SLO,
		Policy: r.Policy,
		Frames: r.Frames,
		Report: Report{
			MAP:            r.MAP,
			MeanMS:         r.MeanMS,
			P95MS:          r.P95MS,
			MeetsSLO:       r.MeetsSLO,
			ViolationRate:  r.ViolationRate,
			BranchCoverage: r.BranchCoverage,
			Switches:       r.Switches,
			FeatureUse:     map[string]int{},
		},
		MeanContention:   r.MeanContention,
		MeanOccupancy:    r.MeanOccupancy,
		Rounds:           r.Rounds,
		WaitRounds:       r.WaitRounds,
		Health:           r.Health,
		Panics:           r.Panics,
		Quarantined:      r.Quarantined,
		QuarantineReason: r.QuarantineReason,
		Board:            r.Board,
		Migrations:       r.Migrations,
		Adapt: AdaptReport{
			ModelVersion: r.ModelVersion,
			Promotions:   r.Promotions,
			Demotions:    r.Demotions,
			Refits:       r.Refits,
		},
	}
	if r.Raw != nil {
		for k, n := range r.Raw.FeatureUse {
			rep.FeatureUse[k.String()] = n
		}
		rep.Breakdown = breakdownMap(r.Raw.Breakdown)
	}
	return rep
}

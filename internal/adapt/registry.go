package adapt

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"litereconfig/internal/sched"
)

// Version is the metadata of one committed model snapshot.
type Version struct {
	// Label is the snapshot's unique name, e.g. "s3.v2": stream label
	// plus per-stream promotion index. Offline baselines use "offline.v0".
	Label string
	// Parent is the label of the champion this version replaced (empty
	// for baselines).
	Parent string
	// Source says how the version came to be: "offline", "promote" or
	// "rollback".
	Source string
	// Stream is the owning stream's label; Seq its per-stream promotion
	// index. Together they order a registry listing deterministically
	// even when streams promote concurrently.
	Stream string
	Seq    int
	// ChampErrMS and ChalErrMS are the shadow prediction errors (EWMA of
	// |predicted − realized| per-frame GoF latency, ms) of the outgoing
	// champion and the promoted challenger at commit time. A "promote"
	// version always has ChalErrMS < ChampErrMS.
	ChampErrMS float64
	ChalErrMS  float64
	// Samples is how many GoF outcomes the challenger had been shadow-
	// scored on at commit time.
	Samples int
}

// Registry holds versioned copy-on-write sched.Models snapshots. A
// snapshot committed here is frozen: promotion hands the mutable
// challenger role to a fresh Clone, so registry entries are never
// written again and may be shared. The registry is concurrency-safe;
// one registry serves all streams of a board.
type Registry struct {
	mu       sync.Mutex
	versions []Version
	models   map[string]*sched.Models

	promotions atomic.Int64
	demotions  atomic.Int64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: map[string]*sched.Models{}}
}

// Commit stores one frozen snapshot under v.Label. Committing a label
// twice is an error (labels are per-stream sequenced, so a collision
// means two streams share a label).
func (r *Registry) Commit(v Version, m *sched.Models) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[v.Label]; ok {
		return fmt.Errorf("adapt: version %q already committed", v.Label)
	}
	r.versions = append(r.versions, v)
	r.models[v.Label] = m
	return nil
}

// Get returns the snapshot committed under label, or nil.
func (r *Registry) Get(label string) *sched.Models {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.models[label]
}

// Versions lists the committed versions sorted by (Stream, Seq, Label)
// — a deterministic order regardless of which stream committed first.
func (r *Registry) Versions() []Version {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Version, len(r.versions))
	copy(out, r.versions)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stream != out[j].Stream {
			return out[i].Stream < out[j].Stream
		}
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// Len reports how many versions are committed.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.versions)
}

// Promotions and Demotions report rollout actions recorded against
// this registry by its adapters.
func (r *Registry) Promotions() int {
	if r == nil {
		return 0
	}
	return int(r.promotions.Load())
}

func (r *Registry) Demotions() int {
	if r == nil {
		return 0
	}
	return int(r.demotions.Load())
}

// persistedRegistry is the gob wire form: versions in deterministic
// order with the snapshots in matching positions.
type persistedRegistry struct {
	Versions []Version
	Models   []*sched.Models
}

// Save writes the registry as a gob stream (versions in deterministic
// (Stream, Seq) order, each with its model snapshot).
func (r *Registry) Save(w io.Writer) error {
	vs := r.Versions()
	p := persistedRegistry{Versions: vs}
	r.mu.Lock()
	for _, v := range vs {
		p.Models = append(p.Models, r.models[v.Label])
	}
	r.mu.Unlock()
	return gob.NewEncoder(w).Encode(&p)
}

// Load reads a registry previously written by Save.
func LoadRegistry(rd io.Reader) (*Registry, error) {
	var p persistedRegistry
	if err := sched.Decode(rd, &p, func() []*sched.Models { return p.Models }); err != nil {
		return nil, fmt.Errorf("adapt: decode registry: %w", err)
	}
	if len(p.Versions) != len(p.Models) {
		return nil, fmt.Errorf("adapt: corrupt registry: %d versions, %d models",
			len(p.Versions), len(p.Models))
	}
	r := NewRegistry()
	for i, v := range p.Versions {
		if err := r.Commit(v, p.Models[i]); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// SaveFile writes the registry to path.
func (r *Registry) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadRegistryFile reads a registry from path.
func LoadRegistryFile(path string) (*Registry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadRegistry(f)
}

// Package replay is the counterfactual replay engine: it re-runs the
// LiteReconfig scheduler's decision procedure (core.DecisionInput) —
// and only that — over decision traces captured with the ReplayTrace
// payload, either verbatim (the
// fidelity invariant: an unchanged policy must reproduce the recorded
// decision stream exactly) or under altered policy knobs (a different
// SLO, the degradation ladder disabled or re-simulated, alternate
// model bundles from the adaptation registry), and estimates the
// counterfactual outcome of each re-decided GoF from the recorded
// per-branch prediction tables anchored by the realized-vs-predicted
// residual of the branch that actually ran. No kernels execute and no
// clocks advance, so replay runs orders of magnitude faster than the
// simulation that produced the trace.
package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"litereconfig/internal/obs"
)

// TraceFile is one loaded trace: either a scheduler decision trace or a
// fleet placement/migration trace (never both — the writers keep them
// in separate files).
type TraceFile struct {
	Path      string
	Decisions []obs.Decision
	Fleet     []obs.FleetEvent
}

// Corpus is a set of loaded trace files. Decision replay treats each
// file as an independent scenario: stream ids are scoped to their file,
// so two runs' stream 0s never merge into one chain.
type Corpus struct {
	Files []TraceFile
}

// Decisions counts the decision records across all files.
func (c *Corpus) Decisions() int {
	n := 0
	for i := range c.Files {
		n += len(c.Files[i].Decisions)
	}
	return n
}

// FleetEvents counts the fleet events across all files.
func (c *Corpus) FleetEvents() int {
	n := 0
	for i := range c.Files {
		n += len(c.Files[i].Fleet)
	}
	return n
}

// Frames sums the realized GoF frames across all decision records.
func (c *Corpus) Frames() int {
	n := 0
	for i := range c.Files {
		for j := range c.Files[i].Decisions {
			n += c.Files[i].Decisions[j].GoFFrames
		}
	}
	return n
}

// SimMS returns the total simulated milliseconds the corpus covers:
// per (file, stream, gen) chain, realized GoF time summed over its
// decisions — the device time a real deployment would have needed.
func (c *Corpus) SimMS() float64 {
	total := 0.0
	for i := range c.Files {
		for j := range c.Files[i].Decisions {
			d := &c.Files[i].Decisions[j]
			total += d.RealizedMS * float64(d.GoFFrames)
		}
	}
	return total
}

// Load reads a corpus from the given paths. A path may be a trace file
// (plain or gzip JSONL) or a directory, which is scanned — not
// recursively — for *.jsonl and *.jsonl.gz entries. Each file is
// sniffed by content: records with a "kind" field are fleet events,
// everything else decision records. Malformed or truncated files fail
// loudly (a replay over a silently shortened corpus would report
// fidelity it never checked).
func Load(paths ...string) (*Corpus, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("replay: no trace paths given")
	}
	c := &Corpus{}
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if !info.IsDir() {
			if err := c.loadFile(p); err != nil {
				return nil, err
			}
			continue
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		found := 0
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() ||
				(!strings.HasSuffix(name, ".jsonl") && !strings.HasSuffix(name, ".jsonl.gz")) {
				continue
			}
			if err := c.loadFile(filepath.Join(p, name)); err != nil {
				return nil, err
			}
			found++
		}
		if found == 0 {
			return nil, fmt.Errorf("replay: directory %s holds no *.jsonl or *.jsonl.gz traces", p)
		}
	}
	return c, nil
}

func (c *Corpus) loadFile(path string) error {
	r, err := obs.OpenTrace(path)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	defer r.Close()

	tf := TraceFile{Path: path}
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("replay: %s: %w", path, err)
	}
	if len(bytes.TrimSpace(data)) == 0 {
		// Empty files load as empty traces.
		c.Files = append(c.Files, tf)
		return nil
	}
	// Sniff the record type from the first object, then decode the whole
	// stream as that type. Decision and fleet records never share a
	// file, and only fleet events carry a "kind" field.
	var first map[string]json.RawMessage
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&first); err != nil {
		return fmt.Errorf("replay: %s: record 1: %w", path, err)
	}
	if _, isFleet := first["kind"]; isFleet {
		tf.Fleet, err = obs.ReadFleetEvents(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("replay: %s: %w", path, err)
		}
	} else {
		tf.Decisions, err = obs.ReadDecisions(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("replay: %s: %w", path, err)
		}
		// Replay chains per-stream state in (stream, gen, seq) order; the
		// writers already emit that order, but enforce it so hand-edited
		// or concatenated corpora still chain correctly.
		sort.SliceStable(tf.Decisions, func(i, j int) bool {
			a, b := &tf.Decisions[i], &tf.Decisions[j]
			if a.Stream != b.Stream {
				return a.Stream < b.Stream
			}
			if a.Gen != b.Gen {
				return a.Gen < b.Gen
			}
			return a.Seq < b.Seq
		})
	}
	c.Files = append(c.Files, tf)
	return nil
}

// FromDecisions wraps an in-memory decision slice as a single-file
// corpus — the path tests and the bench harness take to replay a run
// they just produced without touching disk.
func FromDecisions(label string, ds []obs.Decision) *Corpus {
	out := append([]obs.Decision(nil), ds...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		if a.Gen != b.Gen {
			return a.Gen < b.Gen
		}
		return a.Seq < b.Seq
	})
	return &Corpus{Files: []TraceFile{{Path: label, Decisions: out}}}
}

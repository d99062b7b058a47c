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
	"strings"

	"litereconfig/internal/obs"
	"litereconfig/internal/par"
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
//
// The files load concurrently, each streamed through the obs readers'
// parallel fast path (see obs.ReadDecisions) without buffering it whole;
// the type is sniffed from the first record alone. The corpus keeps
// path order, and when several files fail the error names the first of
// them in that order, exactly as a sequential load reports it.
func Load(paths ...string) (*Corpus, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("replay: no trace paths given")
	}
	files, listErr := listTraces(paths)
	c := &Corpus{Files: make([]TraceFile, len(files))}
	errs := make([]error, len(files))
	par.For(par.Workers(len(files)), len(files), func(_, i int) {
		c.Files[i], errs[i] = loadFile(files[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if listErr != nil {
		return nil, listErr
	}
	return c, nil
}

// listTraces expands paths into trace files in load order. It stops at
// the first path that cannot be listed and returns the files before it
// with that error, which ranks after theirs.
func listTraces(paths []string) ([]string, error) {
	var files []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return files, fmt.Errorf("replay: %w", err)
		}
		if !info.IsDir() {
			files = append(files, p)
			continue
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return files, fmt.Errorf("replay: %w", err)
		}
		found := 0
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() ||
				(!strings.HasSuffix(name, ".jsonl") && !strings.HasSuffix(name, ".jsonl.gz")) {
				continue
			}
			files = append(files, filepath.Join(p, name))
			found++
		}
		if found == 0 {
			return files, fmt.Errorf("replay: directory %s holds no *.jsonl or *.jsonl.gz traces", p)
		}
	}
	return files, nil
}

func loadFile(path string) (TraceFile, error) {
	rc, err := obs.OpenTrace(path)
	if err != nil {
		return TraceFile{}, fmt.Errorf("replay: %w", err)
	}
	defer rc.Close()
	r := &readErrs{r: rc}
	tf, err := readTrace(path, r)
	if err != nil {
		// Decoding stops at the first bad record, but a read error
		// anywhere in the file (a corrupt gzip stream) is the cause to
		// report, as reading the whole file first would; the drain's own
		// error lands in r.err.
		io.Copy(io.Discard, r)
	}
	if r.err != nil {
		return TraceFile{}, fmt.Errorf("replay: %s: %w", path, r.err)
	}
	return tf, err
}

// readTrace sniffs the record type from the first record, then decodes
// the whole stream as that type. Decision and fleet records never share
// a file, and only fleet events carry a "kind" field.
func readTrace(path string, r io.Reader) (TraceFile, error) {
	tf := TraceFile{Path: path}
	var head bytes.Buffer
	var first json.RawMessage
	if err := json.NewDecoder(io.TeeReader(r, &head)).Decode(&first); err != nil {
		if err == io.EOF {
			return tf, nil // an empty file loads as an empty trace
		}
		// Whitespace that JSON does not skip still counts as empty. A
		// read error here is loadFile's to report.
		rest, _ := io.ReadAll(r)
		if len(bytes.TrimSpace(append(head.Bytes(), rest...))) == 0 {
			return tf, nil
		}
		return tf, fmt.Errorf("replay: %s: record 1: %w", path, err)
	}
	isFleet, err := hasKindKey(first)
	if err != nil {
		return tf, fmt.Errorf("replay: %s: record 1: %w", path, err)
	}
	stream := io.MultiReader(&head, r)
	if isFleet {
		tf.Fleet, err = obs.ReadFleetEvents(stream)
	} else {
		tf.Decisions, err = obs.ReadDecisions(stream)
		// Replay chains per-stream state in (stream, gen, seq) order; the
		// writers already emit that order, but enforce it so hand-edited
		// or concatenated corpora still chain correctly.
		obs.SortDecisions(tf.Decisions)
	}
	if err != nil {
		return TraceFile{Path: path}, fmt.Errorf("replay: %s: %w", path, err)
	}
	return tf, nil
}

// hasKindKey reports whether a JSON value is an object with a top-level
// "kind" key. Keys match as a map decode matches them (unescaped,
// case-sensitive); a value that is neither an object nor null fails as
// decoding it into a map fails.
func hasKindKey(v json.RawMessage) (bool, error) {
	if v[0] != '{' {
		var m map[string]json.RawMessage
		return false, json.Unmarshal(v, &m)
	}
	// v decoded as valid JSON, so no token or value below can fail.
	dec := json.NewDecoder(bytes.NewReader(v))
	dec.Token() // the opening brace
	for dec.More() {
		if key, _ := dec.Token(); key == "kind" {
			return true, nil
		}
		var skip json.RawMessage
		dec.Decode(&skip)
	}
	return false, nil
}

// readErrs remembers the first read error its reader returned.
type readErrs struct {
	r   io.Reader
	err error
}

func (e *readErrs) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err != nil && err != io.EOF && e.err == nil {
		e.err = err
	}
	return n, err
}

// FromDecisions wraps an in-memory decision slice as a single-file
// corpus — the path tests and the bench harness take to replay a run
// they just produced without touching disk.
func FromDecisions(label string, ds []obs.Decision) *Corpus {
	out := append([]obs.Decision(nil), ds...)
	obs.SortDecisions(out)
	return &Corpus{Files: []TraceFile{{Path: label, Decisions: out}}}
}

package sched

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"litereconfig/internal/feat"
	"litereconfig/internal/glm"
	"litereconfig/internal/linreg"
	"litereconfig/internal/nn"
)

// Save serializes the trained models with encoding/gob. Only exported
// fields persist; the predictor scratch is grown lazily on first use
// after Load.
func (m *Models) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("sched: encode models: %w", err)
	}
	return nil
}

// Load deserializes models previously written by Save and readies
// them for prediction (Decode).
func Load(r io.Reader) (*Models, error) {
	var m Models
	if err := Decode(r, &m, func() []*Models { return []*Models{&m} }); err != nil {
		return nil, fmt.Errorf("sched: decode models: %w", err)
	}
	return &m, nil
}

// Decode gob-decodes one value from r into v, a pointer to a value that
// holds Models, then checks and freezes the Models that models lists.
// gob drops the networks' frozen inference state (nn.Dense.Freeze), so
// every decoded Models comes through here before it predicts. A
// missing network or an inconsistent layer shape is an error.
func Decode(r io.Reader, v any, models func() []*Models) error {
	if err := gob.NewDecoder(r).Decode(v); err != nil {
		return err
	}
	for i, m := range models() {
		if err := m.checkNets(); err != nil {
			return fmt.Errorf("models %d: %w", i, err)
		}
		m.freeze()
	}
	return nil
}

// checkNets reports the first accuracy network that is missing or
// inconsistent (nn.Net.Check, nn.TwoTower.Check), in kind order.
func (m *Models) checkNets() error {
	if m == nil {
		return errors.New("missing models")
	}
	if err := m.LightNet.Check(); err != nil {
		return fmt.Errorf("light network: %w", err)
	}
	kinds := make([]feat.Kind, 0, len(m.ContentNets))
	for k := range m.ContentNets {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	for _, k := range kinds {
		if err := m.ContentNets[k].Check(); err != nil {
			return fmt.Errorf("%v network: %w", k, err)
		}
	}
	return nil
}

// freeze prepares the accuracy networks for prediction
// (nn.Dense.Freeze). Train freezes what it fits and Decode what it
// decodes, before either hands the models out.
func (m *Models) freeze() {
	m.LightNet.Freeze()
	for _, t := range m.ContentNets {
		t.Freeze()
	}
}

// SaveFile writes the models to path.
func (m *Models) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sched: %w", err)
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads models from path.
func LoadFile(path string) (*Models, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Clone returns a copy of the models for one stream, one replay worker
// or one fleet scorer: it shares every field with m and starts with
// empty predictor scratch, so a clone predicts bit-identically to m and
// to a gob Save/Load copy, at the cost of one struct copy. After Train
// or Load no predictor writes the shared state, so each clone may
// predict on its own goroutine, and cloning m is safe while other
// goroutines predict through their own clones of it. The one writer is
// the online adapter, which refits a RefitClone in place, so no refit
// reaches m or another clone. The error is always nil.
func (m *Models) Clone() (*Models, error) {
	c := *m
	c.scrNorm, c.scrHeavy, c.scrSketch, c.scrContent, c.scrNZ = nil, nil, nil, nil, nil
	c.scrNN = nn.Scratch{}
	return &c, nil
}

// RefitClone returns a Clone that also owns the latency-model state the
// online adapter refits in place: the LatDet/LatTrk regressions with
// their coefficients, LatVar and LatBiasMS (the scalar calibration
// fields travel with the struct copy). The adapter's challenger is one,
// so its refits never reach the models it was copied from.
func (m *Models) RefitClone() *Models {
	c, _ := m.Clone()
	c.LatDet = cloneLinregs(m.LatDet)
	c.LatTrk = cloneLinregs(m.LatTrk)
	c.LatVar = append([]glm.VarAcc(nil), m.LatVar...)
	c.LatBiasMS = append([]float64(nil), m.LatBiasMS...)
	return c
}

// cloneLinregs deep-copies a slice of regressions, coefficients
// included: the adapter's RLS writes each Coef in place.
func cloneLinregs(src []*linreg.Model) []*linreg.Model {
	out := make([]*linreg.Model, len(src))
	for i, r := range src {
		out[i] = &linreg.Model{Coef: append([]float64(nil), r.Coef...), Intercept: r.Intercept}
	}
	return out
}

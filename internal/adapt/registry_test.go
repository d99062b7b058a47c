package adapt_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"litereconfig/internal/adapt"
	"litereconfig/internal/feat"
	"litereconfig/internal/fixture"
	"litereconfig/internal/sched"
)

// TestLoadRegistryRejectsMalformedModels saves registries whose one
// snapshot has lost a network or a weight: LoadRegistry must return an
// error rather than panic, and the intact snapshot must load and
// predict as the original does.
func TestLoadRegistryRejectsMalformedModels(t *testing.T) {
	set, err := fixture.Small()
	if err != nil {
		t.Fatal(err)
	}
	var bundle bytes.Buffer
	if err := set.Models.Save(&bundle); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, want string
		spoil      func(*sched.Models)
	}{
		{"intact", "", func(*sched.Models) {}},
		{"no light network", "light network: missing network", func(m *sched.Models) { m.LightNet = nil }},
		{"short weights", "light network: layer 0:", func(m *sched.Models) {
			l := m.LightNet.Layers[0]
			l.W = l.W[:len(l.W)-1]
		}},
		{"no content tower", "content tower: missing layer", func(m *sched.Models) {
			for _, tt := range m.ContentNets {
				tt.ProjB = nil
			}
		}},
	}
	for _, c := range cases {
		m, err := sched.Load(bytes.NewReader(bundle.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		c.spoil(m)
		r := adapt.NewRegistry()
		if err := r.Commit(adapt.Version{Label: "offline.v0"}, m); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := adapt.LoadRegistry(&buf)
		if c.want == "" {
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			light := make([]float64, feat.SpecOf(feat.Light).Dim)
			a := set.Models.PredictAccuracyLight(light)
			b := got.Get("offline.v0").PredictAccuracyLight(light)
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("%s: loaded snapshot predicts %v, want %v", c.name, b, a)
				}
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: LoadRegistry error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

package serve

import (
	"testing"

	"litereconfig/internal/core"
)

func TestParsePolicy(t *testing.T) {
	cases := map[string]core.Policy{
		"":                     core.PolicyFull,
		"full":                 core.PolicyFull,
		"LiteReconfig":         core.PolicyFull,
		"MinCost":              core.PolicyMinCost,
		" mincost ":            core.PolicyMinCost,
		"maxcontent-resnet":    core.PolicyMaxContentResNet,
		"resnet":               core.PolicyMaxContentResNet,
		"maxcontent-mobilenet": core.PolicyMaxContentMobileNet,
		"mobilenet":            core.PolicyMaxContentMobileNet,
	}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"selsa", "force-hog"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}

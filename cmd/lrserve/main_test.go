package main

import (
	"testing"

	"litereconfig/internal/core"
	"litereconfig/internal/serve"
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
		got, err := serve.ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("serve.ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"selsa", "force-hog"} {
		if _, err := serve.ParsePolicy(bad); err == nil {
			t.Errorf("serve.ParsePolicy(%q) accepted", bad)
		}
	}
}

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("33.3, 50,90")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 33.3 || got[1] != 50 || got[2] != 90 {
		t.Fatalf("parseFloats = %v", got)
	}
	if _, err := parseFloats("33,abc"); err == nil {
		t.Error("bad float should error")
	}
}

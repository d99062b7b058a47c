package sched

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"litereconfig/internal/feat"
)

// addBits writes the bits of xs into h.
func addBits(h hash.Hash, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// datasetDigest hashes every label and feature of ds. Heavy features
// are visited in HeavyKinds order, never in map order.
func datasetDigest(ds *Dataset) uint64 {
	h := fnv.New64a()
	for _, s := range ds.Samples {
		addBits(h, s.Light...)
		for _, k := range feat.HeavyKinds() {
			addBits(h, s.Heavy[k]...)
		}
		addBits(h, s.MAP...)
		addBits(h, s.DetMS...)
		addBits(h, s.TrkMS...)
		for _, w := range s.WinMS {
			addBits(h, float64(len(w)))
			addBits(h, w...)
		}
	}
	return h.Sum64()
}

// modelDigest hashes every prediction of m on every sample of ds and
// the benefit table.
func modelDigest(m *Models, ds *Dataset) uint64 {
	h := fnv.New64a()
	for i := range ds.Samples {
		addBits(h, predictAll(m, ds.Samples[i:i+1])...)
	}
	for _, row := range m.Ben.Gain {
		addBits(h, row...)
	}
	return h.Sum64()
}

// TestCollectTrainIndependentOfGOMAXPROCS pins the parallel set-up's
// contract: label collection and the concurrent tower fits give
// bit-identical datasets and models whatever the worker count.
func TestCollectTrainIndependentOfGOMAXPROCS(t *testing.T) {
	cfg := tinyConfig()
	cfg.Epochs = 200
	videos := trainVideos(6, 80)
	run := func(procs int) (dsHash, mHash uint64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ds := Collect(cfg, videos)
		m, err := Train(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		return datasetDigest(ds), modelDigest(m, ds)
	}
	ds1, m1 := run(1)
	ds4, m4 := run(4)
	if ds1 != ds4 {
		t.Errorf("dataset digest: GOMAXPROCS 1 gives %x, 4 gives %x", ds1, ds4)
	}
	if m1 != m4 {
		t.Errorf("model digest: GOMAXPROCS 1 gives %x, 4 gives %x", m1, m4)
	}
}

// Digests of tinyConfig's dataset and model (Epochs 200, six 80-frame
// videos), recorded before the label cells shared detector passes and
// before mAP scoring and the dense kernels were restructured. Every one
// of those changes claims bit-identical output; a change that moves any
// label, feature or prediction bit fails here even when it moves them
// the same way at every worker count.
const (
	goldenDatasetDigest uint64 = 0xc4eb8d5d5ac7f9d6
	goldenModelDigest   uint64 = 0x87f842a85e85c207
)

// TestCollectTrainDigestGolden pins set-up output across commits.
func TestCollectTrainDigestGolden(t *testing.T) {
	cfg := tinyConfig()
	cfg.Epochs = 200
	videos := trainVideos(6, 80)
	ds := Collect(cfg, videos)
	m, err := Train(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if got := datasetDigest(ds); got != goldenDatasetDigest {
		t.Errorf("dataset digest %#x, want %#x", got, goldenDatasetDigest)
	}
	if got := modelDigest(m, ds); got != goldenModelDigest {
		t.Errorf("model digest %#x, want %#x", got, goldenModelDigest)
	}
}

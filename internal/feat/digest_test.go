package feat

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"litereconfig/internal/vid"
)

// TestEmbeddingDigestGolden pins the embedding and proposal features
// across commits: the digests hash every bit of ExtractInto's output for
// ResNet50, MobileNetV2 and CPoP over fixed videos and frames, through
// one reused extractor per seed, so a faster projection or noise draw
// must reproduce every value exactly.
func TestEmbeddingDigestGolden(t *testing.T) {
	var videos []*vid.Video
	for i, seed := range []int64{1, 7, 42, -5} {
		videos = append(videos, vid.Generate("e", seed, vid.GenConfig{Frames: 20 + 10*i}))
	}
	for _, c := range []struct {
		kind Kind
		want uint64
	}{
		{ResNet50, 0x446450d7426941b},
		{MobileNetV2, 0x10763881b0431803},
		{CPoP, 0x50af7e1a5d4fdf75},
	} {
		h := fnv.New64a()
		var buf [8]byte
		var dst []float64
		for _, seed := range []int64{3, 11} {
			e := NewExtractor(seed)
			for _, v := range videos {
				for fi := 0; fi < len(v.Frames); fi += 3 {
					dst = e.ExtractInto(dst, c.kind, v, v.Frames[fi])
					for _, x := range dst {
						binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
						h.Write(buf[:])
					}
				}
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%v digest %#x, want %#x", c.kind, got, c.want)
		}
	}
}

package obs

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// sequentialRead is the reference reader: one json.Decoder over the
// whole stream, the loop ReadDecisions ran before it streamed.
func sequentialRead[T any](r io.Reader, kind string) ([]T, error) {
	dec := json.NewDecoder(r)
	var out []T
	for {
		var v T
		switch err := dec.Decode(&v); err {
		case nil:
			out = append(out, v)
		case io.EOF:
			return out, nil
		default:
			return nil, fmt.Errorf("obs: %s record %d: %w", kind, len(out)+1, err)
		}
	}
}

var errRead = errors.New("disk on fire")

// readerVariants are the shapes of stream the streaming reader must
// handle like the reference: whole reads, one byte per read, and a read
// error after the last byte.
var readerVariants = []struct {
	name string
	open func([]byte) io.Reader
}{
	{"plain", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"one-byte", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"read-error", func(b []byte) io.Reader {
		return io.MultiReader(bytes.NewReader(b), iotest.ErrReader(errRead))
	}},
}

// checkMatchesSequential reads data with the streaming reader at several
// window sizes (so records straddle windows and lines outgrow them) and
// compares records and error text with the reference.
func checkMatchesSequential[T any](t *testing.T, data []byte, kind string) {
	t.Helper()
	for _, v := range readerVariants {
		want, wantErr := sequentialRead[T](v.open(data), kind)
		for _, window := range []int{1, 7, 64, windowBytes} {
			got, err := readJSONL[T](v.open(data), kind, window)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s, window %d: error %v, want %v", v.name, window, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) || !sameJSON(t, got, want) {
				t.Fatalf("%s, window %d: records differ from the sequential decoder:\ngot  %+v\nwant %+v",
					v.name, window, got, want)
			}
		}
	}
}

// readSeeds are trace shapes the fast path must take or hand over to
// the sequential decoder: real payload lines, a pretty-printed
// multi-line record, two records on one line, blank lines, a truncated
// tail, values that are not decision objects, and the canonical edge
// and near-canonical fallback lines of the line decoder, each alone and
// all in one trace.
func readSeeds(t testing.TB) [][]byte {
	o := New()
	o.record(fullDecision())
	bare := fullDecision()
	bare.Stream, bare.Seq, bare.Gen, bare.Replay = 4, 0, 0, nil
	o.record(bare)
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	lines := buf.Bytes()
	pretty, err := json.MarshalIndent(fullDecision(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	first, second, _ := bytes.Cut(lines, []byte("\n"))
	seeds := [][]byte{
		lines,
		append(append(append([]byte{}, lines...), pretty...), '\n'),
		append(append(append([]byte{}, first...), ' '), second...),
		append(append([]byte("\n \n\t\r\n"), lines...), []byte("\r\n\n  ")...),
		lines[:len(lines)-20],
		lines[:len(first)+1],
		nil,
		[]byte("null\n5\n"),
		[]byte("{}{}\n{} x\n"),
		[]byte("{\"stream\": \"three\"}\n{}\n"),
		[]byte("{\"seq\":1}\n\f\n{\"seq\":2}"),
		[]byte("[1,\n2]\n{\"seq\":3}\n"),
	}
	edges := append(slices.Clone(canonicalEdgeLines), fallbackLines...)
	for _, l := range edges {
		seeds = append(seeds, []byte(l+"\n"))
	}
	return append(seeds, []byte(strings.Join(edges, "\n")))
}

// TestReadMatchesSequentialDecoder checks the seed shapes at every
// window size and reader shape, for both record types.
func TestReadMatchesSequentialDecoder(t *testing.T) {
	for i, data := range readSeeds(t) {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			checkMatchesSequential[Decision](t, data, "decision")
			checkMatchesSequential[FleetEvent](t, data, "fleet")
		})
	}
}

// TestReadFallbackKeepsRecordNumbers: a malformed record deep in a
// stream of many windows is reported with its position in the whole
// stream.
func TestReadFallbackKeepsRecordNumbers(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "{\"stream\":%d,\"seq\":%d}\n", i%3, i)
	}
	b.WriteString("{\"stream\":1,\"seq\":\n")
	_, err := readJSONL[Decision](strings.NewReader(b.String()), "decision", 64)
	if err == nil || !strings.HasPrefix(err.Error(), "obs: decision record 51: ") {
		t.Fatalf("error %v, want one naming record 51", err)
	}
	checkMatchesSequential[Decision](t, []byte(b.String()), "decision")
}

// FuzzReadDecisions: for any bytes, the streaming reader returns the
// records and the error text of one json.Decoder over the whole stream.
func FuzzReadDecisions(f *testing.F) {
	for _, s := range readSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesSequential[Decision](t, data, "decision")
	})
}

// TestSortDecisionsIsStable checks the in-place key sort against a
// stable sort of the records, duplicate keys included.
func TestSortDecisionsIsStable(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 17, 300} {
		ds := make([]Decision, n)
		for i := range ds {
			ds[i] = Decision{Stream: r.Intn(4), Gen: r.Intn(2), Seq: r.Intn(n/3 + 1), Frame: i}
		}
		want := slices.Clone(ds)
		slices.SortStableFunc(want, func(a, b Decision) int {
			return cmp.Or(cmp.Compare(a.Stream, b.Stream), cmp.Compare(a.Gen, b.Gen), cmp.Compare(a.Seq, b.Seq))
		})
		SortDecisions(ds)
		if !reflect.DeepEqual(ds, want) {
			t.Fatalf("n=%d: SortDecisions differs from a stable sort", n)
		}
	}
}

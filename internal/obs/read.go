package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"litereconfig/internal/par"
)

// ReadDecisions decodes a JSONL decision trace previously written by
// WriteTrace. Decoding is strict about well-formedness: a malformed or
// truncated record (a crash mid-write leaves a partial final line)
// fails with an error identifying the record, never a silently short
// slice — replay correctness depends on seeing either the whole corpus
// or a loud failure. Unknown fields are ignored, so newer traces load
// under older schemas and vice versa.
//
// The trace is read as a stream, never buffered whole. One goroutine
// reads r and cuts it into windows of whole lines; the lines of a window
// are decoded on GOMAXPROCS workers while the next window is read. This
// fast path holds while every non-blank line is exactly one JSON value,
// as the writers emit it. At the first line in stream order that is not,
// the records before it are kept and a sequential json.Decoder resumes
// over that line and the rest of the stream, numbering records on. The
// result — records, and the error text of a malformed trace — is
// therefore the same as one json.Decoder reading the whole stream,
// multi-line or concatenated records included. A line in the canonical
// form the writers emit skips json.Unmarshal for a hand-written decoder
// with a bit-equal result (decodeDecision).
func ReadDecisions(r io.Reader) ([]Decision, error) {
	return readJSONL[Decision](r, "decision", windowBytes)
}

// ReadFleetEvents decodes a JSONL fleet trace previously written by
// WriteFleetTrace, with the same strictness and the same streaming fast
// path as ReadDecisions.
func ReadFleetEvents(r io.Reader) ([]FleetEvent, error) {
	return readJSONL[FleetEvent](r, "fleet", windowBytes)
}

// windowBytes is the size of the stream windows readJSONL decodes at a
// time: about a hundred replay-payload records, small next to a corpus
// file.
const windowBytes = 4 << 20

// readJSONL decodes a stream of JSON values of type T (see
// ReadDecisions); kind names the record type in errors, window is the
// read window size in bytes.
func readJSONL[T any](r io.Reader, kind string, window int) ([]T, error) {
	wins := make(chan []byte, 1)
	stop := make(chan struct{})
	var rest io.Reader
	go func() {
		rest = splitWindows(r, window, wins, stop)
		close(wins)
	}()

	var (
		out   []T
		lines []span
		errs  []error
	)
	for win := range wins {
		lines = splitLines(lines[:0], win)
		base := len(out)
		out = slices.Grow(out, len(lines))[:base+len(lines)]
		errs = slices.Grow(errs[:0], len(lines))[:len(lines)]
		clear(errs)
		par.For(par.Workers(len(lines)), len(lines), func(_, i int) {
			errs[i] = unmarshalLine(win[lines[i].lo:lines[i].hi], &out[base+i])
		})
		bad := slices.IndexFunc(errs, func(err error) bool { return err != nil })
		if bad < 0 {
			continue
		}
		// Fall back: keep the records before the failing line, then
		// decode that line, the windows read ahead and the unread rest of
		// the stream sequentially.
		clear(out[base+bad:])
		out = out[:base+bad]
		close(stop)
		tail := []io.Reader{bytes.NewReader(win[lines[bad].lo:])}
		for w := range wins {
			tail = append(tail, bytes.NewReader(w))
		}
		if rest != nil {
			tail = append(tail, rest)
		}
		return decodeJSONL(json.NewDecoder(io.MultiReader(tail...)), out, kind)
	}
	if rest != nil {
		// A read error cut the stream: the sequential decoder reports it
		// at the record it interrupts.
		return decodeJSONL(json.NewDecoder(rest), out, kind)
	}
	return out, nil
}

// decodeJSONL appends the values dec yields to out until EOF. Records
// are numbered from len(out)+1 in errors.
func decodeJSONL[T any](dec *json.Decoder, out []T, kind string) ([]T, error) {
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

// splitWindows reads r into windows of at least window bytes (a longer
// line gets a window of its own) that end at a line boundary, and sends
// them in stream order until EOF, a read error or stop; the final window
// at EOF keeps an unterminated last line. It returns what it did not
// send: nil after a clean EOF, otherwise the bytes read but not sent
// followed by the unread rest of r, or by the read error.
func splitWindows(r io.Reader, window int, out chan<- []byte, stop <-chan struct{}) io.Reader {
	var carry []byte
	for {
		buf := make([]byte, len(carry), max(window, 2*len(carry)))
		copy(buf, carry)
		var err error
		for len(buf) < cap(buf) && err == nil {
			var n int
			n, err = r.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
		}
		cut := len(buf)
		if err != io.EOF {
			cut = bytes.LastIndexByte(buf, '\n') + 1
		}
		if cut > 0 {
			// Check stop first: a select with both cases ready picks
			// either, and a consumer draining after stop is always ready.
			select {
			case <-stop:
				return remainder(buf, r, err)
			default:
			}
			select {
			case out <- buf[:cut]:
			case <-stop:
				return remainder(buf, r, err)
			}
		}
		if err != nil {
			return remainder(buf[cut:], r, err)
		}
		carry = buf[cut:]
	}
}

// remainder is the stream after pending bytes already read from r, where
// err is the error the last read returned.
func remainder(pending []byte, r io.Reader, err error) io.Reader {
	switch err {
	case nil:
		return io.MultiReader(bytes.NewReader(pending), r)
	case io.EOF:
		if len(pending) == 0 {
			return nil
		}
		return bytes.NewReader(pending)
	default:
		return io.MultiReader(bytes.NewReader(pending), errReader{err})
	}
}

// errReader fails every read with its error, as a failed gzip or file
// reader keeps doing.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// span is one line of a window: win[lo:hi], newline excluded.
type span struct{ lo, hi int }

// splitLines appends the non-blank lines of win to lines. Blank means
// JSON whitespace only, which a json.Decoder skips between values.
func splitLines(lines []span, win []byte) []span {
	for lo := 0; lo < len(win); {
		hi := bytes.IndexByte(win[lo:], '\n')
		if hi < 0 {
			hi = len(win)
		} else {
			hi += lo
		}
		for i := lo; i < hi; i++ {
			if c := win[i]; c != ' ' && c != '\t' && c != '\r' {
				lines = append(lines, span{lo, hi})
				break
			}
		}
		lo = hi + 1
	}
	return lines
}

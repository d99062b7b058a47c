package obs

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// CreateTrace creates a trace file for writing, transparently
// gzip-compressing when the path ends in ".gz". Replay-enriched traces
// carry per-branch prediction tables and heavy feature vectors, so
// compressed corpora are the expected on-disk form. They compress at
// gzip.BestSpeed: a 40 MB replay corpus then deflates in 0.68 s
// instead of the default level's 2.45 s (2-core x86 VM), into files 11%
// larger that inflate in 0.41 s instead of 0.36 s. The returned
// WriteCloser flushes the compressor and the file on Close.
func CreateTrace(path string) (io.WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // fails only on an invalid level
	return &gzipFile{zw: zw, f: f}, nil
}

// gzipFile couples a gzip writer to its underlying file so one Close
// finishes both.
type gzipFile struct {
	zw *gzip.Writer
	f  *os.File
}

func (g *gzipFile) Write(p []byte) (int, error) { return g.zw.Write(p) }

func (g *gzipFile) Close() error {
	zerr := g.zw.Close()
	ferr := g.f.Close()
	if zerr != nil {
		return zerr
	}
	return ferr
}

// OpenTrace opens a trace file for reading, transparently decompressing
// gzip. Detection is by content (the 0x1f 0x8b magic), not extension,
// so a compressed trace reads correctly whatever it was named.
func OpenTrace(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	br := bufio.NewReader(f)
	magic, err := br.Peek(2)
	if err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("obs: %s: %w", path, err)
		}
		return &gzipReadFile{zr: zr, f: f}, nil
	}
	// Short or plain files (including empty ones) read as-is.
	return &bufReadFile{br: br, f: f}, nil
}

type gzipReadFile struct {
	zr *gzip.Reader
	f  *os.File
}

func (g *gzipReadFile) Read(p []byte) (int, error) { return g.zr.Read(p) }

func (g *gzipReadFile) Close() error {
	zerr := g.zr.Close()
	ferr := g.f.Close()
	if zerr != nil {
		return zerr
	}
	return ferr
}

type bufReadFile struct {
	br *bufio.Reader
	f  *os.File
}

func (b *bufReadFile) Read(p []byte) (int, error) { return b.br.Read(p) }

func (b *bufReadFile) Close() error { return b.f.Close() }

package telemetry

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// FileExporter writes each trace as one OTLP/HTTP JSON payload per line
// (NDJSON of ExportTraceServiceRequest objects) — the same bytes an OTLP
// collector would receive, replayable with curl. It is synchronous and
// mutex-serialized: tests and the CI smoke read the file immediately after
// a run finishes, so there is no queue to race against.
type FileExporter struct {
	mu      sync.Mutex
	w       io.Writer
	c       io.Closer // nil for stdout/stderr
	service string
	err     error
}

// NewFileExporter opens path for appending; "-" means stdout.
func NewFileExporter(path, service string) (*FileExporter, error) {
	if path == "-" {
		return &FileExporter{w: os.Stdout, service: service}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: open trace file: %w", err)
	}
	return &FileExporter{w: f, c: f, service: service}, nil
}

// NewWriterExporter wraps an arbitrary writer (tests).
func NewWriterExporter(w io.Writer, service string) *FileExporter {
	return &FileExporter{w: w, service: service}
}

// Export implements Exporter.
func (f *FileExporter) Export(spans []Span) {
	if len(spans) == 0 {
		return
	}
	line := MarshalOTLP(f.service, [][]Span{spans})
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return
	}
	if _, err := f.w.Write(append(line, '\n')); err != nil {
		f.err = err
	}
}

// Err reports the first write failure, if any.
func (f *FileExporter) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Close implements Exporter.
func (f *FileExporter) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.c != nil {
		return f.c.Close()
	}
	return nil
}

package obs

import (
	"fmt"
	"io"
	"sync"
)

// FlightRecorder is a fixed-size ring buffer of recent trace-event lines.
// It runs whenever any observability flag is set, even with the JSONL sink
// off, so that a crash always has the last moments of the run on record.
// Dumps are triggered by panics in the cmd mains, by DebugCheck failures,
// and by node-budget exhaustion (see the bdd.Observer methods of Sink).

// DefaultFlightSize is the default ring capacity in events.
const DefaultFlightSize = 4096

// FlightRecorder retains the most recent trace events.
type FlightRecorder struct {
	mu      sync.Mutex
	lines   [][]byte
	next    int  // slot for the next record
	wrapped bool // true once the ring has overwritten old entries
	total   int64
}

// NewFlightRecorder returns a recorder keeping the last n events
// (DefaultFlightSize if n <= 0).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightSize
	}
	return &FlightRecorder{lines: make([][]byte, n)}
}

// Record stores a copy of one serialized event line.
func (fr *FlightRecorder) Record(line []byte) {
	cp := make([]byte, len(line))
	copy(cp, line)
	fr.mu.Lock()
	fr.lines[fr.next] = cp
	fr.next++
	if fr.next == len(fr.lines) {
		fr.next = 0
		fr.wrapped = true
	}
	fr.total++
	fr.mu.Unlock()
}

// Len returns the number of events currently retained.
func (fr *FlightRecorder) Len() int {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.wrapped {
		return len(fr.lines)
	}
	return fr.next
}

// Total returns the number of events ever recorded.
func (fr *FlightRecorder) Total() int64 {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.total
}

// WriteTo dumps the retained events, oldest first, as JSON lines.
func (fr *FlightRecorder) WriteTo(w io.Writer) (int64, error) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	var written int64
	emit := func(from, to int) error {
		for i := from; i < to; i++ {
			n, err := w.Write(fr.lines[i])
			written += int64(n)
			if err != nil {
				return err
			}
		}
		return nil
	}
	if fr.wrapped {
		if err := emit(fr.next, len(fr.lines)); err != nil {
			return written, err
		}
	}
	return written, emit(0, fr.next)
}

// Dump writes a framed post-mortem dump: a header naming the reason, the
// retained events, and a trailer. Intended for stderr on crash paths.
func (fr *FlightRecorder) Dump(w io.Writer, reason string) {
	fr.mu.Lock()
	total, kept := fr.total, fr.next
	if fr.wrapped {
		kept = len(fr.lines)
	}
	fr.mu.Unlock()
	fmt.Fprintf(w, "=== obs flight recorder dump: %s (%d of %d events retained) ===\n", reason, kept, total)
	fr.WriteTo(w) //nolint:errcheck // best-effort crash dump
	fmt.Fprintf(w, "=== end flight recorder dump ===\n")
}

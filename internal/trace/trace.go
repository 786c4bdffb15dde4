// Package trace provides structured JSONL tracing of simulation runs:
// one JSON object per scan tick summarizing the hierarchy shape and
// the handoff activity. The format is line-oriented so shell tooling
// (jq, awk) can post-process long runs without loading them whole.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/lm"
	"repro/internal/simnet"
)

// ErrTruncated reports a trace whose final line is an unparseable
// partial record — the signature of a run killed mid-write. Read
// still returns every complete record before it, so killed runs keep
// their measured prefix. Callers distinguish it with errors.Is.
var ErrTruncated = errors.New("trace: truncated trailing record")

// TickRecord is the JSONL schema for one scan tick.
type TickRecord struct {
	Time          float64 `json:"t"`
	Levels        int     `json:"levels"`
	LevelSizes    []int   `json:"level_sizes"`
	Transfers     int     `json:"transfers"`
	PhiPackets    int     `json:"phi_packets"`
	GammaPackets  int     `json:"gamma_packets"`
	Elections     int     `json:"elections"`
	Rejections    int     `json:"rejections"`
	Memberships   int     `json:"membership_changes"`
	ClusterLinkUp int     `json:"cluster_link_events"`
}

// Tracer serializes tick records to a writer.
type Tracer struct {
	w   *bufio.Writer
	enc *json.Encoder
	n   int
	err error
}

// New builds a tracer over w.
func New(w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	return &Tracer{w: bw, enc: json.NewEncoder(bw)}
}

// Observer returns a simnet observer callback that records every tick.
func (t *Tracer) Observer() func(simnet.ObsEvent) {
	return func(ev simnet.ObsEvent) {
		t.Record(ev)
	}
}

// Record serializes one tick.
func (t *Tracer) Record(ev simnet.ObsEvent) {
	if t.err != nil {
		return
	}
	rec := TickRecord{
		Time:   ev.Time,
		Levels: ev.Hierarchy.L(),
	}
	for k := 0; k <= ev.Hierarchy.L(); k++ {
		rec.LevelSizes = append(rec.LevelSizes, len(ev.Hierarchy.LevelNodes(k)))
	}
	rec.Transfers = len(ev.Transfers)
	for _, tr := range ev.Transfers {
		if tr.Cause == lm.CauseMigration {
			rec.PhiPackets += tr.Packets
		} else {
			rec.GammaPackets += tr.Packets
		}
	}
	if d := ev.Diff; d != nil {
		for k := range d.Elections {
			rec.Elections += len(d.Elections[k])
			rec.Rejections += len(d.Rejections[k])
			rec.ClusterLinkUp += len(d.MigrationLinkEvents[k])
		}
		rec.Memberships = len(d.Memberships)
	}
	if err := t.enc.Encode(&rec); err != nil {
		t.err = err
		return
	}
	t.n++
}

// Close flushes buffered records and returns the first error seen.
func (t *Tracer) Close() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Records reports how many ticks were written.
func (t *Tracer) Records() int { return t.n }

// Read parses a JSONL trace back into records (for tests and tools).
//
// Crash tolerance: a run killed mid-write leaves a partial final line
// with no newline terminator. Read returns the successfully parsed
// prefix together with an error wrapping ErrTruncated for that
// trailing fragment, instead of discarding the whole trace. A final
// line that parses completely is kept even without its newline (the
// kill landed exactly between the record and its terminator). Corrupt
// *interior* records — a garbage line followed by more lines — remain
// fatal: they mean the file is damaged, not merely cut short, though
// the prefix parsed so far is still returned alongside the error.
func Read(r io.Reader) ([]TickRecord, error) {
	br := bufio.NewReader(r)
	var out []TickRecord
	for {
		line, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return out, fmt.Errorf("trace: record %d: %w", len(out), err)
		}
		terminated := err == nil
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			var rec TickRecord
			if uerr := json.Unmarshal(trimmed, &rec); uerr != nil {
				if !terminated {
					// Unterminated final line: the partial record a
					// killed run leaves behind.
					return out, fmt.Errorf("%w after %d records: %v", ErrTruncated, len(out), uerr)
				}
				return out, fmt.Errorf("trace: record %d: %w", len(out), uerr)
			}
			out = append(out, rec)
		}
		if !terminated {
			return out, nil
		}
	}
}

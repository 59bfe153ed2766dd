package history

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// recordsFile is the single NDJSON file a store directory holds. One
// record per line, append-only: the file is a time series, and a
// single O_APPEND write per record keeps concurrent appenders (an
// `accordion -history` run, an `accordionhist append`) from
// interleaving partial lines.
const recordsFile = "records.ndjson"

// Store is a run-history directory. The zero value is invalid; Dir
// must name a directory (created on first append).
type Store struct {
	Dir string
}

// Path returns the records file path.
func (s Store) Path() string { return filepath.Join(s.Dir, recordsFile) }

// Append validates the record and appends it as one NDJSON line,
// creating the store directory if needed.
func (s Store) Append(r Record) error {
	if s.Dir == "" {
		return fmt.Errorf("history: store has no directory")
	}
	if err := r.Validate(); err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("history: marshal record: %w", err)
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	f, err := os.OpenFile(s.Path(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("history: append %s: %w", s.Path(), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("history: append %s: %w", s.Path(), err)
	}
	return nil
}

// Load reads every record in append order. A missing records file is
// an empty store, not an error; a malformed or wrong-schema line is an
// error naming its line number — the store is an audit trail, and a
// corrupt trail should not be silently shortened.
func (s Store) Load() ([]Record, error) {
	f, err := os.Open(s.Path())
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("history: %w", err)
	}
	defer f.Close()
	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("history: %s:%d: %w", s.Path(), lineNo, err)
		}
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("history: %s:%d: %w", s.Path(), lineNo, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("history: %s: %w", s.Path(), err)
	}
	return recs, nil
}

// Tail returns the last k records (all of them when k <= 0 or exceeds
// the count).
func Tail(recs []Record, k int) []Record {
	if k <= 0 || k >= len(recs) {
		return recs
	}
	return recs[len(recs)-k:]
}

// Matching filters recs to those sharing key (a Record.CompatKey),
// preserving order.
func Matching(recs []Record, key string) []Record {
	var out []Record
	for i := range recs {
		if recs[i].CompatKey() == key {
			out = append(out, recs[i])
		}
	}
	return out
}

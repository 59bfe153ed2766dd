package history

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// Artifact is one file or rendered stream a run produced. Path is
// empty for artifacts captured as in-memory bytes (stdout blocks,
// service responses); VerifyArtifacts cannot re-hash those.
type Artifact struct {
	Name   string `json:"name"`
	Path   string `json:"path,omitempty"`
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// SetFlags records every flag's effective value, set or default, from
// a parsed FlagSet.
func (r *Record) SetFlags(fs *flag.FlagSet) {
	r.Flags = map[string]string{}
	fs.VisitAll(func(f *flag.Flag) {
		r.Flags[f.Name] = f.Value.String()
	})
}

// AddArtifactBytes records an in-memory artifact, one with no path.
func (r *Record) AddArtifactBytes(name string, data []byte) {
	sum := sha256.Sum256(data)
	r.Artifacts = append(r.Artifacts, Artifact{
		Name:   name,
		SHA256: hex.EncodeToString(sum[:]),
		Bytes:  int64(len(data)),
	})
}

// AddArtifactFile hashes a file the run wrote and records it under its
// path, so VerifyArtifacts can re-hash it later.
func (r *Record) AddArtifactFile(name, path string) error {
	sum, n, err := hashFile(path)
	if err != nil {
		return fmt.Errorf("history: artifact %s: %w", name, err)
	}
	r.Artifacts = append(r.Artifacts, Artifact{Name: name, Path: path, SHA256: sum, Bytes: n})
	return nil
}

// VerifyArtifacts re-hashes every path-backed artifact, resolving
// paths against the current directory as they were recorded. It
// returns how many files it checked and one error per mismatch or
// unreadable file; in-memory artifacts are not counted.
func (r *Record) VerifyArtifacts() (checked int, errs []error) {
	for _, a := range r.Artifacts {
		if a.Path == "" {
			continue
		}
		checked++
		sum, n, err := hashFile(a.Path)
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("%s: %w", a.Name, err))
		case sum != a.SHA256:
			errs = append(errs, fmt.Errorf("%s: sha256 mismatch: recorded %s, file %s", a.Name, a.SHA256, sum))
		case n != a.Bytes:
			errs = append(errs, fmt.Errorf("%s: size mismatch: recorded %d, file %d", a.Name, a.Bytes, n))
		}
	}
	return checked, errs
}

// WriteFile writes the record to path as indented JSON: the document
// `accordion -manifest` writes.
func (r *Record) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("history: marshal record: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadRecord reads one record written by WriteFile and validates it,
// so a file that is not a run document is an error, not an empty one.
func ReadRecord(path string) (Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Record{}, fmt.Errorf("history: %w", err)
	}
	r, err := decode(data)
	if err != nil {
		return Record{}, fmt.Errorf("history: %s: %w", path, err)
	}
	return r, nil
}

// decode parses and validates one JSON record.
func decode(data []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return Record{}, err
	}
	return r, r.Validate()
}

func hashFile(path string) (sum string, n int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	if n, err = io.Copy(h, f); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

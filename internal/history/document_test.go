package history

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDocumentRoundTrip: a populated run document survives WriteFile →
// ReadRecord with its flags, note, metrics, artifacts and wall time
// intact.
func TestDocumentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	artifact := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(artifact, []byte("a,b\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := NewRecord("accordion-test", "run")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.Int("chips", 100, "")
	fs.String("chip", "accordion", "")
	if err := fs.Parse([]string{"-chips", "25"}); err != nil {
		t.Fatal(err)
	}
	r.SetFlags(fs)
	r.Note = "experiments: fig2: boom"
	r.Set("runner.fig1.wall_ms", 120)
	if err := r.AddArtifactFile("out.csv", artifact); err != nil {
		t.Fatal(err)
	}
	r.AddArtifactBytes("stdout:fig1", []byte("rendered tables"))
	r.WallMs = 120

	path := filepath.Join(dir, "manifest.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "accordion-test" || got.GoVersion == "" || got.StartUnixNs == 0 {
		t.Fatalf("identity not preserved: %+v", got)
	}
	if got.Flags["chips"] != "25" || got.Flags["chip"] != "accordion" {
		t.Fatalf("flags not preserved: %v", got.Flags)
	}
	if got.Note != r.Note || got.Metrics["runner.fig1.wall_ms"] != 120 || got.WallMs != 120 {
		t.Fatalf("note, metrics or wall time not preserved: %+v", got)
	}
	if len(got.Artifacts) != 2 {
		t.Fatalf("artifacts not preserved: %+v", got.Artifacts)
	}
	want := sha256.Sum256([]byte("a,b\n1,2\n"))
	if a := got.Artifacts[0]; a.SHA256 != hex.EncodeToString(want[:]) || a.Bytes != 8 || a.Path != artifact {
		t.Fatalf("file artifact = %+v, want sha256 %x over 8 bytes at %s", a, want, artifact)
	}
	if got.Artifacts[1].Path != "" {
		t.Fatal("in-memory artifact gained a path")
	}
}

// TestVerifyArtifacts: verification passes on intact files, flags a
// tampered or missing one, and counts only the files it re-hashed,
// not the in-memory artifacts it cannot check.
func TestVerifyArtifacts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.json")
	if err := os.WriteFile(path, []byte(`{"x":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRecord("t", "run")
	if err := r.AddArtifactFile("data.json", path); err != nil {
		t.Fatal(err)
	}
	r.AddArtifactBytes("stdout", []byte("ignored by verify"))
	if checked, errs := r.VerifyArtifacts(); checked != 1 || errs != nil {
		t.Fatalf("verify of intact artifacts: %d checked, %v", checked, errs)
	}
	if err := os.WriteFile(path, []byte(`{"x":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if checked, errs := r.VerifyArtifacts(); checked != 1 || len(errs) != 1 || !strings.Contains(errs[0].Error(), "sha256 mismatch") {
		t.Fatalf("verify of tampered artifact: %d checked, %v", checked, errs)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if checked, errs := r.VerifyArtifacts(); checked != 1 || len(errs) != 1 {
		t.Fatalf("verify of missing artifact: %d checked, %v", checked, errs)
	}
}

// TestDocumentJSONKeys pins the documented field names, the artifact
// keys included.
func TestDocumentJSONKeys(t *testing.T) {
	r := NewRecord("t", "run")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.Int("j", 0, "")
	r.SetFlags(fs)
	r.Args = []string{"all"}
	r.Artifacts = []Artifact{{Name: "a", Path: "a.txt", SHA256: "00", Bytes: 1}}
	r.WallMs = 1
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "tool", "kind", "args", "flags", "go_version", "start_unix_ns", "wall_ms", "metrics", "artifacts"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("document missing key %q", key)
		}
	}
	arts, _ := doc["artifacts"].([]any)
	if len(arts) != 1 {
		t.Fatalf("artifacts = %v, want the one added", doc["artifacts"])
	}
	art, _ := arts[0].(map[string]any)
	for _, key := range []string{"name", "path", "sha256", "bytes"} {
		if _, ok := art[key]; !ok {
			t.Errorf("artifact missing key %q", key)
		}
	}
}

// TestReadRecordRejectsGarbage: a file that is not a valid run
// document is a clean error — not JSON, a bare tool, and a manifest in
// the format that predates the run document (no schema, no kind).
func TestReadRecordRejectsGarbage(t *testing.T) {
	for name, body := range map[string]string{
		"not json":  "not json",
		"bare tool": `{"tool":"x"}`,
		"old manifest": `{"tool":"accordion","args":["fig1a"],"flags":{"j":"0"},"go_version":"go1.24.0",` +
			`"start":"2026-01-01T00:00:00Z","end":"2026-01-01T00:00:01Z","wall_ms":1000,` +
			`"artifacts":[{"name":"stdout:fig1a","sha256":"476f","bytes":10}]}`,
	} {
		path := filepath.Join(t.TempDir(), "manifest.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadRecord(path); err == nil {
			t.Errorf("ReadRecord accepted %s", name)
		}
	}
}

package history

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testRecord builds a minimal valid record for store tests.
func testRecord(tool string, metrics map[string]float64) Record {
	r := Record{Schema: Schema, Tool: tool, Kind: "run", GOMAXPROCS: 1,
		Metrics: map[string]float64{}}
	for k, v := range metrics {
		r.Metrics[k] = v
	}
	return r
}

func TestStoreAppendLoadRoundTrip(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	recs, err := st.Load()
	if err != nil {
		t.Fatalf("empty store Load: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("empty store returned %d records", len(recs))
	}

	a := testRecord("accordion", map[string]float64{"hist.x.p99": 100})
	a.VCSRevision = "abc123"
	a.Args = []string{"-chips", "8"}
	b := testRecord("accordion", map[string]float64{"hist.x.p99": 110})
	for _, r := range []Record{a, b} {
		if err := st.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	recs, err = st.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("Load returned %d records, want 2", len(recs))
	}
	if recs[0].VCSRevision != "abc123" || len(recs[0].Args) != 2 {
		t.Errorf("first record lost fields: %+v", recs[0])
	}
	if recs[1].Metrics["hist.x.p99"] != 110 {
		t.Errorf("second record metrics = %v", recs[1].Metrics)
	}
}

func TestStoreAppendValidates(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	bad := testRecord("", nil)
	if err := st.Append(bad); err == nil {
		t.Error("Append accepted a record with no tool")
	}
	wrong := testRecord("accordion", nil)
	wrong.Schema = 99
	if err := st.Append(wrong); err == nil {
		t.Error("Append accepted schema 99")
	}
	if (Store{}).Append(testRecord("accordion", nil)) == nil {
		t.Error("Append accepted an empty store dir")
	}
}

// TestStoreLoadNamesCorruptLine pins the audit-trail contract: a
// malformed line fails the whole load with its line number, rather
// than silently shortening the history.
func TestStoreLoadNamesCorruptLine(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	if err := st.Append(testRecord("accordion", map[string]float64{"a": 1})); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(st.Path(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{not json\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = st.Load()
	if err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Errorf("Load error = %v, want one naming line 2", err)
	}
}

// TestStoreLoadsRetiredProfileBlock: records written before the
// self-profiler went carry a "profile" block of pprof hotspots (the
// committed HISTORY/ store holds three). They still load, metrics
// intact, and the block is dropped.
func TestStoreLoadsRetiredProfileBlock(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	line := `{"schema":1,"tool":"accordion","kind":"run","gomaxprocs":2,"metrics":{"runner.fig5a.wall_ms":412},` +
		`"profile":{"cpu":[{"func":"repro/internal/rms/canneal.(*Benchmark).netCost","flat_pct":40.6,"cum_pct":40.6}],` +
		`"heap":[{"func":"math/rand.newSource","flat_pct":25,"cum_pct":25}],"cpu_total_ns":14200000000,"heap_total_bytes":1048576}}` + "\n"
	if err := os.WriteFile(st.Path(), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := st.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(recs) != 1 || recs[0].Metrics["runner.fig5a.wall_ms"] != 412 || recs[0].CompatKey() != "accordion/run/j2" {
		t.Errorf("Load = %+v", recs)
	}
}

func TestTailAndMatching(t *testing.T) {
	var recs []Record
	for i := 0; i < 5; i++ {
		recs = append(recs, testRecord("accordion", map[string]float64{"i": float64(i)}))
	}
	recs = append(recs, testRecord("bench_parallel", nil))
	if got := Tail(recs, 2); len(got) != 2 || got[1].Tool != "bench_parallel" {
		t.Errorf("Tail(2) = %d records ending %q", len(got), got[len(got)-1].Tool)
	}
	if got := Tail(recs, 0); len(got) != len(recs) {
		t.Errorf("Tail(0) = %d records, want all %d", len(got), len(recs))
	}
	match := Matching(recs, recs[0].CompatKey())
	if len(match) != 5 {
		t.Errorf("Matching = %d records, want 5", len(match))
	}
}

// TestStorePathLayout pins the on-disk name scripts and docs refer to.
func TestStorePathLayout(t *testing.T) {
	st := Store{Dir: "HISTORY"}
	if st.Path() != filepath.Join("HISTORY", "records.ndjson") {
		t.Errorf("Path = %q", st.Path())
	}
}

package history

import (
	"bytes"
	"fmt"
	"runtime/pprof"
)

// ProfileSummary is the self-profiling digest embedded in a Record:
// top-N flat hotspots for CPU time and allocated space, diffable
// across runs without opening a pprof file.
type ProfileSummary struct {
	CPU            []Hotspot `json:"cpu,omitempty"`
	Heap           []Hotspot `json:"heap,omitempty"`
	CPUTotalNs     int64     `json:"cpu_total_ns,omitempty"`
	HeapTotalBytes int64     `json:"heap_total_bytes,omitempty"`
}

// profileTopN caps the hotspots CaptureProfile keeps per dimension.
const profileTopN = 10

// CaptureProfile runs fn bracketed by a pprof CPU capture and followed
// by a heap ("allocs" since start) capture, and summarizes both into
// hotspot tables.
//
// fn's error is returned as-is; a profiling failure wraps it only
// when fn itself succeeded, so a run's real failure is never masked
// by a profiler complaint.
func CaptureProfile(fn func() error) (*ProfileSummary, error) {
	var cpuBuf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		return nil, fmt.Errorf("history: start cpu profile: %w", err)
	}
	fnErr := fn()
	pprof.StopCPUProfile()
	var heapBuf bytes.Buffer
	if p := pprof.Lookup("allocs"); p != nil {
		if err := p.WriteTo(&heapBuf, 0); err != nil && fnErr == nil {
			return nil, fmt.Errorf("history: heap profile: %w", err)
		}
	}
	sum := &ProfileSummary{}
	if cpuBuf.Len() > 0 {
		prof, err := parseProfile(cpuBuf.Bytes())
		if err != nil {
			if fnErr == nil {
				return nil, err
			}
			return nil, fnErr
		}
		// The CPU profile's columns are samples/count then cpu/ns.
		sum.CPU, sum.CPUTotalNs = prof.hotspots(prof.valueIndex([]string{"cpu"}), profileTopN)
	}
	if heapBuf.Len() > 0 {
		prof, err := parseProfile(heapBuf.Bytes())
		if err != nil {
			if fnErr == nil {
				return nil, err
			}
			return nil, fnErr
		}
		sum.Heap, sum.HeapTotalBytes = prof.hotspots(prof.valueIndex([]string{"alloc_space"}), profileTopN)
	}
	return sum, fnErr
}

package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// CoreRef identifies one engaged physical core of a sampled chip.
// Task index t of a run executes on cores[t mod len(cores)], matching
// the round-robin task assignment every kernel's owner functions use.
type CoreRef struct {
	Core    int // chip-wide core id
	Cluster int // owning voltage cluster
}

// Ledger is the fault-attribution record of one benchmark run: which
// physical core every injected fault landed on, and — once the output
// is scored — how much of the final distortion each core is charged
// with. It answers the paper's vulnerability question ("which cores
// caused the quality loss?") at run granularity.
//
// Attach a Ledger to a Plan before the run; the kernels call
// Plan.Note at each injection site, and rms.Attribute charges the
// per-value distortion contributions afterwards. All methods are
// goroutine-safe; a nil *Ledger is a valid no-op receiver everywhere.
type Ledger struct {
	mu       sync.Mutex
	chipSeed int64
	cores    []CoreRef
	recs     map[int]*coreRecord // keyed by engaged-core slot (task mod len)
	total    float64
	injected int64
}

type coreRecord struct {
	slot       int
	faults     int64
	distortion float64
}

// NewLedger builds a ledger for a run whose tasks round-robin over the
// given engaged cores of the chip drawn from chipSeed.
func NewLedger(chipSeed int64, cores []CoreRef) (*Ledger, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("fault: ledger needs at least one engaged core")
	}
	return &Ledger{
		chipSeed: chipSeed,
		cores:    append([]CoreRef(nil), cores...),
		recs:     make(map[int]*coreRecord),
	}, nil
}

// slotOf maps a task index to its engaged-core slot.
func (l *Ledger) slotOf(task int) int {
	if task < 0 {
		task = -task
	}
	return task % len(l.cores)
}

// rec returns (creating if needed) the record for a slot. Caller holds
// l.mu.
func (l *Ledger) rec(slot int) *coreRecord {
	r := l.recs[slot]
	if r == nil {
		r = &coreRecord{slot: slot}
		l.recs[slot] = r
	}
	return r
}

// noteInjection records one injected fault against the core executing
// task.
func (l *Ledger) noteInjection(task int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.rec(l.slotOf(task)).faults++
	l.injected++
	l.mu.Unlock()
}

// AddDistortion charges d of the run's final output distortion to the
// core executing task. Nil-safe.
func (l *Ledger) AddDistortion(task int, d float64) {
	if l == nil || d == 0 {
		return
	}
	l.mu.Lock()
	l.rec(l.slotOf(task)).distortion += d
	l.total += d
	l.mu.Unlock()
}

// CoreReport is one engaged core's line in the attribution report.
type CoreReport struct {
	Core       int     `json:"core"`
	Cluster    int     `json:"cluster"`
	Faults     int64   `json:"faults"`
	Distortion float64 `json:"distortion"`
	Share      float64 `json:"share"` // Distortion / TotalDistortion, 0 if total is 0
}

// Report is the ledger's aggregated view: per-core fault counts and
// distortion contributions, sorted worst core first.
type Report struct {
	ChipSeed        int64        `json:"chip_seed"`
	EngagedCores    int          `json:"engaged_cores"`
	Injections      int64        `json:"injections"`
	TotalDistortion float64      `json:"total_distortion"`
	Cores           []CoreReport `json:"cores"`
}

// Report aggregates the ledger. Cores are sorted by distortion
// contribution (descending), ties broken by fault count then core id,
// so Cores[:k] are the k worst offenders. A nil ledger reports zero.
func (l *Ledger) Report() Report {
	if l == nil {
		return Report{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := Report{
		ChipSeed:        l.chipSeed,
		EngagedCores:    len(l.cores),
		Injections:      l.injected,
		TotalDistortion: l.total,
	}
	for _, r := range l.recs {
		ref := l.cores[r.slot]
		cr := CoreReport{
			Core:       ref.Core,
			Cluster:    ref.Cluster,
			Faults:     r.faults,
			Distortion: r.distortion,
		}
		if l.total > 0 {
			cr.Share = r.distortion / l.total
		}
		rep.Cores = append(rep.Cores, cr)
	}
	sort.Slice(rep.Cores, func(i, j int) bool {
		a, b := rep.Cores[i], rep.Cores[j]
		if a.Distortion != b.Distortion {
			return a.Distortion > b.Distortion
		}
		if a.Faults != b.Faults {
			return a.Faults > b.Faults
		}
		return a.Core < b.Core
	})
	return rep
}

// TopShare returns the fraction of total distortion attributable to
// the k worst cores (1 if the total is zero and k > 0 covers all
// recorded cores, 0 if nothing was recorded).
func (r Report) TopShare(k int) float64 {
	if k <= 0 || len(r.Cores) == 0 || r.TotalDistortion <= 0 {
		return 0
	}
	if k > len(r.Cores) {
		k = len(r.Cores)
	}
	var sum float64
	for _, c := range r.Cores[:k] {
		sum += c.Distortion
	}
	return sum / r.TotalDistortion
}

// WriteJSON renders the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// The fault counters count every note, ledger or not: the tasks Drop
// plans suppress in fault.drops, the tasks every other mode corrupts
// in fault.injected. A default `accordion all` notes 181,160 drops and
// 16,688 injections.
var (
	telDrops    = telemetry.GetCounter("fault.drops")
	telInjected = telemetry.GetCounter("fault.injected")
)

// Note records a fault injection at task: it bumps the mode's fault
// counter and, when the plan carries a ledger, charges the core
// executing task. It is the kernels' single entry point:
// behavior-neutral by construction (it touches no plan state), and
// without a ledger one atomic load while telemetry is off.
func (p Plan) Note(task int) {
	if p.Mode == Drop {
		telDrops.Inc()
	} else {
		telInjected.Inc()
	}
	if p.Ledger != nil {
		p.Ledger.noteInjection(task)
	}
}

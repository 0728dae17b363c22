package serve

import (
	"sort"
	"sync"
	"time"

	"wsrs/internal/ring"
)

// The lifecycle phases the daemon decomposes a job into. Every phase
// observation feeds the wsrsd_phase_us histogram family on the
// registry, the bounded phase-sample log served at /v1/phases, and
// the flight recorder.
const (
	PhaseQueue    = "queue"    // task enqueued -> a pool worker picked it up
	PhaseCoalesce = "coalesce" // waiter subscribed -> the leader flight resolved
	PhaseCache    = "cache"    // content-addressed result cache lookup
	PhaseSimulate = "simulate" // RunGrid dispatch wall time
	PhaseTotal    = "total"    // job accepted -> terminal state
)

// PhaseNames lists the phases in presentation order.
var PhaseNames = []string{PhaseQueue, PhaseCoalesce, PhaseCache, PhaseSimulate, PhaseTotal}

// PhaseSample is one recorded phase duration.
type PhaseSample struct {
	Phase string `json:"phase"`
	Us    int64  `json:"us"`
}

// PhasePage is the GET /v1/phases response: the samples appended
// since the ?since cursor (bounded by the retention ring) and the next
// cursor. A client reads the cursor, runs work, then reads that
// work's samples and computes exact percentiles — sharper than
// decoding power-of-two histogram buckets.
type PhasePage struct {
	// Next is the cursor covering everything returned: pass it as
	// ?since= on the next fetch to read only newer samples.
	Next uint64 `json:"next"`
	// Dropped counts samples between the cursor and the retention
	// window that were evicted before this fetch.
	Dropped uint64        `json:"dropped,omitempty"`
	Samples []PhaseSample `json:"samples"`
}

// phaseLog is the bounded append-only sample log behind /v1/phases: a
// preallocated ring whose arrival numbers are the page cursor, so the
// append path (one per phase observation) allocates nothing.
type phaseLog struct {
	mu      sync.Mutex
	samples ring.Ring[PhaseSample]
}

func newPhaseLog(cap int) *phaseLog {
	if cap <= 0 {
		cap = 8192
	}
	return &phaseLog{samples: ring.New[PhaseSample](cap)}
}

func (l *phaseLog) add(phase string, us int64) {
	l.mu.Lock()
	l.samples.Add(PhaseSample{Phase: phase, Us: us})
	l.mu.Unlock()
}

// page returns the samples with global index >= since, oldest first.
func (l *phaseLog) page(since uint64) PhasePage {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := l.samples.Total()
	p := PhasePage{Next: total}
	if since >= total {
		return p
	}
	if oldest := total - uint64(l.samples.Len()); since < oldest {
		p.Dropped = oldest - since
	}
	p.Samples = l.samples.Copy(since)
	return p
}

// SlowJob is one entry of the /debug/slow ring: a finished job's
// identity, outcome and phase decomposition, kept if it ranks among
// the N slowest seen.
type SlowJob struct {
	JobID    string             `json:"job_id"`
	TraceID  string             `json:"trace_id"`
	Label    string             `json:"label,omitempty"`
	State    string             `json:"state"`
	Cells    int                `json:"cells"`
	TotalMs  float64            `json:"total_ms"`
	PhaseMs  map[string]float64 `json:"phase_ms"`
	Finished time.Time          `json:"finished"`
}

// slowRing keeps the slowest recent jobs, sorted slowest first.
type slowRing struct {
	mu   sync.Mutex
	max  int
	jobs []SlowJob
}

func newSlowRing(max int) *slowRing {
	if max <= 0 {
		max = 32
	}
	return &slowRing{max: max}
}

func (r *slowRing) add(j SlowJob) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.Search(len(r.jobs), func(i int) bool { return r.jobs[i].TotalMs < j.TotalMs })
	if i >= r.max {
		return
	}
	r.jobs = append(r.jobs, SlowJob{})
	copy(r.jobs[i+1:], r.jobs[i:])
	r.jobs[i] = j
	if len(r.jobs) > r.max {
		r.jobs = r.jobs[:r.max]
	}
}

func (r *slowRing) snapshot() []SlowJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SlowJob(nil), r.jobs...)
}

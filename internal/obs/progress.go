package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress is a heartbeat reporter for long sweeps: simulation code
// calls Add as work completes, and every interval a line with the done
// fraction, simulation rate (KIPS — kilo simulated instructions per wall
// second) and ETA is printed. A nil *Progress discards everything.
//
// Heartbeats are emitted from Add rather than a timer goroutine, so an
// idle process never prints and there is nothing to shut down.
type Progress struct {
	mu       sync.Mutex
	w        io.Writer
	interval time.Duration
	start    time.Time
	last     time.Time
	done     uint64
	target   uint64
	label    string
}

// NewProgress returns a reporter writing to w at most once per interval.
func NewProgress(w io.Writer, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	now := time.Now()
	return &Progress{w: w, interval: interval, start: now, last: now}
}

// SetLabel names the current phase in heartbeat lines.
func (p *Progress) SetLabel(label string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.label = label
	p.mu.Unlock()
}

// AddTarget grows the expected total work (in instructions). Runs add
// their budget as they start, so the ETA converges as the sweep
// progresses.
func (p *Progress) AddTarget(n uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.target += n
	p.mu.Unlock()
}

// Add records n completed instructions and prints a heartbeat if the
// interval elapsed.
func (p *Progress) Add(n uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done += n
	now := time.Now()
	if now.Sub(p.last) < p.interval {
		p.mu.Unlock()
		return
	}
	p.last = now
	line := p.line(now)
	w := p.w
	p.mu.Unlock()
	fmt.Fprintln(w, line)
}

// ProgressStatus is a point-in-time view of the heartbeat state, used by
// the live-telemetry HTTP server.
type ProgressStatus struct {
	DoneInstructions   uint64  `json:"done_instructions"`
	TargetInstructions uint64  `json:"target_instructions"`
	RateKIPS           float64 `json:"rate_kips"`
	Label              string  `json:"label,omitempty"`
}

// Status returns the current heartbeat state (zero for a nil reporter).
func (p *Progress) Status() ProgressStatus {
	if p == nil {
		return ProgressStatus{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return ProgressStatus{
		DoneInstructions:   p.done,
		TargetInstructions: p.target,
		RateKIPS:           p.rate(time.Now()),
		Label:              p.label,
	}
}

// Finish prints a final summary line. If no work was ever recorded the
// line is suppressed — a run that simulated nothing has no rate worth
// printing.
func (p *Progress) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.done == 0 {
		p.mu.Unlock()
		return
	}
	line := p.line(time.Now())
	w := p.w
	p.mu.Unlock()
	fmt.Fprintln(w, line+" (done)")
}

func (p *Progress) rate(now time.Time) float64 {
	el := now.Sub(p.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(p.done) / el / 1e3
}

func (p *Progress) line(now time.Time) string {
	rate := p.rate(now)
	label := p.label
	if label == "" {
		label = "sim"
	}
	if p.target == 0 || p.done >= p.target {
		return fmt.Sprintf("obs: %s %.2fM insts, %.0f KIPS", label,
			float64(p.done)/1e6, rate)
	}
	eta := "?"
	if rate > 0 {
		eta = (time.Duration(float64(p.target-p.done) / (rate * 1e3) * float64(time.Second))).Round(100 * time.Millisecond).String()
	}
	return fmt.Sprintf("obs: %s %.1f%% (%.2fM/%.2fM insts, %.0f KIPS, ETA %s)",
		label, 100*float64(p.done)/float64(p.target),
		float64(p.done)/1e6, float64(p.target)/1e6, rate, eta)
}

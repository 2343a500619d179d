// Package window maintains quantiles over the most recent W tumbling
// windows of a stream: a ring of per-window sketches whose final buffers
// are combined at query time with the paper's parallel OUTPUT phase
// (Section 4.9). This is the pattern a monitoring system uses for "p99
// over the last 5 minutes, refreshed each minute": each window is one pass,
// old windows age out wholesale, and the combined answer keeps an explicit
// rank-error bound.
package window

import (
	"errors"
	"fmt"

	"mrl/internal/core"
	"mrl/internal/params"
)

// Ring is a fixed-length ring of tumbling-window sketches. It is not safe
// for concurrent use.
type Ring struct {
	plan      params.Plan
	windows   []*core.Sketch
	head      int   // index of the current (filling) window
	filled    int   // number of windows that have ever been started
	rotations int64 // completed Rotate calls
}

// NewRing returns a ring of `windows` tumbling windows, each provisioned
// for epsilon over at most perWindow elements.
func NewRing(windows int, epsilon float64, perWindow int64) (*Ring, error) {
	if windows < 1 {
		return nil, fmt.Errorf("window: ring size %d must be positive", windows)
	}
	plan, err := params.OptimizeNew(epsilon, perWindow)
	if err != nil {
		return nil, err
	}
	r := &Ring{plan: plan, windows: make([]*core.Sketch, windows)}
	s, err := plan.NewSketch()
	if err != nil {
		return nil, err
	}
	r.windows[0] = s
	r.filled = 1
	return r, nil
}

// Add records a value into the current window.
func (r *Ring) Add(v float64) error {
	return r.windows[r.head].Add(v)
}

// AddBatch records a batch into the current window. Like Sketch.AddBatch it
// is all-or-nothing on NaN and leaves exactly the state an element-by-element
// Add loop would.
func (r *Ring) AddBatch(vs []float64) error {
	return r.windows[r.head].AddBatch(vs)
}

// Rotate closes the current window and starts a new one, evicting the
// oldest window once the ring is full.
func (r *Ring) Rotate() error {
	next := (r.head + 1) % len(r.windows)
	if r.windows[next] == nil {
		s, err := r.plan.NewSketch()
		if err != nil {
			return err
		}
		r.windows[next] = s
	} else {
		r.windows[next].Reset()
	}
	r.head = next
	if r.filled < len(r.windows) {
		r.filled++
	}
	r.rotations++
	return nil
}

// Rotations returns how many Rotate calls have completed over the ring's
// lifetime (evictions included).
func (r *Ring) Rotations() int64 { return r.rotations }

// Windows returns how many windows currently hold data (including the
// filling one).
func (r *Ring) Windows() int { return r.filled }

// Count returns the total elements across the live windows.
func (r *Ring) Count() int64 {
	var total int64
	for _, w := range r.windows {
		if w != nil {
			total += w.Count()
		}
	}
	return total
}

// MemoryElements returns the buffer footprint across the ring.
func (r *Ring) MemoryElements() int64 {
	var total int64
	for _, w := range r.windows {
		if w != nil {
			total += int64(w.MemoryElements())
		}
	}
	return total
}

// HeldElements returns the buffer elements the ring's sketches have
// allocated. An evicted window is Reset in place and keeps its arrays.
func (r *Ring) HeldElements() int64 {
	var total int64
	for _, w := range r.windows {
		if w != nil {
			total += int64(w.HeldElements())
		}
	}
	return total
}

// Quantiles answers quantiles over the union of all live windows, with the
// combined Section 4.9 error bound (in ranks over the union's Count). The
// windows are combined in place: the ring is not safe for concurrent use,
// so nothing changes them during the call and no buffer is copied.
func (r *Ring) Quantiles(phis []float64) (values []float64, errorBound float64, err error) {
	live := r.windows[:r.filled] // windows start in slot order
	values, err = core.Quantiles(live, phis)
	if errors.Is(err, core.ErrEmpty) {
		return nil, 0, fmt.Errorf("window: no data in any window: %w", err)
	}
	if err != nil {
		return nil, 0, err
	}
	return values, core.ErrorBound(live), nil
}

// Bound returns the combined Section 4.9 worst-case rank error (in ranks
// over Count) the live windows currently certify, without selecting any
// quantiles. It is exactly the errorBound Quantiles would report now; an
// empty ring certifies 0.
func (r *Ring) Bound() float64 {
	return core.ErrorBound(r.windows[:r.filled])
}

// WindowQuantile answers a quantile over the current window only.
func (r *Ring) WindowQuantile(phi float64) (float64, error) {
	return r.windows[r.head].Quantile(phi)
}

// Package traj defines the trajectory model of the paper: raw trajectories
// (Def. 1) as timestamped GPS samples, and symbolic trajectories (Def. 3)
// as timestamped landmark visits, together with trajectory segments
// (Def. 4) connecting consecutive landmarks.
package traj

import (
	"errors"
	"fmt"
	"time"

	"stmaker/internal/geo"
)

// Sample is a single GPS fix: a location and its timestamp.
type Sample struct {
	Pt geo.Point `json:"pt"`
	T  time.Time `json:"t"`
}

// Raw is a raw trajectory: a finite sequence of timestamped locations
// sampled from the original route of a moving object (Def. 1).
type Raw struct {
	// ID identifies the trajectory within a dataset.
	ID string `json:"id"`
	// Object identifies the moving object (e.g. a taxi).
	Object string `json:"object,omitempty"`
	// Samples are ordered by non-decreasing timestamp.
	Samples []Sample `json:"samples"`
}

// Validate checks structural invariants: at least two samples, valid
// coordinates and non-decreasing timestamps. A nil trajectory is invalid,
// not a panic — decoded JSON (worldio, the HTTP server) can produce one.
func (r *Raw) Validate() error {
	if r == nil {
		return errors.New("traj: nil trajectory")
	}
	if len(r.Samples) < 2 {
		return fmt.Errorf("traj: trajectory %q has %d samples, need at least 2", r.ID, len(r.Samples))
	}
	for i, s := range r.Samples {
		if !s.Pt.Valid() {
			return fmt.Errorf("traj: trajectory %q sample %d has invalid point %v", r.ID, i, s.Pt)
		}
		if s.T.IsZero() {
			return fmt.Errorf("traj: trajectory %q sample %d has zero timestamp", r.ID, i)
		}
		if i > 0 && s.T.Before(r.Samples[i-1].T) {
			return fmt.Errorf("traj: trajectory %q timestamps decrease at sample %d", r.ID, i)
		}
	}
	return nil
}

// Start returns the first sample's timestamp (zero if empty).
func (r *Raw) Start() time.Time {
	if len(r.Samples) == 0 {
		return time.Time{}
	}
	return r.Samples[0].T
}

// End returns the last sample's timestamp (zero if empty).
func (r *Raw) End() time.Time {
	if len(r.Samples) == 0 {
		return time.Time{}
	}
	return r.Samples[len(r.Samples)-1].T
}

// Duration returns the elapsed time between the first and last sample.
func (r *Raw) Duration() time.Duration { return r.End().Sub(r.Start()) }

// Polyline returns the spatial path of the trajectory.
func (r *Raw) Polyline() geo.Polyline {
	pl := make(geo.Polyline, len(r.Samples))
	for i, s := range r.Samples {
		pl[i] = s.Pt
	}
	return pl
}

// Length returns the travelled distance in metres.
func (r *Raw) Length() float64 { return r.Polyline().Length() }

// ErrNotCalibrated is returned when an operation requires a symbolic
// trajectory with at least two landmark visits.
var ErrNotCalibrated = errors.New("traj: symbolic trajectory has fewer than 2 landmark visits")

// Visit is one landmark passage of a symbolic trajectory.
type Visit struct {
	// Landmark is the landmark id (index into the landmark set).
	Landmark int `json:"landmark"`
	// T is the (possibly interpolated) time the object passed the landmark.
	T time.Time `json:"t"`
	// RawIndex is the index of the raw sample at or immediately before the
	// passage; it lets feature extractors recover the sample subsequence of
	// each segment.
	RawIndex int `json:"rawIndex"`
}

// Symbolic is a landmark-based (symbolic) trajectory (Def. 3): the sequence
// of landmarks the calibrated trajectory passes, with timestamps.
type Symbolic struct {
	// ID matches the source raw trajectory's ID.
	ID string `json:"id"`
	// Raw is the source trajectory; feature extraction reads its samples.
	Raw *Raw `json:"-"`
	// Visits is ordered by time.
	Visits []Visit `json:"visits"`
}

// Len returns |T|, the number of landmarks of the symbolic trajectory.
func (s *Symbolic) Len() int { return len(s.Visits) }

// NumSegments returns |T|−1 (zero when not calibrated).
func (s *Symbolic) NumSegments() int {
	if len(s.Visits) < 2 {
		return 0
	}
	return len(s.Visits) - 1
}

// Segment is a trajectory segment (Def. 4): the sub-trajectory connecting
// two consecutive landmarks.
type Segment struct {
	// Index is the segment's position i (connecting visit i and i+1).
	Index int
	// From and To are the consecutive landmark visits.
	From, To Visit
	// Traj is the owning symbolic trajectory.
	Traj *Symbolic
}

// Segment returns segment i (0-based). It panics if i is out of range, as
// with slice indexing.
func (s *Symbolic) Segment(i int) Segment {
	if i < 0 || i >= s.NumSegments() {
		panic(fmt.Sprintf("traj: segment index %d out of range [0,%d)", i, s.NumSegments()))
	}
	return Segment{Index: i, From: s.Visits[i], To: s.Visits[i+1], Traj: s}
}

// Segments returns all segments in order.
func (s *Symbolic) Segments() []Segment {
	out := make([]Segment, s.NumSegments())
	for i := range out {
		out[i] = s.Segment(i)
	}
	return out
}

// RawSamples returns the raw samples spanned by the segment (inclusive of
// the boundary samples). It returns nil when the symbolic trajectory has no
// raw source attached.
func (sg Segment) RawSamples() []Sample {
	if sg.Traj == nil || sg.Traj.Raw == nil {
		return nil
	}
	lo, hi := sg.From.RawIndex, sg.To.RawIndex
	n := len(sg.Traj.Raw.Samples)
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	if lo > hi {
		return nil
	}
	return sg.Traj.Raw.Samples[lo : hi+1]
}

// LandmarkIDs returns the landmark sequence of the symbolic trajectory.
func (s *Symbolic) LandmarkIDs() []int {
	out := make([]int, len(s.Visits))
	for i, v := range s.Visits {
		out[i] = v.Landmark
	}
	return out
}

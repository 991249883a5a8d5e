// Package sanitize repairs degraded raw trajectories before calibration.
//
// The paper assumes calibration absorbs GPS noise (§II-A), but deployed
// trackers emit worse than noise: NaN or out-of-range fixes, duplicated
// points, out-of-order timestamps, teleport outliers from multipath or
// cold-start fixes, and dense jitter while the vehicle is parked. Feeding
// such input to the pipeline either hard-fails validation or distorts the
// moving features (an implied 10 000 km/h spike dominates max-normalized
// speed). Following the noise-repair-as-preprocessing stance of the
// low-sampling-rate map-matching literature, this package rewrites a
// traj.Raw into the cleanest trajectory consistent with its plausible
// fixes, and reports exactly what it changed so callers can distinguish
// "repaired" from "rejected".
//
// The repair pipeline, in order:
//
//  1. drop structurally invalid samples (invalid lat/lng, zero time);
//  2. restore timestamp order with a stable sort;
//  3. drop duplicate fixes (same timestamp as the previously kept sample);
//  4. drop teleport outliers whose implied speed from the last kept
//     sample exceeds MaxSpeedKmh;
//  5. collapse zero-movement jitter runs to their first and last sample
//     (preserving dwell endpoints, so stay-point detection still works).
//
// The output always satisfies traj.Raw.Validate (FuzzSanitize asserts
// this); when fewer than two samples survive, Sanitize rejects the
// trajectory with an error wrapping ErrUnusable instead.
package sanitize

import (
	"errors"
	"fmt"
	"sort"

	"stmaker/internal/geo"
	"stmaker/internal/traj"
)

// ErrUnusable is wrapped by Sanitize when fewer than two samples survive
// repair — the trajectory is rejected, not repaired.
var ErrUnusable = errors.New("sanitize: fewer than 2 usable samples remain")

// The repair thresholds. They are deliberately loose: sanitization
// should remove the physically impossible, not second-guess
// unusual-but-real driving (which is exactly what STMaker wants to
// describe).
const (
	// MaxSpeedKmh is the implied-speed threshold above which a fix
	// counts as a teleport outlier. 300 km/h is beyond any road vehicle
	// yet below the step a multipath jump produces.
	MaxSpeedKmh = 300
	// JitterEpsilonMeters bounds the roaming radius of a zero-movement
	// run; well under typical GPS accuracy so only true parked-antenna
	// jitter collapses, never slow driving.
	JitterEpsilonMeters = 2
	// teleportAnchorResetAfter bounds the damage of a bad anchor: after
	// this many consecutive teleport drops the current sample is
	// accepted as the new anchor (the anchor, not the stream, was
	// probably the outlier).
	teleportAnchorResetAfter = 3
)

// Options configures a Sanitizer. It has no fields: every repair runs,
// at the thresholds above. A caller turns sanitization on by passing
// one (see stmaker.Config.Sanitize).
type Options struct{}

// jitterRadius is JitterEpsilonMeters prepared for the radius test.
var jitterRadius = geo.NewRadius(JitterEpsilonMeters)

// teleportMetresPerSecond is MaxSpeedKmh in metres per second: the
// longest step that a fix dt seconds after its anchor may take is
// dt·teleportMetresPerSecond.
const teleportMetresPerSecond = MaxSpeedKmh / 3.6

// Report counts the repairs applied to one trajectory (or, via Merge,
// to a corpus). A zero report means the input was already clean.
type Report struct {
	// Input and Output are the sample counts before and after repair.
	Input  int `json:"input"`
	Output int `json:"output"`

	// DroppedInvalid counts samples with invalid coordinates (NaN,
	// out-of-range) or a zero timestamp.
	DroppedInvalid int `json:"droppedInvalid,omitempty"`
	// Reordered counts samples whose timestamp decreased relative to
	// their predecessor before the stable sort restored order.
	Reordered int `json:"reordered,omitempty"`
	// DroppedDuplicates counts samples sharing a timestamp with the
	// previously kept sample.
	DroppedDuplicates int `json:"droppedDuplicates,omitempty"`
	// DroppedOutliers counts teleport samples removed by the
	// implied-speed threshold.
	DroppedOutliers int `json:"droppedOutliers,omitempty"`
	// CollapsedJitter counts interior samples removed from
	// zero-movement runs.
	CollapsedJitter int `json:"collapsedJitter,omitempty"`
}

// Repairs returns the total number of repairs applied.
func (r Report) Repairs() int {
	return r.DroppedInvalid + r.Reordered + r.DroppedDuplicates +
		r.DroppedOutliers + r.CollapsedJitter
}

// Clean reports whether no repair was needed.
func (r Report) Clean() bool { return r.Repairs() == 0 }

// Merge accumulates another report into this one (for corpus-level
// aggregation, e.g. stmaker.TrainStats).
func (r *Report) Merge(o Report) {
	r.Input += o.Input
	r.Output += o.Output
	r.DroppedInvalid += o.DroppedInvalid
	r.Reordered += o.Reordered
	r.DroppedDuplicates += o.DroppedDuplicates
	r.DroppedOutliers += o.DroppedOutliers
	r.CollapsedJitter += o.CollapsedJitter
}

// String summarizes the non-zero repair counts, for logs.
func (r Report) String() string {
	return fmt.Sprintf("sanitize: %d->%d samples (invalid %d, reordered %d, duplicate %d, outlier %d, jitter %d)",
		r.Input, r.Output, r.DroppedInvalid, r.Reordered, r.DroppedDuplicates, r.DroppedOutliers, r.CollapsedJitter)
}

// Sanitizer repairs raw trajectories. It is stateless and safe for
// concurrent use.
type Sanitizer struct{}

// New returns a Sanitizer.
func New(Options) *Sanitizer { return &Sanitizer{} }

// Sanitize returns a repaired copy of r together with the repair report.
// The input is never mutated. When fewer than two samples survive, it
// returns a nil trajectory and an error wrapping ErrUnusable; the report
// is still populated so callers can see why the trajectory died.
func (s *Sanitizer) Sanitize(r *traj.Raw) (*traj.Raw, Report, error) {
	var rep Report
	if r == nil {
		return nil, rep, fmt.Errorf("%w (nil trajectory)", ErrUnusable)
	}
	rep.Input = len(r.Samples)

	kept := s.dropInvalid(r.Samples, &rep)
	kept = s.restoreOrder(kept, &rep)
	kept = s.dropDuplicates(kept, &rep)
	kept = s.dropTeleports(kept, &rep)
	kept = s.collapseJitter(kept, &rep)

	rep.Output = len(kept)
	if len(kept) < 2 {
		return nil, rep, fmt.Errorf("%w (trajectory %q: %d of %d samples usable)",
			ErrUnusable, r.ID, len(kept), rep.Input)
	}
	out := &traj.Raw{ID: r.ID, Object: r.Object, Samples: kept}
	return out, rep, nil
}

// dropInvalid copies the valid samples; the copy also guarantees the
// later in-place passes never touch the caller's slice.
func (s *Sanitizer) dropInvalid(in []traj.Sample, rep *Report) []traj.Sample {
	out := make([]traj.Sample, 0, len(in))
	for _, sm := range in {
		if !sm.Pt.Valid() || sm.T.IsZero() {
			rep.DroppedInvalid++
			continue
		}
		out = append(out, sm)
	}
	return out
}

// restoreOrder stable-sorts by timestamp when any sample is out of
// order, counting the inversions it repairs. The stable sort keeps the
// original order of equal timestamps, so duplicate dropping stays
// deterministic.
func (s *Sanitizer) restoreOrder(in []traj.Sample, rep *Report) []traj.Sample {
	outOfOrder := 0
	for i := 1; i < len(in); i++ {
		if in[i].T.Before(in[i-1].T) {
			outOfOrder++
		}
	}
	if outOfOrder == 0 {
		return in
	}
	rep.Reordered = outOfOrder
	sort.SliceStable(in, func(i, j int) bool { return in[i].T.Before(in[j].T) })
	return in
}

// dropDuplicates keeps the first fix of each timestamp. After the sort,
// equal timestamps are adjacent, so one forward pass suffices; the
// result has strictly increasing timestamps, which also protects the
// speed computations downstream from zero-dt divisions.
func (s *Sanitizer) dropDuplicates(in []traj.Sample, rep *Report) []traj.Sample {
	if len(in) == 0 {
		return in
	}
	out := in[:1]
	for _, sm := range in[1:] {
		if sm.T.Equal(out[len(out)-1].T) {
			rep.DroppedDuplicates++
			continue
		}
		out = append(out, sm)
	}
	return out
}

// dropTeleports removes samples whose implied speed from the last kept
// sample exceeds MaxSpeedKmh. A run of teleportAnchorResetAfter
// consecutive drops resets the anchor to the current sample: when
// everything after a fix looks like a teleport, the fix — not the
// stream — was the outlier.
//
// Most steps are far slower than the threshold, and geo.CertainlyNearer
// keeps them without a haversine: it proves the step shorter than
// (1 − 1e-9)·dt·teleportMetresPerSecond, so the implied speed, after the
// rounding of that product, of the division by dt and of the product by
// 3.6 (a few ulps), still lies below MaxSpeedKmh, and the comparison
// below would keep the fix too. Every other step is measured.
func (s *Sanitizer) dropTeleports(in []traj.Sample, rep *Report) []traj.Sample {
	if len(in) == 0 {
		return in
	}
	out := in[:1]
	consecutive := 0
	for _, sm := range in[1:] {
		prev := out[len(out)-1]
		dt := sm.T.Sub(prev.T).Seconds() // > 0 after dedupe
		if !geo.CertainlyNearer(prev.Pt, sm.Pt, dt*teleportMetresPerSecond) &&
			geo.Distance(prev.Pt, sm.Pt)/dt*3.6 > MaxSpeedKmh {
			consecutive++
			rep.DroppedOutliers++
			if consecutive >= teleportAnchorResetAfter {
				// Trust the stream over the anchor: replace it.
				out[len(out)-1] = sm
				consecutive = 0
			}
			continue
		}
		consecutive = 0
		out = append(out, sm)
	}
	return out
}

// collapseJitter removes the interior samples of runs that never leave a
// JitterEpsilonMeters radius of the run's first sample. The run's first
// and last samples survive, preserving the dwell duration that
// stay-point detection (§III-B) reads.
func (s *Sanitizer) collapseJitter(in []traj.Sample, rep *Report) []traj.Sample {
	if len(in) < 3 {
		return in
	}
	out := in[:0]
	i := 0
	for i < len(in) {
		first := geo.NewCentre(in[i].Pt)
		j := i + 1
		for j < len(in) && first.Within(in[j].Pt, jitterRadius) {
			j++
		}
		// [i, j) is one run; keep its endpoints.
		out = append(out, in[i])
		if j-i > 1 {
			out = append(out, in[j-1])
			rep.CollapsedJitter += j - i - 2
		}
		i = j
	}
	return out
}

// Package calibrate rewrites raw trajectories into landmark-based symbolic
// trajectories (§II-A), following the anchor-based calibration approach the
// paper adopts from Su et al. (SIGMOD 2013): landmarks act as anchor
// points, and every landmark the raw trajectory passes within a given
// radius is inserted as a visit at its interpolated passing time.
//
// Calibration makes summarization independent of the sampling strategy:
// two trajectories sampled differently from the same route calibrate to
// the same symbolic trajectory.
package calibrate

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/landmark"
	"stmaker/internal/spatial"
	"stmaker/internal/traj"
)

// ErrTooFewAnchors is returned when a raw trajectory passes fewer than two
// landmarks and therefore yields no usable symbolic trajectory.
var ErrTooFewAnchors = errors.New("calibrate: trajectory passes fewer than 2 landmarks")

// Options configures the calibrator.
type Options struct {
	// RadiusMeters is the maximum distance at which a landmark is
	// considered passed by the trajectory (default 100).
	RadiusMeters float64
	// MinSpacingMeters drops an anchor when it follows the previous kept
	// anchor by less than this along-route distance; 0 keeps all anchors.
	MinSpacingMeters float64
}

func (o Options) withDefaults() Options {
	if o.RadiusMeters <= 0 {
		o.RadiusMeters = 100
	}
	return o
}

// revisitGapRadii is the minimum along-route separation, in anchor radii,
// for two passes of the same landmark to count as distinct visits (a
// loop) rather than duplicate detections of one pass.
const revisitGapRadii = 3

// Calibrator converts raw trajectories to symbolic trajectories against a
// fixed landmark set.
type Calibrator struct {
	set  *landmark.Set
	opts Options
}

// New returns a calibrator over the given landmark set.
func New(set *landmark.Set, opts Options) *Calibrator {
	return &Calibrator{set: set, opts: opts.withDefaults()}
}

// anchor is a candidate landmark passage.
type anchor struct {
	landmarkID int
	along      float64 // metres from trajectory start
	dist       float64 // landmark-to-trajectory distance
	t          time.Time
	rawIndex   int
}

// byAlong orders anchors by along-route position, then landmark ID.
func byAlong(a, b anchor) int {
	if c := cmp.Compare(a.along, b.along); c != 0 {
		return c
	}
	return cmp.Compare(a.landmarkID, b.landmarkID)
}

// scratch is one calibration's working memory: the landmark hits of the
// current raw segment, the anchors, and the anchors regrouped by
// landmark for dedupeAnchors. It is pooled, so a warm Calibrate
// allocates only the symbolic trajectory it returns.
type scratch struct {
	hits    []spatial.Result
	anchors []anchor
	byLm    []anchor
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Calibrate rewrites a raw trajectory into a symbolic trajectory. The
// returned trajectory has Raw set to r. It returns ErrTooFewAnchors when
// fewer than two landmark visits are found.
func (c *Calibrator) Calibrate(r *traj.Raw) (*traj.Symbolic, error) {
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	anchors := c.collectAnchors(sc, r)
	anchors = dedupeAnchors(sc, anchors, revisitGapRadii*c.opts.RadiusMeters)
	anchors = enforceSpacing(anchors, c.opts.MinSpacingMeters)
	if len(anchors) < 2 {
		return nil, ErrTooFewAnchors
	}

	s := &traj.Symbolic{ID: r.ID, Raw: r, Visits: make([]traj.Visit, len(anchors))}
	for i, a := range anchors {
		s.Visits[i] = traj.Visit{Landmark: a.landmarkID, T: a.t, RawIndex: a.rawIndex}
	}
	return s, nil
}

// collectAnchors finds, for every raw polyline segment, the landmarks
// within the calibration radius, and records each hit with its along-route
// position and interpolated passing time. The anchors live in sc.
func (c *Calibrator) collectAnchors(sc *scratch, r *traj.Raw) []anchor {
	anchors := sc.anchors[:0]
	var walked float64
	for i := 0; i+1 < len(r.Samples); i++ {
		a, b := r.Samples[i], r.Samples[i+1]
		segLen := geo.Distance(a.Pt, b.Pt)
		// Landmarks within radius of any point of the segment lie within
		// radius + segLen/2 of its midpoint.
		searchR := c.opts.RadiusMeters + segLen/2
		sc.hits = c.set.AppendWithin(sc.hits[:0], geo.Midpoint(a.Pt, b.Pt), searchR)
		for _, lm := range sc.hits {
			d, t := geo.PointSegmentDistance(lm.Point, a.Pt, b.Pt)
			if d > c.opts.RadiusMeters {
				continue
			}
			passT := a.T
			if dt := b.T.Sub(a.T); dt > 0 {
				passT = a.T.Add(time.Duration(float64(dt) * t))
			}
			anchors = append(anchors, anchor{
				landmarkID: lm.ID,
				along:      walked + segLen*t,
				dist:       d,
				t:          passT,
				rawIndex:   i,
			})
		}
		walked += segLen
	}
	slices.SortFunc(anchors, byAlong)
	sc.anchors = anchors
	return anchors
}

// dedupeAnchors merges repeated detections of the same landmark whose
// along-route positions are within revisitGap, keeping the closest
// detection of each pass. Distinct passes (loops) survive. The result
// overwrites anchors; sc holds the regrouped copy.
func dedupeAnchors(sc *scratch, anchors []anchor, revisitGap float64) []anchor {
	// Group by landmark, then split each group into passes. The stable
	// sort keeps each group in the input's along order.
	byLm := append(sc.byLm[:0], anchors...)
	slices.SortStableFunc(byLm, func(a, b anchor) int { return cmp.Compare(a.landmarkID, b.landmarkID) })
	sc.byLm = byLm
	out := anchors[:0]
	for len(byLm) > 0 {
		n := 1
		for n < len(byLm) && byLm[n].landmarkID == byLm[0].landmarkID {
			n++
		}
		group := byLm[:n]
		byLm = byLm[n:]
		start := 0
		for i := 1; i <= len(group); i++ {
			if i == len(group) || group[i].along-group[i-1].along > revisitGap {
				// [start, i) is one pass; keep the min-distance anchor.
				best := group[start]
				for _, a := range group[start+1 : i] {
					if a.dist < best.dist {
						best = a
					}
				}
				out = append(out, best)
				start = i
			}
		}
	}
	// Passes of one landmark lie more than revisitGap apart, so no two
	// kept anchors tie on (along, landmark) and the order is unique.
	slices.SortFunc(out, byAlong)
	// Finally drop immediate duplicates (same landmark twice in a row).
	final := out[:0]
	for _, a := range out {
		if len(final) > 0 && final[len(final)-1].landmarkID == a.landmarkID {
			continue
		}
		final = append(final, a)
	}
	return final
}

// enforceSpacing drops anchors closer along the route than minSpacing to
// the previously kept anchor. The first and last anchors are always kept
// so the trajectory endpoints remain anchored. It compacts anchors in
// place.
func enforceSpacing(anchors []anchor, minSpacing float64) []anchor {
	if minSpacing <= 0 || len(anchors) <= 2 {
		return anchors
	}
	last := anchors[len(anchors)-1]
	out := anchors[:1]
	for i := 1; i < len(anchors)-1; i++ {
		if anchors[i].along-out[len(out)-1].along >= minSpacing {
			out = append(out, anchors[i])
		}
	}
	if last.along-out[len(out)-1].along < minSpacing && len(out) > 1 {
		// Replace the final kept interior anchor to make room for the end.
		out = out[:len(out)-1]
	}
	return append(out, last)
}

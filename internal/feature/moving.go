package feature

import (
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/traj"
)

// Speed extracts the average speed in km/h of a segment, computed on the
// sample-based trajectory as §III-B prescribes.
type Speed struct{}

// NewSpeed returns the speed extractor.
func NewSpeed() Speed { return Speed{} }

// Descriptor implements Extractor.
func (Speed) Descriptor() Descriptor {
	return Descriptor{Key: KeySpeed, Name: "speed", Class: Moving, Numeric: true}
}

// Extract implements Extractor.
func (Speed) Extract(seg traj.Segment, _ *Context) float64 {
	samples := seg.RawSamples()
	if len(samples) < 2 {
		return 0
	}
	elapsed := samples[len(samples)-1].T.Sub(samples[0].T).Seconds()
	if elapsed <= 0 {
		return 0
	}
	var dist float64
	for i := 1; i < len(samples); i++ {
		dist += geo.Distance(samples[i-1].Pt, samples[i].Pt)
	}
	return dist / elapsed * 3.6
}

// Stay is one detected stay point: a place where the moving object stayed
// within a small radius for a long time (§III-B). It is a by-product of
// StayPoints extraction consumed by the summary templates.
type Stay struct {
	Center   geo.Point
	Start    time.Time
	Duration time.Duration
}

// StayPoints counts the stay points of a segment.
type StayPoints struct {
	// MaxRadiusMeters is the maximum roaming radius of a stay (default 50).
	MaxRadiusMeters float64
	// MinDuration is the minimum dwell time of a stay (default 60s).
	MinDuration time.Duration
}

// NewStayPoints returns a StayPoints extractor with the default thresholds.
func NewStayPoints() StayPoints {
	return StayPoints{MaxRadiusMeters: 50, MinDuration: 60 * time.Second}
}

// Descriptor implements Extractor.
func (StayPoints) Descriptor() Descriptor {
	return Descriptor{Key: KeyStayPoints, Name: "stay points", Class: Moving, Numeric: true}
}

// Extract implements Extractor: the number of stay points of the segment,
// the length of Detect's result, counted without computing centroids.
func (sp StayPoints) Extract(seg traj.Segment, _ *Context) float64 {
	n := 0
	sp.each(seg.RawSamples(), func(int, int) { n++ })
	return float64(n)
}

// Detect returns the stay points of a sample sequence whose timestamps
// never fall, in time order.
func (sp StayPoints) Detect(samples []traj.Sample) []Stay {
	var stays []Stay
	sp.each(samples, func(i, j int) {
		// Centroid of the window.
		var lat, lng float64
		for k := i; k <= j; k++ {
			lat += samples[k].Pt.Lat
			lng += samples[k].Pt.Lng
		}
		n := float64(j - i + 1)
		stays = append(stays, Stay{
			Center:   geo.Point{Lat: lat / n, Lng: lng / n},
			Start:    samples[i].T,
			Duration: samples[j].T.Sub(samples[i].T),
		})
	})
	return stays
}

// each calls stay with the window [i, j] of every stay point of samples,
// in time order. The timestamps of samples must never fall, as
// traj.Raw.Validate requires of every calibrated trajectory.
//
// A window grows from its anchor sample i while every next sample lies
// within maxR of the anchor, and it is a stay when it ends at least minD
// after the anchor. So it is a stay only if it reaches sample k, the
// first sample after i that lies minD after the anchor: a window that
// ends before k ends too soon. One radius test of sample k therefore
// rules out most anchors of a moving trace, where growing the window
// tests every sample up to the first one beyond maxR. Because the
// timestamps never fall, k only moves forward as the anchor does, so
// finding it costs little.
func (sp StayPoints) each(samples []traj.Sample, stay func(i, j int)) {
	maxR := sp.MaxRadiusMeters
	if maxR <= 0 {
		maxR = 50
	}
	minD := sp.MinDuration
	if minD <= 0 {
		minD = 60 * time.Second
	}
	within := geo.NewRadius(maxR)
	k := 0
	for i := 0; i < len(samples); {
		k = max(k, i+1)
		for k < len(samples) && samples[k].T.Sub(samples[i].T) < minD {
			k++
		}
		if k == len(samples) {
			return // no later anchor dwells minD either
		}
		anchor := geo.NewCentre(samples[i].Pt)
		if !anchor.Within(samples[k].Pt, within) {
			i++
			continue
		}
		j := i
		for j+1 < len(samples) && anchor.Within(samples[j+1].Pt, within) {
			j++
		}
		if j > i && samples[j].T.Sub(samples[i].T) >= minD {
			stay(i, j)
			i = j + 1
			continue
		}
		i++
	}
}

// UTurn is one detected sharp directional reversal, a by-product of UTurns
// extraction consumed by the summary templates ("at places of U-turns").
type UTurn struct {
	At geo.Point
	T  time.Time
}

// UTurns counts the U-turns of a segment (§III-B): sharp directional
// changes of the moving object.
type UTurns struct {
	// MinHeadingChangeDeg is the heading reversal threshold (default 150).
	MinHeadingChangeDeg float64
	// MinLegMeters is the minimum movement before and after the turn for
	// headings to be trustworthy (default 20).
	MinLegMeters float64
}

// NewUTurns returns a UTurns extractor with the default thresholds.
func NewUTurns() UTurns {
	return UTurns{MinHeadingChangeDeg: 150, MinLegMeters: 20}
}

// Descriptor implements Extractor.
func (UTurns) Descriptor() Descriptor {
	return Descriptor{Key: KeyUTurns, Name: "U-turns", Class: Moving, Numeric: true}
}

// Extract implements Extractor: the number of U-turns of the segment,
// the length of Detect's result, counted from the previous leg's
// heading alone.
func (ut UTurns) Extract(seg traj.Segment, _ *Context) float64 {
	minTurn, walk := ut.legs(seg.RawSamples())
	n := 0
	prev, _, ok := walk.next()
	for ok {
		heading, _, more := walk.next()
		if more && geo.AngleDiff(prev, heading) >= minTurn {
			n++
		}
		prev, ok = heading, more
	}
	return float64(n)
}

// Detect returns the U-turns of a sample sequence, in time order.
func (ut UTurns) Detect(samples []traj.Sample) []UTurn {
	minTurn, walk := ut.legs(samples)
	type leg struct {
		heading float64
		end     traj.Sample
	}
	var legs []leg
	for heading, end, ok := walk.next(); ok; heading, end, ok = walk.next() {
		legs = append(legs, leg{heading: heading, end: samples[end]})
	}
	var turns []UTurn
	for i := 1; i < len(legs); i++ {
		if geo.AngleDiff(legs[i-1].heading, legs[i].heading) >= minTurn {
			// The reversal happened around the end of the previous leg.
			turns = append(turns, UTurn{At: legs[i-1].end.Pt, T: legs[i-1].end.T})
		}
	}
	return turns
}

// legs returns the heading reversal threshold, with its default, and a
// walk over the movement legs of samples.
func (ut UTurns) legs(samples []traj.Sample) (minTurn float64, w legWalk) {
	minTurn = ut.MinHeadingChangeDeg
	if minTurn <= 0 {
		minTurn = 150
	}
	minLeg := ut.MinLegMeters
	if minLeg <= 0 {
		minLeg = 20
	}
	w = legWalk{samples: samples, minLeg: geo.NewRadius(minLeg)}
	if len(samples) > 0 {
		w.from = geo.NewCentre(samples[0].Pt)
	}
	return minTurn, w
}

// legWalk walks the movement legs of a sample sequence: hops of at least
// minLeg metres, so headings are meaningful even with jittery, dense
// sampling. Each leg starts where the previous one ended.
type legWalk struct {
	samples []traj.Sample
	minLeg  geo.Radius
	from    geo.Centre // the sample the current leg starts at, samples[last]
	last, i int
}

// next returns the heading of the next leg and the index of the sample
// it ends at, or ok false after the last leg.
func (w *legWalk) next() (heading float64, end int, ok bool) {
	for w.i++; w.i < len(w.samples); w.i++ {
		if w.from.AtLeast(w.samples[w.i].Pt, w.minLeg) {
			heading = geo.Bearing(w.samples[w.last].Pt, w.samples[w.i].Pt)
			w.last, w.from = w.i, geo.NewCentre(w.samples[w.i].Pt)
			return heading, w.i, true
		}
	}
	return 0, 0, false
}

// SpeedChange counts sharp speed changes — accelerations or decelerations
// exceeding a threshold between consecutive sampling intervals. It is the
// "SpeC" extension feature that Fig. 10(b) adds to the default six,
// registered through the §VI-B extension mechanism.
type SpeedChange struct {
	// MinDeltaKmh is the speed jump that counts as sharp (default 25).
	MinDeltaKmh float64
}

// NewSpeedChange returns a SpeedChange extractor with the default
// threshold.
func NewSpeedChange() SpeedChange { return SpeedChange{MinDeltaKmh: 25} }

// Descriptor implements Extractor.
func (SpeedChange) Descriptor() Descriptor {
	return Descriptor{Key: KeySpeedChange, Name: "sharp speed changes", Class: Moving, Numeric: true}
}

// Extract implements Extractor: the number of sharp speed changes.
func (sc SpeedChange) Extract(seg traj.Segment, _ *Context) float64 {
	minDelta := sc.MinDeltaKmh
	if minDelta <= 0 {
		minDelta = 25
	}
	samples := seg.RawSamples()
	if len(samples) < 3 {
		return 0
	}
	speeds := make([]float64, 0, len(samples)-1)
	for i := 1; i < len(samples); i++ {
		dt := samples[i].T.Sub(samples[i-1].T).Seconds()
		if dt <= 0 {
			continue
		}
		speeds = append(speeds, geo.Distance(samples[i-1].Pt, samples[i].Pt)/dt*3.6)
	}
	var count float64
	for i := 1; i < len(speeds); i++ {
		if d := speeds[i] - speeds[i-1]; d >= minDelta || d <= -minDelta {
			count++
		}
	}
	return count
}

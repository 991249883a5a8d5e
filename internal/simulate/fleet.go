package simulate

import (
	"fmt"
	"math/rand"
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/roadnet"
	"stmaker/internal/traj"
)

// EventKind labels a ground-truth anomaly injected into a simulated trip.
type EventKind int

// The injected event kinds. The user-study surrogate grades summaries
// against these.
const (
	EventStay EventKind = iota
	EventUTurn
	EventDetour
	EventOverspeed
	EventCongestion
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventStay:
		return "stay"
	case EventUTurn:
		return "u-turn"
	case EventDetour:
		return "detour"
	case EventOverspeed:
		return "overspeed"
	case EventCongestion:
		return "congestion"
	default:
		return fmt.Sprintf("event-%d", int(k))
	}
}

// Event is one injected ground-truth anomaly.
type Event struct {
	Kind     EventKind
	At       geo.Point
	T        time.Time
	Duration time.Duration
}

// Trip is a simulated taxi trip: the raw trajectory plus its ground truth.
type Trip struct {
	Raw   *traj.Raw
	Truth []Event
	// Path is the node sequence the trip was generated along.
	Path []roadnet.NodeID
	// Start is the departure time.
	Start time.Time
}

// FleetOptions configures the taxi-fleet generator.
type FleetOptions struct {
	// NumTrips is the number of trips to generate (default 200).
	NumTrips int
	// Taxis is the fleet size trips are attributed to (default 40).
	Taxis int
	// StartDay anchors departure times (default 2013-11-02 00:00 UTC, the
	// collection period of the paper's dataset).
	StartDay time.Time
	// FixedHour pins every departure to the given hour of day when >= 0;
	// -1 (default via zero value handling below: use -1 explicitly)
	// spreads departures over 24 hours.
	FixedHour float64
	// SampleInterval is the GPS sampling period (default 5s).
	SampleInterval time.Duration
	// MinHops is the minimum number of intersections per trip (default 6).
	MinHops int
	// Seed drives all randomness (default 1).
	Seed int64
	// Calm disables all anomaly injection (stays, U-turns, detours,
	// overspeed), producing regular traffic — useful for training corpora
	// that should capture common behaviour only.
	Calm bool
}

func (o FleetOptions) withDefaults() FleetOptions {
	if o.NumTrips <= 0 {
		o.NumTrips = 200
	}
	if o.Taxis <= 0 {
		o.Taxis = 40
	}
	if o.StartDay.IsZero() {
		o.StartDay = time.Date(2013, 11, 2, 0, 0, 0, 0, time.UTC)
		// A zero FixedHour together with a zero StartDay means the caller
		// set nothing: spread over the day.
	}
	if o.SampleInterval <= 0 {
		o.SampleInterval = 5 * time.Second
	}
	if o.MinHops <= 1 {
		o.MinHops = 6
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// GenerateFleet simulates opts.NumTrips taxi trips over the city.
func GenerateFleet(city *City, opts FleetOptions) []*Trip {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	trips := make([]*Trip, 0, opts.NumTrips)
	for i := 0; i < opts.NumTrips; i++ {
		hour := opts.FixedHour
		if hour < 0 {
			hour = rng.Float64() * 24
		}
		start := opts.StartDay.Add(time.Duration(hour * float64(time.Hour)))
		trip := generateTrip(city, rng, tripParams{
			id:             fmt.Sprintf("trip-%05d", i),
			taxi:           fmt.Sprintf("taxi-%03d", rng.Intn(opts.Taxis)),
			start:          start,
			hour:           hour,
			sampleInterval: opts.SampleInterval,
			minHops:        opts.MinHops,
			calm:           opts.Calm,
		})
		if trip != nil {
			trips = append(trips, trip)
		}
	}
	return trips
}

type tripParams struct {
	id, taxi       string
	start          time.Time
	hour           float64
	sampleInterval time.Duration
	minHops        int
	calm           bool
}

// leg is a contiguous piece of motion (or dwell) at a constant speed.
type leg struct {
	geom     geo.Polyline
	speedKmh float64
	dwell    time.Duration // when > 0, geom is a single stationary point
}

// generateTrip builds one trip; it returns nil when no acceptable path is
// found (rare on a connected grid).
func generateTrip(city *City, rng *rand.Rand, p tripParams) *Trip {
	// Route choice: every trip applies mild per-trip route-preference
	// noise to the travel-time weights, so trips take near-fastest routes
	// while spreading over equal-cost alternatives and covering the
	// network the way a large fleet does. Corridor-level route
	// irregularity comes from detouring drivers below.
	lo, span := 0.85, 0.3
	pref := make([]float64, city.Graph.NumEdges())
	for i := range pref {
		pref[i] = lo + rng.Float64()*span
	}
	// Detouring drivers (rat-runners dodging congested arterials) divert
	// to side streets for the whole trip — a corridor-level deviation from
	// the popular route, which routes along the high-grade roads.
	detour := !p.calm && rng.Float64() < DetourProbability(p.hour)
	weight := func(e *roadnet.Edge, rev bool) float64 {
		w := roadnet.ByTravelTime(e, rev) * pref[e.ID]
		if detour && e.Grade <= roadnet.GradeNational {
			w *= 2.2
		}
		return w
	}
	path := pickPath(city, rng, p.minHops, weight)
	if path == nil {
		return nil
	}

	trip := &Trip{Start: p.start}
	var legs []leg

	if detour {
		mid := len(path.Steps) / 2
		trip.Truth = append(trip.Truth, Event{
			Kind: EventDetour,
			At:   city.Graph.Node(path.Steps[mid].From).Pt,
			T:    p.start,
		})
	}

	congestion := CongestionFactor(p.hour)
	uturnPlanned := !p.calm && rng.Float64() < UTurnProbability(p.hour)
	uturnStep := -1
	if uturnPlanned && len(path.Steps) > 1 {
		uturnStep = 1 + rng.Intn(len(path.Steps)-1)
	}
	overspeedStep := -1
	if !p.calm && rng.Float64() < OverspeedProbability(p.hour) {
		overspeedStep = rng.Intn(len(path.Steps))
	}

	elapsedGuess := p.start
	for si, step := range path.Steps {
		geom := roadnet.EdgeGeometry(step.Edge, step.Reverse)
		speed := step.Edge.SpeedLimit() * congestion * (0.85 + rng.Float64()*0.3)
		if si == overspeedStep {
			speed = step.Edge.SpeedLimit() * (1.35 + rng.Float64()*0.25)
			trip.Truth = append(trip.Truth, Event{
				Kind: EventOverspeed,
				At:   geom.PointAt(geom.Length() / 2),
				T:    elapsedGuess,
			})
		}
		if si == uturnStep {
			legs = append(legs, uturnLegs(geom, speed, trip, elapsedGuess)...)
		} else {
			legs = append(legs, leg{geom: geom, speedKmh: speed})
		}
		elapsedGuess = elapsedGuess.Add(time.Duration(geom.Length() / (speed / 3.6) * float64(time.Second)))

		// Dwell at the intersection after the edge.
		if !p.calm && rng.Float64() < StayProbability(p.hour) {
			dwell := time.Duration(60+rng.Intn(180)) * time.Second
			at := geom[len(geom)-1]
			legs = append(legs, leg{geom: geo.Polyline{at}, dwell: dwell})
			trip.Truth = append(trip.Truth, Event{
				Kind: EventStay, At: at, T: elapsedGuess, Duration: dwell,
			})
			elapsedGuess = elapsedGuess.Add(dwell)
		}
	}

	raw := driveLegs(p.id, p.taxi, p.start, legs, p.sampleInterval, rng)
	if len(raw.Samples) < 2 {
		return nil
	}
	trip.Raw = raw
	trip.Path = path.NodeIDs(path.Steps[0].From)
	return trip
}

// pickPath selects random endpoints (biased toward activity centres) and
// routes between them under the given weight, retrying until the path has
// enough hops.
func pickPath(city *City, rng *rand.Rand, minHops int, weight roadnet.WeightFunc) *roadnet.Path {
	for attempt := 0; attempt < 10; attempt++ {
		src := pickEndpoint(city, rng)
		dst := pickEndpoint(city, rng)
		if src == dst {
			continue
		}
		path, err := city.Graph.ShortestPath(src, dst, weight)
		if err != nil || len(path.Steps) < minHops {
			continue
		}
		return path
	}
	return nil
}

// pickEndpoint returns a random intersection, half the time snapped to the
// one nearest a random activity centre.
func pickEndpoint(city *City, rng *rand.Rand) roadnet.NodeID {
	if len(city.Centers) > 0 && rng.Float64() < 0.5 {
		centre := city.Centers[rng.Intn(len(city.Centers))]
		if id, ok := city.Graph.NearestNode(centre); ok {
			return id
		}
	}
	return city.RandomNode(rng)
}

// uturnLegs splits an edge traversal into forward, reverse and resume legs
// around a U-turn, and records the event.
func uturnLegs(geom geo.Polyline, speed float64, trip *Trip, at time.Time) []leg {
	length := geom.Length()
	if length < 300 {
		return []leg{{geom: geom, speedKmh: speed}}
	}
	turnAt := length * 0.6
	back := 120.0
	fwd := subPolyline(geom, 0, turnAt)
	rev := reverse(subPolyline(geom, turnAt-back, turnAt))
	resume := subPolyline(geom, turnAt-back, length)
	trip.Truth = append(trip.Truth, Event{
		Kind: EventUTurn,
		At:   geom.PointAt(turnAt),
		T:    at,
	})
	return []leg{
		{geom: fwd, speedKmh: speed},
		{geom: rev, speedKmh: speed * 0.8},
		{geom: resume, speedKmh: speed},
	}
}

// subPolyline extracts the piece of pl between the two along-distances.
func subPolyline(pl geo.Polyline, from, to float64) geo.Polyline {
	if to < from {
		from, to = to, from
	}
	out := geo.Polyline{pl.PointAt(from)}
	var walked float64
	for i := 1; i < len(pl); i++ {
		walked += geo.Distance(pl[i-1], pl[i])
		if walked > from && walked < to {
			out = append(out, pl[i])
		}
	}
	out = append(out, pl.PointAt(to))
	return out
}

func reverse(pl geo.Polyline) geo.Polyline {
	out := make(geo.Polyline, len(pl))
	for i, p := range pl {
		out[len(out)-1-i] = p
	}
	return out
}

// driveLegs walks the legs at one-second resolution and emits a GPS sample
// every sampleInterval, with a metre or two of position jitter.
func driveLegs(id, taxi string, start time.Time, legs []leg, sampleInterval time.Duration, rng *rand.Rand) *traj.Raw {
	raw := &traj.Raw{ID: id, Object: taxi}
	now := start
	nextSample := start
	emit := func(p geo.Point, t time.Time) {
		jittered := geo.Destination(p, rng.Float64()*360, rng.Float64()*2)
		raw.Samples = append(raw.Samples, traj.Sample{Pt: jittered, T: t})
	}
	for _, lg := range legs {
		if lg.dwell > 0 {
			end := now.Add(lg.dwell)
			for !now.After(end) {
				if !now.Before(nextSample) {
					emit(lg.geom[0], now)
					nextSample = now.Add(sampleInterval)
				}
				now = now.Add(time.Second)
			}
			continue
		}
		length := lg.geom.Length()
		if length == 0 || lg.speedKmh <= 0 { //lint:allow floateq -- degenerate zero-length geometry guard
			continue
		}
		mps := lg.speedKmh / 3.6
		for travelled := 0.0; travelled < length; travelled += mps {
			if !now.Before(nextSample) {
				emit(lg.geom.PointAt(travelled), now)
				nextSample = now.Add(sampleInterval)
			}
			now = now.Add(time.Second)
		}
	}
	// Always close with the final position.
	if len(legs) > 0 {
		last := legs[len(legs)-1]
		emit(last.geom[len(last.geom)-1], now)
	}
	return raw
}

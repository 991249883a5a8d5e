// Package landmark builds and queries the landmark dataset STMaker relies
// on (Def. 2): stable geographic points that are independent of any
// trajectory. Following the paper's experiment setup (§VII-A), landmarks
// come from two sources — turning points of the road network, and the
// centres of DBSCAN clusters of a raw POI dataset — and each landmark
// carries a significance score l.s inferred with a HITS-like algorithm
// over traveller visits (§IV-B).
package landmark

import (
	"fmt"
	"sort"

	"stmaker/internal/dbscan"
	"stmaker/internal/geo"
	"stmaker/internal/hits"
	"stmaker/internal/spatial"
)

// Kind distinguishes the two landmark sources.
type Kind int

const (
	// KindTurningPoint is a sharp turn of the road network.
	KindTurningPoint Kind = iota
	// KindPOI is the centre of a POI cluster.
	KindPOI
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == KindPOI {
		return "poi"
	}
	return "turning-point"
}

// Landmark is a stable semantic location (Def. 2).
type Landmark struct {
	ID   int
	Name string
	Pt   geo.Point
	Kind Kind
	// Significance is l.s, the familiarity of the landmark to average
	// people, inferred by the HITS-like algorithm. Scores are relative;
	// the set normalizes them to [0,1] with the maximum at 1.
	Significance float64
}

// POI is one raw point of interest prior to clustering.
type POI struct {
	Name string
	Pt   geo.Point
}

// Set is an immutable collection of landmarks with spatial indexing.
type Set struct {
	landmarks []Landmark
	ix        *spatial.Index
}

// NewSet builds a set from prepared landmarks, assigning sequential IDs
// (any existing IDs are overwritten).
func NewSet(landmarks []Landmark) *Set {
	s := &Set{landmarks: make([]Landmark, len(landmarks))}
	copy(s.landmarks, landmarks)
	items := make([]spatial.Item, len(landmarks))
	for i := range s.landmarks {
		s.landmarks[i].ID = i
		items[i] = spatial.Item{ID: i, Point: s.landmarks[i].Pt}
	}
	s.ix = spatial.NewIndex(300, items)
	return s
}

// BuildOptions configures Build.
type BuildOptions struct {
	// ClusterEpsMeters is the DBSCAN radius for POI clustering
	// (default 150 m).
	ClusterEpsMeters float64
	// ClusterMinPts is the DBSCAN density threshold (default 3).
	ClusterMinPts int
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.ClusterEpsMeters <= 0 {
		o.ClusterEpsMeters = 150
	}
	if o.ClusterMinPts <= 0 {
		o.ClusterMinPts = 3
	}
	return o
}

// Build constructs the landmark dataset from its two sources. POIs are
// clustered with DBSCAN and each cluster contributes its geometric centre,
// named after the POI nearest to that centre; noise POIs are dropped.
// Turning points are added as-is.
func Build(turningPoints []Landmark, pois []POI, opts BuildOptions) *Set {
	opts = opts.withDefaults()
	all := make([]Landmark, 0, len(turningPoints))
	for _, tp := range turningPoints {
		tp.Kind = KindTurningPoint
		if tp.Name == "" {
			tp.Name = fmt.Sprintf("turning point %d", len(all))
		}
		all = append(all, tp)
	}

	pts := make([]geo.Point, len(pois))
	for i, p := range pois {
		pts[i] = p.Pt
	}
	res := dbscan.Cluster(pts, opts.ClusterEpsMeters, opts.ClusterMinPts)
	centres := dbscan.Centroids(pts, res)
	for c, centre := range centres {
		// Name the cluster after its POI closest to the centre.
		bestName := ""
		bestD := -1.0
		for i, lbl := range res.Labels {
			if lbl != c {
				continue
			}
			d := geo.Distance(pois[i].Pt, centre)
			if bestD < 0 || d < bestD {
				bestD, bestName = d, pois[i].Name
			}
		}
		if bestName == "" {
			bestName = fmt.Sprintf("poi cluster %d", c)
		}
		all = append(all, Landmark{Name: bestName, Pt: centre, Kind: KindPOI})
	}
	return NewSet(all)
}

// Len returns the number of landmarks.
func (s *Set) Len() int { return len(s.landmarks) }

// Get returns the landmark with the given id.
func (s *Set) Get(id int) Landmark { return s.landmarks[id] }

// All returns the landmark slice. Callers must not mutate it.
func (s *Set) All() []Landmark { return s.landmarks }

// Nearest returns the landmark closest to p within maxDist metres.
func (s *Set) Nearest(p geo.Point, maxDist float64) (Landmark, bool) {
	r, ok := s.ix.Nearest(p, maxDist)
	if !ok {
		return Landmark{}, false
	}
	return s.landmarks[r.ID], true
}

// AppendWithin appends the landmarks within radius metres of p to dst,
// nearest first, and returns the extended slice. Each hit carries the
// landmark's ID, point and distance; Get returns the rest. With a
// reused dst, the query allocates nothing.
func (s *Set) AppendWithin(dst []spatial.Result, p geo.Point, radius float64) []spatial.Result {
	return s.ix.AppendWithin(dst, p, radius)
}

// InferSignificance runs the HITS-like inference (§IV-B) over the given
// traveller→landmark visits and stores the resulting scores, rescaled so
// the most significant landmark has score 1.
func (s *Set) InferSignificance(numTravellers int, visits []hits.Visit, opts hits.Options) {
	scores := hits.Run(numTravellers, len(s.landmarks), visits, opts)
	maxScore := 0.0
	for _, v := range scores.LandmarkHub {
		if v > maxScore {
			maxScore = v
		}
	}
	if maxScore == 0 { //lint:allow floateq -- division-by-zero guard: only exact zero is unsafe
		return
	}
	for i := range s.landmarks {
		s.landmarks[i].Significance = scores.LandmarkHub[i] / maxScore
	}
}

// RankBySignificance returns all landmark ids sorted by descending
// significance (ties broken by id for determinism).
func (s *Set) RankBySignificance() []int {
	ids := make([]int, len(s.landmarks))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		la, lb := s.landmarks[ids[a]], s.landmarks[ids[b]]
		if la.Significance != lb.Significance { //lint:allow floateq -- sort comparator: exact tie-break on equal keys is intended
			return la.Significance > lb.Significance
		}
		return ids[a] < ids[b]
	})
	return ids
}

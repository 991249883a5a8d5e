// Package dbscan implements the DBSCAN density-based clustering algorithm
// of Ester, Kriegel, Sander and Xu (KDD 1996). STMaker uses it to cluster a
// raw POI dataset into landmark clusters, exactly as the paper's experiment
// setup does (§VII-A).
package dbscan

import (
	"stmaker/internal/geo"
	"stmaker/internal/spatial"
)

// Noise is the cluster label assigned to points that belong to no cluster.
const Noise = -1

// Result holds the output of a clustering run.
type Result struct {
	// Labels[i] is the cluster id of input point i, or Noise.
	Labels []int
	// NumClusters is the number of clusters found (cluster ids are
	// 0..NumClusters-1).
	NumClusters int
}

// Cluster runs DBSCAN over the points with the given eps radius (metres)
// and minPts density threshold. A point is a core point if at least minPts
// points (including itself) lie within eps of it.
func Cluster(points []geo.Point, eps float64, minPts int) Result {
	n := len(points)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	if n == 0 || eps <= 0 || minPts <= 0 {
		return Result{Labels: labels}
	}

	items := make([]spatial.Item, n)
	for i, p := range points {
		items[i] = spatial.Item{ID: i, Point: p}
	}
	ix := spatial.NewIndex(eps, items)
	// hits is reused by every neighbourhood query; a query's IDs are
	// appended to the caller's list before the next one runs.
	var hits []spatial.Result
	appendNeighbours := func(ids []int, i int) []int {
		hits = ix.AppendWithin(hits[:0], points[i], eps)
		for _, h := range hits {
			ids = append(ids, h.ID)
		}
		return ids
	}

	visited := make([]bool, n)
	next := 0
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		seeds := appendNeighbours(nil, i)
		if len(seeds) < minPts {
			continue // noise (may be claimed as a border point later)
		}
		cid := next
		next++
		labels[i] = cid
		// Expand the cluster breadth-first from the seed set.
		for k := 0; k < len(seeds); k++ {
			j := seeds[k]
			if labels[j] == Noise {
				labels[j] = cid
			}
			if visited[j] {
				continue
			}
			visited[j] = true
			// j's neighbourhood joins the seeds only when j is a core
			// point; otherwise it is cut off again.
			base := len(seeds)
			if seeds = appendNeighbours(seeds, j); len(seeds)-base < minPts {
				seeds = seeds[:base]
			}
		}
	}
	return Result{Labels: labels, NumClusters: next}
}

// Centroids returns the geometric centre of each cluster in the result.
// Noise points are ignored. The returned slice has length NumClusters.
func Centroids(points []geo.Point, r Result) []geo.Point {
	sumLat := make([]float64, r.NumClusters)
	sumLng := make([]float64, r.NumClusters)
	count := make([]int, r.NumClusters)
	for i, lbl := range r.Labels {
		if lbl == Noise {
			continue
		}
		sumLat[lbl] += points[i].Lat
		sumLng[lbl] += points[i].Lng
		count[lbl]++
	}
	out := make([]geo.Point, r.NumClusters)
	for c := 0; c < r.NumClusters; c++ {
		if count[c] > 0 {
			out[c] = geo.Point{Lat: sumLat[c] / float64(count[c]), Lng: sumLng[c] / float64(count[c])}
		}
	}
	return out
}

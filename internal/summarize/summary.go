// Package summarize turns partitioned trajectories into short text. It
// implements feature selection by irregular rate (§V) and summary
// construction from phrase and sentence templates (§VI-A), including the
// extension hook for custom features (§VI-B).
package summarize

import (
	"time"

	"stmaker/internal/feature"
	"stmaker/internal/partition"
)

// SelectedFeature is one feature chosen for description in a partition,
// together with everything the templates need to realize it.
type SelectedFeature struct {
	// Key and Name identify the feature (e.g. "Spe", "speed").
	Key  string
	Name string
	// Class says whether the feature is routing or moving.
	Class feature.Class
	// Numeric mirrors the feature descriptor.
	Numeric bool
	// Rate is the irregular rate Γf(TP) that got the feature selected.
	Rate float64
	// Value is the partition-level feature value: the mean over segments
	// for numeric features, the mode for categorical ones.
	Value float64
	// Regular is the value's historical counterpart (mean or mode of the
	// regular values), letting templates phrase comparisons such as
	// "14 km/h slower than usual". HasRegular is false when history has
	// no data for the partition's route.
	Regular    float64
	HasRegular bool

	// By-products of feature extraction (§VI-A) consumed by templates.
	Stays     []feature.Stay  // for the stay-points feature
	StayAt    []string        // landmark names near each stay point
	UTurns    []feature.UTurn // for the U-turns feature
	UTurnAt   []string        // landmark names near each U-turn
	RoadName  string          // dominant road name of the partition
	TotalStay time.Duration   // summed stay duration
}

// PartSummary is the summarized form of one trajectory partition.
type PartSummary struct {
	// Part is the segment range.
	Part partition.Part
	// Source and Dest are the landmark ids at the partition ends.
	Source, Dest int
	// SourceName and DestName are their display names.
	SourceName, DestName string
	// RoadType is the dominant grade's display name ("highway"), used by
	// the sentence templates; empty when the partition is unmatched.
	RoadType string
	// RoadName is the dominant road name, empty when unnamed.
	RoadName string
	// Features are the selected features, most irregular first.
	Features []SelectedFeature
	// Text is the rendered sentence for this partition.
	Text string
}

// Summary is the final text summary of a trajectory.
type Summary struct {
	// TrajectoryID identifies the summarized trajectory.
	TrajectoryID string
	// Parts holds one entry per trajectory partition, in travel order.
	Parts []PartSummary
	// Text is the full summary paragraph.
	Text string
}

// MentionsFeature reports whether any partition describes the feature.
func (s *Summary) MentionsFeature(key string) bool {
	for _, p := range s.Parts {
		for _, f := range p.Features {
			if f.Key == key {
				return true
			}
		}
	}
	return false
}

// LandmarkIDs returns the distinct landmark ids mentioned as partition
// endpoints, in order of first appearance.
func (s *Summary) LandmarkIDs() []int {
	seen := make(map[int]bool)
	var out []int
	add := func(id int) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, p := range s.Parts {
		add(p.Source)
		add(p.Dest)
	}
	return out
}

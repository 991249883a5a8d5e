package summarize

import (
	"strings"
	"testing"
	"time"

	"stmaker/internal/feature"
	"stmaker/internal/geo"
)

func TestDisplayName(t *testing.T) {
	cases := map[string]string{
		"Daoxiang Community": "the Daoxiang Community",
		"the Times Square":   "the Times Square",
		"A Big Mall":         "A Big Mall",
		"":                   "an unnamed place",
	}
	for in, want := range cases {
		if got := displayName(in); got != want {
			t.Errorf("displayName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNumberWordAndPlural(t *testing.T) {
	if numberWord(2) != "two" || numberWord(0) != "zero" || numberWord(15) != "15" {
		t.Error("numberWord wrong")
	}
	if plural(1, "U-turn", "U-turns") != "U-turn" || plural(3, "U-turn", "U-turns") != "U-turns" {
		t.Error("plural wrong")
	}
}

func TestJoinAnd(t *testing.T) {
	if joinAnd(nil) != "" {
		t.Error("empty join")
	}
	if got := joinAnd([]string{"a"}); got != "a" {
		t.Errorf("single join = %q", got)
	}
	if got := joinAnd([]string{"a", "b", "c"}); got != "a, b and c" {
		t.Errorf("triple join = %q", got)
	}
}

func TestHumanDuration(t *testing.T) {
	if got := humanDuration(167 * time.Second); got != "167 seconds" {
		t.Errorf("167s = %q", got)
	}
	if got := humanDuration(1 * time.Second); got != "1 second" {
		t.Errorf("1s = %q", got)
	}
	if got := humanDuration(20 * time.Minute); got != "20 minutes" {
		t.Errorf("20m = %q", got)
	}
}

func TestRenderSpeed(t *testing.T) {
	sf := SelectedFeature{Key: feature.KeySpeed, Value: 56, Regular: 70, HasRegular: true}
	got := renderSpeed(sf)
	if got != "with the speed of 56 km/h which was 14 km/h slower than usual" {
		t.Errorf("slower clause = %q", got)
	}
	sf.Value, sf.Regular = 90, 70
	got = renderSpeed(sf)
	if !strings.Contains(got, "20 km/h faster than usual") {
		t.Errorf("faster clause = %q", got)
	}
	sf.HasRegular = false
	if got := renderSpeed(sf); got != "with the speed of 90 km/h" {
		t.Errorf("no-regular clause = %q", got)
	}
	sf.HasRegular, sf.Regular = true, 90.4
	if got := renderSpeed(sf); strings.Contains(got, "usual") {
		t.Errorf("sub-1 km/h diff should not be phrased: %q", got)
	}
}

func TestRenderGrade(t *testing.T) {
	sf := SelectedFeature{Key: feature.KeyGradeOfRoad, Value: 1, Regular: 3, HasRegular: true, RoadName: "G6"}
	got := renderGrade(sf)
	if got != "through highway (G6) while most drivers choose national road" {
		t.Errorf("grade clause = %q", got)
	}
	sf.HasRegular = false
	sf.RoadName = ""
	if got := renderGrade(sf); got != "through highway" {
		t.Errorf("plain grade = %q", got)
	}
	sf.Value = 0 // unmatched
	if got := renderGrade(sf); got != "" {
		t.Errorf("invalid grade clause = %q", got)
	}
}

func TestRenderWidth(t *testing.T) {
	sf := SelectedFeature{Key: feature.KeyRoadWidth, Value: 7, Regular: 22, HasRegular: true}
	got := renderWidth(sf)
	if got != "through 7-metre-wide roads while most drivers prefer wider roads" {
		t.Errorf("width clause = %q", got)
	}
	sf.Value, sf.Regular = 28, 10
	if got := renderWidth(sf); !strings.Contains(got, "narrower") {
		t.Errorf("narrower clause = %q", got)
	}
	sf.Value = 0
	if got := renderWidth(sf); got != "" {
		t.Errorf("zero width clause = %q", got)
	}
}

func TestRenderDirection(t *testing.T) {
	sf := SelectedFeature{Key: feature.KeyDirection, Value: 2, Regular: 1, HasRegular: true}
	got := renderDirection(sf)
	if got != "along a one-way road while most drivers prefer two-way roads" {
		t.Errorf("direction clause = %q", got)
	}
	sf.Value = 0
	if got := renderDirection(sf); got != "" {
		t.Errorf("invalid direction = %q", got)
	}
}

func TestRenderStays(t *testing.T) {
	sf := SelectedFeature{
		Key:   feature.KeyStayPoints,
		Value: 2,
		Stays: []feature.Stay{
			{Center: geo.Point{}, Duration: 100 * time.Second},
			{Center: geo.Point{}, Duration: 67 * time.Second},
		},
		TotalStay: 167 * time.Second,
	}
	got := renderStays(sf)
	if got != "with two staying points (in total for about 167 seconds)" {
		t.Errorf("stays clause = %q", got)
	}
	none := SelectedFeature{Key: feature.KeyStayPoints, Value: 0}
	if got := renderStays(none); !strings.Contains(got, "no stay points") {
		t.Errorf("no-stays clause = %q", got)
	}
	one := SelectedFeature{Key: feature.KeyStayPoints, Value: 1}
	if got := renderStays(one); !strings.Contains(got, "one staying point") || strings.Contains(got, "points") {
		t.Errorf("one-stay clause = %q", got)
	}
}

func TestRenderUTurns(t *testing.T) {
	sf := SelectedFeature{
		Key:     feature.KeyUTurns,
		Value:   1,
		UTurns:  []feature.UTurn{{At: geo.Point{}}},
		UTurnAt: []string{"Zhichun Road"},
	}
	got := renderUTurns(sf)
	if got != "with conducting one U-turn at the Zhichun Road" {
		t.Errorf("uturn clause = %q", got)
	}
	sf.UTurns = append(sf.UTurns, feature.UTurn{At: geo.Point{}})
	sf.UTurnAt = append(sf.UTurnAt, "Suzhou Street")
	got = renderUTurns(sf)
	if !strings.Contains(got, "two U-turns at the Zhichun Road and the Suzhou Street") {
		t.Errorf("multi uturn clause = %q", got)
	}
	if got := renderUTurns(SelectedFeature{Key: feature.KeyUTurns}); got != "" {
		t.Errorf("zero uturns = %q", got)
	}
}

func TestRenderSpeedChanges(t *testing.T) {
	sf := SelectedFeature{Key: feature.KeySpeedChange, Value: 3}
	if got := renderSpeedChanges(sf); got != "with three sharp speed changes" {
		t.Errorf("spec clause = %q", got)
	}
	if got := renderSpeedChanges(SelectedFeature{}); got != "" {
		t.Errorf("zero spec = %q", got)
	}
}

func TestRenderPartSmoothly(t *testing.T) {
	ts := DefaultTemplates()
	ps := &PartSummary{SourceName: "Suzhou Road", DestName: "Suzhoujie Station"}
	ts.RenderPart(ps, false)
	want := "Then it moved from the Suzhou Road to the Suzhoujie Station smoothly."
	if ps.Text != want {
		t.Errorf("smooth sentence = %q, want %q", ps.Text, want)
	}
}

func TestRenderPartFirstWithFeatures(t *testing.T) {
	ts := DefaultTemplates()
	ps := &PartSummary{
		SourceName: "Daoxiang Community",
		DestName:   "Haidian Hospital",
		RoadType:   "express road",
		Features: []SelectedFeature{
			{Key: feature.KeySpeed, Name: "speed", Numeric: true, Value: 56, Regular: 70, HasRegular: true},
			{Key: feature.KeyStayPoints, Name: "stay points", Value: 2,
				Stays:     []feature.Stay{{Duration: 100 * time.Second}, {Duration: 67 * time.Second}},
				TotalStay: 167 * time.Second},
		},
	}
	ts.RenderPart(ps, true)
	want := "The car started from the Daoxiang Community to the Haidian Hospital through express road, " +
		"with the speed of 56 km/h which was 14 km/h slower than usual and " +
		"with two staying points (in total for about 167 seconds)."
	if ps.Text != want {
		t.Errorf("sentence =\n%q\nwant\n%q", ps.Text, want)
	}
}

func TestRenderPartGradeSuppliesRoadType(t *testing.T) {
	ts := DefaultTemplates()
	ps := &PartSummary{
		SourceName: "A",
		DestName:   "B",
		RoadType:   "highway",
		Features: []SelectedFeature{
			{Key: feature.KeyGradeOfRoad, Value: 1, Regular: 3, HasRegular: true},
		},
	}
	ts.RenderPart(ps, true)
	if strings.Count(ps.Text, "through") != 1 {
		t.Errorf("grade clause should replace the road-type slot: %q", ps.Text)
	}
	if !strings.Contains(ps.Text, "while most drivers choose national road") {
		t.Errorf("missing comparison: %q", ps.Text)
	}
}

func TestRenderSummaryJoinsSentences(t *testing.T) {
	ts := DefaultTemplates()
	s := &Summary{
		TrajectoryID: "t1",
		Parts: []PartSummary{
			{SourceName: "A", DestName: "B"},
			{SourceName: "B", DestName: "C"},
		},
	}
	ts.RenderSummary(s)
	if !strings.HasPrefix(s.Text, "The car started from the A to the B smoothly. Then it moved from the B") {
		t.Errorf("summary = %q", s.Text)
	}
}

// TestRegisterClause registers a custom feature's clause through
// SetClause, the one way to install one.
func TestRegisterClause(t *testing.T) {
	ts := DefaultTemplates()
	if err := ts.SetClause("", renderSpeed); err == nil {
		t.Error("empty key accepted")
	}
	if err := ts.SetClause("X", nil); err == nil {
		t.Error("nil renderer accepted")
	}
	if err := ts.SetClause("Fuel", func(sf SelectedFeature) string {
		return "with unusually high fuel consumption"
	}); err != nil {
		t.Fatal(err)
	}
	if ts.clauses["Fuel"] == nil {
		t.Error("registered clause missing")
	}
	ps := &PartSummary{SourceName: "A", DestName: "B",
		Features: []SelectedFeature{{Key: "Fuel", Rate: 1}}}
	ts.RenderPart(ps, true)
	if !strings.Contains(ps.Text, "fuel consumption") {
		t.Errorf("custom clause not rendered: %q", ps.Text)
	}
}

func TestSummaryHelpers(t *testing.T) {
	s := &Summary{Parts: []PartSummary{
		{Source: 1, Dest: 2, Features: []SelectedFeature{{Key: "Spe"}}},
		{Source: 2, Dest: 5, Features: []SelectedFeature{{Key: "Spe"}, {Key: "Stay"}}},
	}}
	if !s.MentionsFeature("Stay") || s.MentionsFeature("GR") {
		t.Error("MentionsFeature wrong")
	}
	ids := s.LandmarkIDs()
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 5 {
		t.Errorf("LandmarkIDs = %v", ids)
	}
}

func TestRenderStaysWithPlaces(t *testing.T) {
	sf := SelectedFeature{
		Key:   feature.KeyStayPoints,
		Value: 2,
		Stays: []feature.Stay{
			{Duration: 100 * time.Second}, {Duration: 67 * time.Second},
		},
		StayAt:    []string{"Zhichun Road", "Zhichun Road"},
		TotalStay: 167 * time.Second,
	}
	got := renderStays(sf)
	want := "with two staying points near the Zhichun Road (in total for about 167 seconds)"
	if got != want {
		t.Errorf("clause = %q, want %q", got, want)
	}
	// Too many distinct places: suppress the list to stay concise.
	sf.StayAt = []string{"A", "B", "C"}
	if got := renderStays(sf); strings.Contains(got, "near") {
		t.Errorf("three places should be suppressed: %q", got)
	}
}

// RenderPart fills ps.Text with one partition's sentence, the templates
// of Table VI:
//
//	The car moved/started from source to destination through road type,
//	with feature template / Then it moved from source to destination
//	smoothly.
func (ts *TemplateSet) RenderPart(ps *PartSummary, first bool) {
	rs := renderPool.Get().(*renderScratch)
	rs.buf = ts.appendPart(rs.buf[:0], rs, ps, first)
	ps.Text = string(rs.buf)
	renderPool.Put(rs)
}

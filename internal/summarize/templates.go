package summarize

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"stmaker/internal/feature"
	"stmaker/internal/roadnet"
)

// ClauseRenderer realizes one selected feature as a clause of the partition
// sentence, e.g. "with the speed of 56 km/h which was 14 km/h slower than
// usual". An empty return suppresses the clause.
type ClauseRenderer func(sf SelectedFeature) string

// TemplateSet maps feature keys to clause renderers and assembles the
// sentence templates of Table VI. Custom features register their phrase
// templates here (§VI-B step 3).
type TemplateSet struct {
	clauses map[string]ClauseRenderer
}

// DefaultTemplates returns the paper's phrase templates (Table V) for the
// six default features plus the SpeC extension.
func DefaultTemplates() *TemplateSet {
	ts := &TemplateSet{clauses: make(map[string]ClauseRenderer)}
	ts.clauses[feature.KeyGradeOfRoad] = renderGrade
	ts.clauses[feature.KeyRoadWidth] = renderWidth
	ts.clauses[feature.KeyDirection] = renderDirection
	ts.clauses[feature.KeySpeed] = renderSpeed
	ts.clauses[feature.KeyStayPoints] = renderStays
	ts.clauses[feature.KeyUTurns] = renderUTurns
	ts.clauses[feature.KeySpeedChange] = renderSpeedChanges
	return ts
}

// SetClause installs or replaces the phrase template of a feature. It
// overwrites silently, which is what a custom feature that shadows a
// built-in template wants.
func (ts *TemplateSet) SetClause(key string, r ClauseRenderer) error {
	if key == "" || r == nil {
		return fmt.Errorf("summarize: clause must have a key and a renderer")
	}
	ts.clauses[key] = r
	return nil
}

// renderScratch is the reusable realization state: the byte buffer the
// whole summary text is assembled in, the part-boundary marks that slice
// it back into per-partition sentences, and the clause list appendPart
// accumulates per sentence. Pooled so steady-state serving pays one
// allocation per summary — the final string conversion — instead of a
// builder, a clause slice and a parts slice per request.
type renderScratch struct {
	buf     []byte
	marks   []int
	clauses []string
}

var renderPool = sync.Pool{New: func() any { return new(renderScratch) }}

// RenderSummary renders every partition sentence and joins them into the
// final summary text. The sentences are realized into one shared buffer
// and each PartSummary.Text is a slice of the final string, so a
// K-partition summary costs a single string allocation.
func (ts *TemplateSet) RenderSummary(s *Summary) {
	rs := renderPool.Get().(*renderScratch)
	rs.buf, rs.marks = rs.buf[:0], rs.marks[:0]
	for i := range s.Parts {
		if i > 0 {
			rs.buf = append(rs.buf, ' ')
		}
		start := len(rs.buf)
		rs.buf = ts.appendPart(rs.buf, rs, &s.Parts[i], i == 0)
		rs.marks = append(rs.marks, start, len(rs.buf))
	}
	text := string(rs.buf)
	s.Text = text
	for i := range s.Parts {
		s.Parts[i].Text = text[rs.marks[2*i]:rs.marks[2*i+1]]
	}
	renderPool.Put(rs)
}

// appendPart realizes one partition sentence into buf and returns the
// extended buffer. rs supplies the reusable clause list; clause strings
// themselves come from the renderers.
func (ts *TemplateSet) appendPart(buf []byte, rs *renderScratch, ps *PartSummary, first bool) []byte {
	if first {
		buf = append(buf, "The car started from "...)
	} else {
		buf = append(buf, "Then it moved from "...)
	}
	buf = append(buf, displayName(ps.SourceName)...)
	buf = append(buf, " to "...)
	buf = append(buf, displayName(ps.DestName)...)

	// The "through road type" slot: the grade clause supplies it when the
	// grade feature was selected (it carries the historical comparison);
	// otherwise the plain dominant road type fills it.
	clauses := rs.clauses[:0]
	gradeClauseUsed := false
	for _, sf := range ps.Features {
		render, ok := ts.clauses[sf.Key]
		if !ok {
			continue
		}
		clause := render(sf)
		if clause == "" {
			continue
		}
		if sf.Key == feature.KeyGradeOfRoad {
			buf = append(buf, ' ')
			buf = append(buf, clause...)
			gradeClauseUsed = true
			continue
		}
		clauses = append(clauses, clause)
	}
	if !gradeClauseUsed && ps.RoadType != "" {
		buf = append(buf, " through "...)
		buf = append(buf, withRoadName(ps.RoadType, ps.RoadName)...)
	}

	if len(clauses) == 0 && !gradeClauseUsed {
		rs.clauses = clauses
		return append(buf, " smoothly."...)
	}
	for i, c := range clauses {
		if i == 0 {
			buf = append(buf, ", "...)
		} else if i == len(clauses)-1 {
			buf = append(buf, " and "...)
		} else {
			buf = append(buf, ", "...)
		}
		buf = append(buf, c...)
	}
	rs.clauses = clauses[:0]
	return append(buf, '.')
}

// displayNames interns the article-prefixed form of every landmark name
// the corpus mentions. The key set is bounded by the loaded worlds'
// landmark vocabularies, so the cache converges after warm-up and the
// per-summary "the " + name (and ToLower) allocations disappear.
var displayNames sync.Map // string -> string

// displayName article-prefixes a landmark name the way the paper's
// examples do ("the Daoxiang Community").
func displayName(name string) string {
	if name == "" {
		return "an unnamed place"
	}
	if d, ok := displayNames.Load(name); ok {
		return d.(string)
	}
	d := name
	lower := strings.ToLower(name)
	if !strings.HasPrefix(lower, "the ") && !strings.HasPrefix(lower, "a ") && !strings.HasPrefix(lower, "an ") {
		d = "the " + name
	}
	displayNames.Store(name, d)
	return d
}

func withRoadName(roadType, roadName string) string {
	if roadName == "" {
		return roadType
	}
	return roadType + " (" + roadName + ")"
}

// renderGrade: "through given road type (road name) while the most drivers
// choose regular road type" (Table V).
func renderGrade(sf SelectedFeature) string {
	g := roadnet.Grade(math.Round(sf.Value))
	if !g.Valid() {
		return ""
	}
	clause := "through " + withRoadName(g.String(), sf.RoadName)
	if sf.HasRegular {
		if rg := roadnet.Grade(math.Round(sf.Regular)); rg.Valid() && rg != g {
			clause += " while most drivers choose " + rg.String()
		}
	}
	return clause
}

// renderWidth: "through given road width metres wide road while most
// drivers prefer wider/narrower roads" (Table V).
func renderWidth(sf SelectedFeature) string {
	if sf.Value <= 0 {
		return ""
	}
	clause := fmt.Sprintf("through %.0f-metre-wide roads", sf.Value)
	if sf.HasRegular && sf.Regular > 0 {
		if sf.Value < sf.Regular {
			clause += " while most drivers prefer wider roads"
		} else if sf.Value > sf.Regular {
			clause += " while most drivers prefer narrower roads"
		}
	}
	return clause
}

// renderDirection: "through given traffic direction while most drivers
// prefer regular traffic direction" (Table V).
func renderDirection(sf SelectedFeature) string {
	d := roadnet.Direction(math.Round(sf.Value))
	if !d.Valid() {
		return ""
	}
	clause := "along " + d.String()
	if sf.HasRegular {
		if rd := roadnet.Direction(math.Round(sf.Regular)); rd.Valid() && rd != d {
			clause += fmt.Sprintf(" while most drivers prefer %ss", strings.TrimPrefix(rd.String(), "a "))
		}
	}
	return clause
}

// renderSpeed: "with the speed of given speed km/h which was
// |given − regular| km/h faster/slower than usual" (Table V).
func renderSpeed(sf SelectedFeature) string {
	clause := fmt.Sprintf("with the speed of %.0f km/h", sf.Value)
	if sf.HasRegular {
		diff := sf.Value - sf.Regular
		switch {
		case diff >= 1:
			clause += fmt.Sprintf(" which was %.0f km/h faster than usual", diff)
		case diff <= -1:
			clause += fmt.Sprintf(" which was %.0f km/h slower than usual", -diff)
		}
	}
	return clause
}

// renderStays: "with given # stay points stay points (in total for about
// time duration)" (Table V).
func renderStays(sf SelectedFeature) string {
	// Prefer the by-product count, which is exact for the partition; the
	// selected value is a per-segment mean.
	n := len(sf.Stays)
	if n == 0 {
		n = int(math.Round(sf.Value))
	}
	if n <= 0 {
		// Selected because the trip had unusually few stays.
		return "with no stay points though drivers usually stop along this road"
	}
	clause := fmt.Sprintf("with %s staying %s", numberWord(n), plural(n, "point", "points"))
	// §VI-A: feature extraction's by-products — where the stays took place
	// and how long they lasted — enrich the phrase.
	places := dedupedPlaces(sf.StayAt)
	if len(places) > 0 && len(places) <= 2 {
		clause += " near " + joinAnd(places)
	}
	if sf.TotalStay > 0 {
		clause += fmt.Sprintf(" (in total for about %s)", humanDuration(sf.TotalStay))
	}
	return clause
}

// renderUTurns: "with conducting # U-turns U-Turns at places of U-turns"
// (Table V).
func renderUTurns(sf SelectedFeature) string {
	n := len(sf.UTurns)
	if n == 0 {
		n = int(math.Round(sf.Value))
	}
	if n <= 0 {
		return ""
	}
	clause := fmt.Sprintf("with conducting %s %s", numberWord(n), plural(n, "U-turn", "U-turns"))
	places := dedupedPlaces(sf.UTurnAt)
	if len(places) > 0 {
		clause += " at " + joinAnd(places)
	}
	return clause
}

// renderSpeedChanges realizes the SpeC extension feature.
func renderSpeedChanges(sf SelectedFeature) string {
	n := int(math.Round(sf.Value))
	if n <= 0 {
		return ""
	}
	return fmt.Sprintf("with %s sharp speed %s", numberWord(n), plural(n, "change", "changes"))
}

// dedupedPlaces turns the raw stay/U-turn location by-products into
// display names, dropping blanks and repeats. Lists are a handful of
// entries at most, so a linear scan beats allocating a set per clause;
// first-mention order is preserved.
func dedupedPlaces(at []string) []string {
	var places []string
outer:
	for i, a := range at {
		if a == "" {
			continue
		}
		for _, prev := range at[:i] {
			if prev == a {
				continue outer
			}
		}
		places = append(places, displayName(a))
	}
	return places
}

// numberWords spells small counts the way the paper's examples do ("two
// staying points", "one U-turn").
var numberWords = [...]string{"zero", "one", "two", "three", "four", "five",
	"six", "seven", "eight", "nine", "ten", "eleven", "twelve"}

func numberWord(n int) string {
	if n >= 0 && n < len(numberWords) {
		return numberWords[n]
	}
	return fmt.Sprintf("%d", n)
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func joinAnd(items []string) string {
	switch len(items) {
	case 0:
		return ""
	case 1:
		return items[0]
	}
	return strings.Join(items[:len(items)-1], ", ") + " and " + items[len(items)-1]
}

// humanDuration phrases a duration as the paper's examples do
// ("167 seconds"), switching to minutes for long stays.
func humanDuration(d time.Duration) string {
	secs := int(math.Round(d.Seconds()))
	if secs < 600 {
		return fmt.Sprintf("%d %s", secs, plural(secs, "second", "seconds"))
	}
	mins := int(math.Round(d.Minutes()))
	return fmt.Sprintf("%d %s", mins, plural(mins, "minute", "minutes"))
}

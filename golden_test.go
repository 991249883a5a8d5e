package stmaker

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"stmaker/internal/feature"
	"stmaker/internal/geo"
	"stmaker/internal/roadnet"
	"stmaker/internal/sanitize"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
	"stmaker/internal/worldio"
)

// goldenPath holds the committed expected summaries. A change that moves
// any of them shows up as a diff of this file: regenerate it with
// `go test -run TestGoldenSummaries -update .` and review that diff.
const goldenPath = "testdata/golden/summaries.json"

var updateGolden = flag.Bool("update", false, "rewrite "+goldenPath+" from the current tree")

// The golden test trips: one eventful fleet draw, departures spread over
// the day, summarized at the optimal partition and at two fixed k.
const (
	goldenFleetSeed = 41
	goldenNumTrips  = 50
)

var goldenKs = []int{0, 2, 3}

type goldenFile struct {
	// InputsSHA256 fingerprints the generated world, training corpus and
	// test trips, so a simulator change fails with its own message
	// instead of surfacing as a summary diff.
	InputsSHA256 string       `json:"inputs_sha256"`
	Cases        []goldenCase `json:"cases"`
}

// goldenCase is one trip summarized by one matcher at one k: the summary
// text and part spans with their selected features, or the error.
type goldenCase struct {
	Trip    string       `json:"trip"`
	Matcher string       `json:"matcher"`
	K       int          `json:"k"`
	Text    string       `json:"text,omitempty"`
	Parts   []goldenPart `json:"parts,omitempty"`
	Error   string       `json:"error,omitempty"`
}

type goldenPart struct {
	FirstSeg int      `json:"first_seg"`
	LastSeg  int      `json:"last_seg"`
	Features []string `json:"features,omitempty"`
}

// TestGoldenSummaries diffs the pipeline's output against summaries
// committed to the repository. Every other byte-identity test compares
// two code paths of the same tree; this one catches a change that moves
// them all alike. The worlds are configured the way stmakerd runs them
// (sanitizing input), once with greedy and once with HMM matching.
func TestGoldenSummaries(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden summaries are recorded and checked on amd64, where CI runs; "+
			"on %s Go may fuse floating-point multiply-adds, which can change a summary", runtime.GOARCH)
	}
	sanitized := func(c *Config) { c.Sanitize = &sanitize.Options{} }
	city, greedy := newWorld(t, sanitized)
	_, hmm := newWorld(t, func(c *Config) { sanitized(c); c.UseHMMMatching = true })
	test := rawCorpus(simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: goldenNumTrips, Seed: goldenFleetSeed, FixedHour: -1,
	}))

	got := goldenFile{InputsSHA256: goldenInputsDigest(t, city, newWorldCorpus(city), test)}
	matchers := []struct {
		name string
		s    *Summarizer
	}{{"greedy", greedy}, {"hmm", hmm}}
	for _, r := range test {
		for _, m := range matchers {
			for _, k := range goldenKs {
				got.Cases = append(got.Cases, goldenSummarize(m.s, m.name, r, k))
			}
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(got.Cases), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if got.InputsSHA256 != want.InputsSHA256 {
		t.Fatalf("generated inputs changed: sha256 %s, golden file recorded %s. The simulator, "+
			"world generation or trip encoding moved, so a summary diff would not isolate the "+
			"pipeline; if that change is intended, regenerate with -update", got.InputsSHA256, want.InputsSHA256)
	}
	if len(got.Cases) != len(want.Cases) {
		t.Fatalf("%d cases, golden file has %d", len(got.Cases), len(want.Cases))
	}
	const maxReported = 5
	diffs := 0
	for i := range got.Cases {
		g, w := mustJSON(t, got.Cases[i]), mustJSON(t, want.Cases[i])
		if g == w {
			continue
		}
		if diffs++; diffs <= maxReported {
			t.Errorf("case %d changed\n got: %s\nwant: %s", i, g, w)
		}
	}
	if diffs > 0 {
		t.Errorf("%d of %d golden cases changed; if intended, regenerate with -update and review the diff",
			diffs, len(got.Cases))
	}
}

func goldenSummarize(s *Summarizer, matcher string, r *traj.Raw, k int) goldenCase {
	c := goldenCase{Trip: r.ID, Matcher: matcher, K: k}
	sum, err := s.SummarizeK(r, k)
	if err != nil {
		c.Error = err.Error()
		return c
	}
	c.Text = sum.Text
	for _, p := range sum.Parts {
		gp := goldenPart{FirstSeg: p.Part.FirstSeg, LastSeg: p.Part.LastSeg}
		for _, f := range p.Features {
			gp.Features = append(gp.Features, f.Key)
		}
		c.Parts = append(c.Parts, gp)
	}
	return c
}

// goldenInputsDigest hashes the world and both trip sets in their worldio
// encoding.
func goldenInputsDigest(t *testing.T, city *simulate.City, train, test []*traj.Raw) string {
	t.Helper()
	var buf bytes.Buffer
	if err := worldio.SaveWorld(&buf, city.Graph, city.Landmarks); err != nil {
		t.Fatal(err)
	}
	if err := worldio.SaveTrips(&buf, train); err != nil {
		t.Fatal(err)
	}
	if err := worldio.SaveTrips(&buf, test); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// matchingGoldenPath holds the committed per-sample matching and
// calibration results below the summaries. The summary golden records
// only text, spans and feature keys, so it can miss a swap between the
// two directions of one road; this file records the edge and landmark
// IDs themselves. Regenerate it with
// `go test -run TestGoldenMatching -update .` and review the diff.
const matchingGoldenPath = "testdata/golden/matching.json"

// The matching golden drives the first goldenMatchTrips trips of the
// golden fleet seed, generated at each of goldenMatchIntervals: 1 Hz
// fixes put many samples at exactly equal distances from two edges,
// where the candidate order decides which edge wins.
const goldenMatchTrips = 20

var goldenMatchIntervals = []time.Duration{time.Second, 15 * time.Second}

type matchingFile struct {
	InputsSHA256 string         `json:"inputs_sha256"`
	Cases        []matchingCase `json:"cases"`
}

// matchingCase is one trip at one sampling interval: per sample, the
// greedy nearest edge within 150 m and the HMM-decoded edge (-1 where
// unmatched), and the trip's calibrated landmark visits or the error.
type matchingCase struct {
	Trip      string        `json:"trip"`
	IntervalS int           `json:"interval_s"`
	Nearest   []int         `json:"nearest"`
	HMM       []int         `json:"hmm"`
	Visits    []goldenVisit `json:"visits,omitempty"`
	Error     string        `json:"error,omitempty"`
}

type goldenVisit struct {
	Landmark int   `json:"landmark"`
	RawIndex int   `json:"raw_index"`
	TUnixNs  int64 `json:"t_unix_ns"`
}

// TestGoldenMatching diffs greedy matching, HMM matching and calibration
// against IDs committed to the repository, sample by sample, on the
// golden city.
func TestGoldenMatching(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden matches are recorded and checked on amd64, where CI runs; "+
			"on %s Go may fuse floating-point multiply-adds, which can change a match", runtime.GOARCH)
	}
	city := simulate.NewCity(simulate.CityOptions{Rows: 8, Cols: 8, BlockMeters: 500, Seed: 21})
	s, err := New(Config{Graph: city.Graph, Landmarks: city.Landmarks})
	if err != nil {
		t.Fatal(err)
	}
	hmm := roadnet.NewHMMMatcher(city.Graph, roadnet.HMMOptions{})

	var trips [][]*traj.Raw
	for _, iv := range goldenMatchIntervals {
		trips = append(trips, rawCorpus(simulate.GenerateFleet(city, simulate.FleetOptions{
			NumTrips: goldenMatchTrips, Seed: goldenFleetSeed, FixedHour: -1, SampleInterval: iv,
		})))
	}
	got := matchingFile{InputsSHA256: goldenInputsDigest(t, city, trips[0], trips[1])}
	for i, iv := range goldenMatchIntervals {
		for _, r := range trips[i] {
			got.Cases = append(got.Cases, goldenMatch(t, s, hmm, r, int(iv/time.Second)))
		}
	}

	if *updateGolden {
		if err := writeMatchingGolden(matchingGoldenPath, got); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(got.Cases), matchingGoldenPath)
		return
	}

	data, err := os.ReadFile(matchingGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want matchingFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", matchingGoldenPath, err)
	}
	if got.InputsSHA256 != want.InputsSHA256 {
		t.Fatalf("generated inputs changed: sha256 %s, golden file recorded %s; "+
			"if that change is intended, regenerate with -update", got.InputsSHA256, want.InputsSHA256)
	}
	if len(got.Cases) != len(want.Cases) {
		t.Fatalf("%d cases, golden file has %d", len(got.Cases), len(want.Cases))
	}
	diffs := 0
	for i := range got.Cases {
		g, w := got.Cases[i], want.Cases[i]
		if mustJSON(t, g) == mustJSON(t, w) {
			continue
		}
		if diffs++; diffs <= 5 {
			t.Errorf("case %d (%s at %d s) changed: %s", i, w.Trip, w.IntervalS, matchingDiff(g, w))
		}
	}
	if diffs > 0 {
		t.Errorf("%d of %d matching cases changed; if intended, regenerate with -update and review the diff",
			diffs, len(got.Cases))
	}
}

func goldenMatch(t *testing.T, s *Summarizer, hmm *roadnet.HMMMatcher, r *traj.Raw, intervalS int) matchingCase {
	c := matchingCase{Trip: r.ID, IntervalS: intervalS}
	pts := make([]geo.Point, len(r.Samples))
	nearest := make([]roadnet.Match, len(r.Samples))
	found := make([]bool, len(r.Samples))
	for i, smp := range r.Samples {
		pts[i] = smp.Pt
		id := -1
		if nearest[i], found[i] = s.ctx.Matcher.NearestEdge(smp.Pt, 150, nil); found[i] {
			id = int(nearest[i].Edge.ID)
		}
		c.Nearest = append(c.Nearest, id)
	}
	checkHintedMatches(t, s.ctx.Matcher, r.ID, pts, nearest, found)
	for _, m := range hmm.MatchPoints(pts) {
		id := -1
		if m.Edge != nil {
			id = int(m.Edge.ID)
		}
		c.HMM = append(c.HMM, id)
	}
	sym, err := s.Calibrate(r)
	if err != nil {
		c.Error = err.Error()
		return c
	}
	for _, v := range sym.Visits {
		c.Visits = append(c.Visits, goldenVisit{Landmark: v.Landmark, RawIndex: v.RawIndex, TUnixNs: v.T.UnixNano()})
	}
	return c
}

// checkHintedMatches matches pts again, hinting each sample with the
// edge its predecessor matched, once in sample order and once in
// reverse. It fails unless every result equals the unhinted one (want,
// wantOK) bit for bit: the hint may narrow the search, never move a
// match.
func checkHintedMatches(t *testing.T, m *roadnet.Matcher, trip string, pts []geo.Point, want []roadnet.Match, wantOK []bool) {
	t.Helper()
	for _, reverse := range []bool{false, true} {
		var prev *roadnet.Edge
		for j := range pts {
			i := j
			if reverse {
				i = len(pts) - 1 - j
			}
			got, ok := m.NearestEdge(pts[i], 150, prev)
			if ok != wantOK[i] || got.Edge != want[i].Edge ||
				math.Float64bits(got.Distance) != math.Float64bits(want[i].Distance) ||
				math.Float64bits(got.Along) != math.Float64bits(want[i].Along) {
				t.Errorf("%s sample %d (reverse %v): hinted match %s, unhinted %s",
					trip, i, reverse, matchString(got, ok), matchString(want[i], wantOK[i]))
			}
			if ok {
				prev = got.Edge
			}
		}
	}
}

func matchString(m roadnet.Match, ok bool) string {
	if !ok {
		return "none"
	}
	return fmt.Sprintf("edge %d at %v m, %v m along", m.Edge.ID, m.Distance, m.Along)
}

// matchingDiff names the first field and sample where two cases differ.
func matchingDiff(got, want matchingCase) string {
	firstDiff := func(g, w []int) int {
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				return i
			}
		}
		return min(len(g), len(w))
	}
	switch {
	case len(got.Nearest) != len(want.Nearest) || firstDiff(got.Nearest, want.Nearest) < len(want.Nearest):
		i := firstDiff(got.Nearest, want.Nearest)
		return fmt.Sprintf("nearest edge differs from sample %d (%d samples, want %d)", i, len(got.Nearest), len(want.Nearest))
	case len(got.HMM) != len(want.HMM) || firstDiff(got.HMM, want.HMM) < len(want.HMM):
		i := firstDiff(got.HMM, want.HMM)
		return fmt.Sprintf("HMM edge differs from sample %d (%d samples, want %d)", i, len(got.HMM), len(want.HMM))
	case got.Error != want.Error:
		return fmt.Sprintf("calibration error %q, want %q", got.Error, want.Error)
	default:
		return fmt.Sprintf("visits %v, want %v", got.Visits, want.Visits)
	}
}

// writeMatchingGolden writes one case per line, so a diff of the file
// points at the trip that moved.
func writeMatchingGolden(path string, f matchingFile) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\n  \"inputs_sha256\": %q,\n  \"cases\": [\n", f.InputsSHA256)
	for i, c := range f.Cases {
		line, err := json.Marshal(c)
		if err != nil {
			return err
		}
		buf.WriteString("    ")
		buf.Write(line)
		if i < len(f.Cases)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("  ]\n}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// TestMovingExtractMatchesDetect checks that the stay-point and U-turn
// extractors, which count without building the by-product slices, count
// exactly what Detect returns, on every segment of the golden fleet: the
// summaries' 5 s trips and the matching golden's 1 s and 15 s trips,
// each calibrated raw and after the sanitizer. The fleet must hold both
// kinds of event, or the test would compare zeros.
func TestMovingExtractMatchesDetect(t *testing.T) {
	city, s := newWorld(t, func(c *Config) { c.Sanitize = &sanitize.Options{} })
	fleets := [][]*traj.Raw{rawCorpus(simulate.GenerateFleet(city, simulate.FleetOptions{
		NumTrips: goldenNumTrips, Seed: goldenFleetSeed, FixedHour: -1,
	}))}
	for _, iv := range goldenMatchIntervals {
		fleets = append(fleets, rawCorpus(simulate.GenerateFleet(city, simulate.FleetOptions{
			NumTrips: goldenMatchTrips, Seed: goldenFleetSeed, FixedHour: -1, SampleInterval: iv,
		})))
	}
	sp, ut := feature.NewStayPoints(), feature.NewUTurns()
	segments, stays, turns := 0, 0, 0
	for _, fleet := range fleets {
		for _, r := range fleet {
			inputs := []*traj.Raw{r}
			if repaired, _, err := s.sanitizer.Sanitize(r); err == nil {
				inputs = append(inputs, repaired)
			}
			for _, in := range inputs {
				sym, err := s.Calibrate(in)
				if err != nil {
					continue
				}
				for i := 0; i < sym.NumSegments(); i++ {
					seg := sym.Segment(i)
					wantStays := len(sp.Detect(seg.RawSamples()))
					if got := sp.Extract(seg, nil); got != float64(wantStays) {
						t.Fatalf("%s segment %d: StayPoints.Extract = %v, Detect found %d", r.ID, i, got, wantStays)
					}
					wantTurns := len(ut.Detect(seg.RawSamples()))
					if got := ut.Extract(seg, nil); got != float64(wantTurns) {
						t.Fatalf("%s segment %d: UTurns.Extract = %v, Detect found %d", r.ID, i, got, wantTurns)
					}
					segments, stays, turns = segments+1, stays+wantStays, turns+wantTurns
				}
			}
		}
	}
	if stays == 0 || turns == 0 {
		t.Fatalf("%d segments hold %d stays and %d U-turns; the fleet must hold both", segments, stays, turns)
	}
	t.Logf("%d segments, %d stays, %d U-turns", segments, stays, turns)
}

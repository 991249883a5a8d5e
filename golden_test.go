package stmaker

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"

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

package textproc

import (
	"math"
	"testing"
)

func TestTokenize(t *testing.T) {
	toks := Tokenize("The car moved from the Daoxiang Community to the Haidian Hospital, with two staying points.")
	want := []string{"daoxiang", "community", "haidian", "hospital", "two", "staying", "points"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, toks[i], want[i])
		}
	}
}

func TestTokenizeKeepsHyphensAndNumbers(t *testing.T) {
	toks := Tokenize("one U-turn at 56 km/h")
	found := map[string]bool{}
	for _, tok := range toks {
		found[tok] = true
	}
	if !found["u-turn"] || !found["56"] {
		t.Fatalf("tokens = %v", toks)
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("empty tokens = %v", got)
	}
	if got := Tokenize("the a an"); len(got) != 0 {
		t.Fatalf("stop-word-only tokens = %v", got)
	}
}

func docs() []Document {
	return []Document{
		{ID: "1", Text: "The car moved slowly with two staying points near the Hospital."},
		{ID: "2", Text: "The car moved with one U-turn at the Central Avenue."},
		{ID: "3", Text: "The car moved smoothly along the Ring Street."},
		{ID: "4", Text: "The car moved slowly with three staying points near the Hospital."},
		{ID: "5", Text: "Heavy congestion: slow speed and many staying points near the Hospital."},
	}
}

func TestSearch(t *testing.T) {
	ix := NewIndex(docs())
	if len(ix.docs) != 5 {
		t.Fatalf("Len = %d", len(ix.docs))
	}
	hits := ix.Search("staying points")
	if len(hits) != 3 {
		t.Fatalf("hits = %d: %+v", len(hits), hits)
	}
	for _, h := range hits {
		if h.ID == "2" || h.ID == "3" {
			t.Fatalf("unexpected hit %s", h.ID)
		}
	}
	if got := ix.Search("u-turn"); len(got) != 1 || got[0].ID != "2" {
		t.Fatalf("u-turn hits = %+v", got)
	}
	if got := ix.Search("nonexistent"); got != nil {
		t.Fatalf("miss hits = %+v", got)
	}
	if got := ix.Search(""); got != nil {
		t.Fatalf("empty query hits = %+v", got)
	}
	// Conjunctive semantics: both tokens must appear.
	if got := ix.Search("smoothly hospital"); got != nil {
		t.Fatalf("conjunctive miss = %+v", got)
	}
}

func TestSearchRanking(t *testing.T) {
	ix := NewIndex([]Document{
		{ID: "weak", Text: "slow once"},
		{ID: "strong", Text: "slow slow slow everywhere"},
	})
	hits := ix.Search("slow")
	if len(hits) != 2 || hits[0].ID != "strong" {
		t.Fatalf("ranking = %+v", hits)
	}
}

func TestClusterSeparatesTopics(t *testing.T) {
	ix := NewIndex(docs())
	cl := ix.Cluster(3, 50)
	if len(cl.Assign) != 5 {
		t.Fatalf("assign = %v", cl.Assign)
	}
	// The near-duplicate "staying points near the Hospital" docs (0, 3)
	// must share a cluster; with three clusters available, the smooth
	// Ring Street doc (2) and the U-turn doc (1) must sit outside it.
	if cl.Assign[0] != cl.Assign[3] {
		t.Errorf("similar docs split: %v", cl.Assign)
	}
	if cl.Assign[0] == cl.Assign[2] || cl.Assign[0] == cl.Assign[1] {
		t.Errorf("dissimilar docs merged: %v", cl.Assign)
	}
	// Top terms of the staying cluster should surface the topic.
	terms := cl.TopTerms(cl.Assign[0], 5)
	foundTopic := false
	for _, term := range terms {
		if term == "staying" || term == "hospital" || term == "points" {
			foundTopic = true
		}
	}
	if !foundTopic {
		t.Errorf("top terms = %v", terms)
	}
}

func TestClusterEdgeCases(t *testing.T) {
	empty := NewIndex(nil)
	if cl := empty.Cluster(3, 10); len(cl.Assign) != 0 {
		t.Fatalf("empty clustering = %+v", cl)
	}
	ix := NewIndex(docs())
	one := ix.Cluster(0, 10) // k clamps to 1
	for _, c := range one.Assign {
		if c != 0 {
			t.Fatalf("k=1 assign = %v", one.Assign)
		}
	}
	many := ix.Cluster(99, 10) // k clamps to n
	if len(many.Centroids) != 5 {
		t.Fatalf("clamped centroids = %d", len(many.Centroids))
	}
}

func TestClusterDeterministic(t *testing.T) {
	ix := NewIndex(docs())
	a := ix.Cluster(2, 50)
	b := ix.Cluster(2, 50)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("nondeterministic clustering")
		}
	}
}

func TestCategorize(t *testing.T) {
	ix := NewIndex(docs())
	cl := ix.Cluster(2, 50)
	c := cl.Categorize(ix, "many staying points near the Hospital again")
	if c != cl.Assign[0] {
		t.Fatalf("categorized into %d, want the staying cluster %d", c, cl.Assign[0])
	}
	if (&Clustering{}).Categorize(ix, "x") != -1 {
		t.Fatal("empty clustering should return -1")
	}
}

func TestTopTermsBounds(t *testing.T) {
	ix := NewIndex(docs())
	cl := ix.Cluster(2, 50)
	if got := cl.TopTerms(-1, 3); got != nil {
		t.Fatalf("bad cluster terms = %v", got)
	}
	if got := cl.TopTerms(0, 0); got != nil {
		t.Fatalf("zero m terms = %v", got)
	}
	all := cl.TopTerms(0, 9999)
	if len(all) == 0 {
		t.Fatal("no terms at all")
	}
}

func TestVectorizeConsistentWithSearchScores(t *testing.T) {
	ix := NewIndex(docs())
	vocab := ix.Vocabulary()
	v := ix.Vectorize(0, vocab)
	if len(v) != len(vocab) {
		t.Fatalf("vector dims = %d, vocab = %d", len(v), len(vocab))
	}
	var nonzero int
	for _, x := range v {
		if x < 0 {
			t.Fatal("negative tf-idf")
		}
		if x > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("all-zero vector")
	}
}

// Categorize assigns a new text to the nearest cluster centroid, the
// §VI-C text-categorization application. It returns -1 for an empty
// clustering. Only TestCategorize runs it: the application ships no
// categorizer.
func (cl *Clustering) Categorize(ix *Index, text string) int {
	if len(cl.Centroids) == 0 {
		return -1
	}
	counts := make(map[string]int)
	for _, tok := range Tokenize(text) {
		counts[tok]++
	}
	vec := make([]float64, len(cl.Vocab))
	for j, tok := range cl.Vocab {
		n := counts[tok]
		if n == 0 {
			continue
		}
		df := float64(len(ix.postings[tok]))
		vec[j] = float64(n) * (math.Log(float64(len(ix.docs)+1)/(df+1)) + 1)
	}
	best, bestD := 0, math.Inf(1)
	for c := range cl.Centroids {
		if d := sqDist(vec, cl.Centroids[c]); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

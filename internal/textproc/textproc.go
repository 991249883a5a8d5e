// Package textproc applies classic text processing to trajectory
// summaries, realizing §VI-C's observation that once trajectories are
// summarized as text, mature text techniques apply directly: an inverted
// index for summary search, TF-IDF vectorization, k-means clustering (for
// quick traffic overviews of a region/time window) and a nearest-centroid
// categorizer.
package textproc

import (
	"math"
	"sort"
	"strings"
)

// Tokenize lower-cases the text and splits it into word tokens, dropping
// punctuation and a small stop-word list of template glue words.
func Tokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		if !stopWords[tok] {
			tokens = append(tokens, tok)
		}
	}
	for _, r := range strings.ToLower(text) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// stopWords are template glue that carries no discriminative content.
var stopWords = map[string]bool{
	"the": true, "a": true, "an": true, "it": true, "of": true, "to": true,
	"from": true, "then": true, "and": true, "with": true, "was": true,
	"which": true, "while": true, "in": true, "for": true, "at": true,
	"car": true, "moved": true, "started": true, "through": true,
}

// Document is an indexed summary.
type Document struct {
	ID   string
	Text string
}

// Index is an inverted index over summary documents.
type Index struct {
	docs     []Document
	postings map[string][]int // token → doc ordinals
	freqs    []map[string]int // per-doc token counts
}

// NewIndex builds an index over the documents.
func NewIndex(docs []Document) *Index {
	ix := &Index{docs: docs, postings: make(map[string][]int)}
	for i, d := range docs {
		counts := make(map[string]int)
		for _, tok := range Tokenize(d.Text) {
			counts[tok]++
		}
		ix.freqs = append(ix.freqs, counts)
		for tok := range counts {
			ix.postings[tok] = append(ix.postings[tok], i)
		}
	}
	return ix
}

// Search returns the documents containing every query token, ranked by
// summed TF-IDF of the query tokens.
func (ix *Index) Search(query string) []Document {
	tokens := Tokenize(query)
	if len(tokens) == 0 {
		return nil
	}
	// Intersect postings.
	cand := map[int]bool{}
	for i, tok := range tokens {
		docs := ix.postings[tok]
		if len(docs) == 0 {
			return nil
		}
		if i == 0 {
			for _, d := range docs {
				cand[d] = true
			}
			continue
		}
		next := map[int]bool{}
		for _, d := range docs {
			if cand[d] {
				next[d] = true
			}
		}
		cand = next
		if len(cand) == 0 {
			return nil
		}
	}
	type scored struct {
		doc   int
		score float64
	}
	var hits []scored
	for d := range cand {
		var score float64
		for _, tok := range tokens {
			score += ix.tfidf(d, tok)
		}
		hits = append(hits, scored{doc: d, score: score})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].score != hits[j].score { //lint:allow floateq -- sort comparator: exact tie-break on equal keys is intended
			return hits[i].score > hits[j].score
		}
		return hits[i].doc < hits[j].doc
	})
	out := make([]Document, len(hits))
	for i, h := range hits {
		out[i] = ix.docs[h.doc]
	}
	return out
}

// tfidf scores token tok in document d.
func (ix *Index) tfidf(d int, tok string) float64 {
	n := ix.freqs[d][tok]
	if n == 0 {
		return 0
	}
	tf := float64(n)
	df := float64(len(ix.postings[tok]))
	idf := math.Log(float64(len(ix.docs)+1)/(df+1)) + 1
	return tf * idf
}

// Vocabulary returns the indexed tokens in sorted order.
func (ix *Index) Vocabulary() []string {
	out := make([]string, 0, len(ix.postings))
	for tok := range ix.postings {
		out = append(out, tok)
	}
	sort.Strings(out)
	return out
}

// Vectorize returns the TF-IDF vector of document ordinal d over the given
// vocabulary.
func (ix *Index) Vectorize(d int, vocab []string) []float64 {
	out := make([]float64, len(vocab))
	for j, tok := range vocab {
		out[j] = ix.tfidf(d, tok)
	}
	return out
}

// Clustering is the result of k-means over summary vectors.
type Clustering struct {
	// Assign[i] is the cluster of document i.
	Assign []int
	// Centroids are the cluster centres in TF-IDF space.
	Centroids [][]float64
	// Vocab is the vocabulary the vectors are expressed over.
	Vocab []string
	// Iterations is the number of k-means iterations performed.
	Iterations int
}

// Cluster runs deterministic k-means (documents seeded round-robin) over
// the indexed documents. k is clamped to [1, len(docs)].
func (ix *Index) Cluster(k, maxIter int) *Clustering {
	n := len(ix.docs)
	if n == 0 {
		return &Clustering{}
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if maxIter <= 0 {
		maxIter = 20
	}
	vocab := ix.Vocabulary()
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = ix.Vectorize(i, vocab)
	}
	// Deterministic farthest-first seeding: the first seed is document 0,
	// each further seed is the document farthest from its nearest seed.
	seeds := []int{0}
	for len(seeds) < k {
		best, bestD := -1, -1.0
		for i := range vecs {
			nearest := math.Inf(1)
			for _, s := range seeds {
				if d := sqDist(vecs[i], vecs[s]); d < nearest {
					nearest = d
				}
			}
			if nearest > bestD {
				best, bestD = i, nearest
			}
		}
		seeds = append(seeds, best)
	}
	assign := make([]int, n)
	for i := range assign {
		bestC, bestD := 0, math.Inf(1)
		for c, s := range seeds {
			if d := sqDist(vecs[i], vecs[s]); d < bestD {
				bestC, bestD = c, d
			}
		}
		assign[i] = bestC
	}
	centroids := make([][]float64, k)
	iters := 0
	for iter := 0; iter < maxIter; iter++ {
		iters = iter + 1
		// Recompute centroids.
		counts := make([]int, k)
		for c := range centroids {
			centroids[c] = make([]float64, len(vocab))
		}
		for i, c := range assign {
			counts[c]++
			for j, x := range vecs[i] {
				centroids[c][j] += x
			}
		}
		for c := range centroids {
			if counts[c] > 0 {
				for j := range centroids[c] {
					centroids[c][j] /= float64(counts[c])
				}
			}
		}
		// Reassign.
		changed := false
		for i := range vecs {
			best, bestD := assign[i], math.Inf(1)
			for c := range centroids {
				if d := sqDist(vecs[i], centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if best != assign[i] {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return &Clustering{Assign: assign, Centroids: centroids, Vocab: vocab, Iterations: iters}
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// TopTerms returns the m highest-weight vocabulary terms of cluster c —
// the quick "what is happening in this cluster" view of §VI-C.
func (cl *Clustering) TopTerms(c, m int) []string {
	if c < 0 || c >= len(cl.Centroids) || m <= 0 {
		return nil
	}
	type tw struct {
		term string
		w    float64
	}
	terms := make([]tw, len(cl.Vocab))
	for j, t := range cl.Vocab {
		terms[j] = tw{term: t, w: cl.Centroids[c][j]}
	}
	sort.Slice(terms, func(i, j int) bool {
		if terms[i].w != terms[j].w { //lint:allow floateq -- sort comparator: exact tie-break on equal keys is intended
			return terms[i].w > terms[j].w
		}
		return terms[i].term < terms[j].term
	})
	if m > len(terms) {
		m = len(terms)
	}
	out := make([]string, 0, m)
	for _, t := range terms[:m] {
		if t.w > 0 {
			out = append(out, t.term)
		}
	}
	return out
}

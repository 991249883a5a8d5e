package main

import (
	"bytes"
	"encoding/json"
	"math"
)

// Response checking.
//
// A summary response is compared byte for byte with the reference the
// warm-up recorded. The comparison cannot stop there, because the
// service is not bit-deterministic: when a landmark transition is
// missing from history, history.FeatureMap.GlobalMean sums every
// transition's features in Go map order, so the last bits of an
// irregular rate vary between two identical requests. A response that
// differs in bytes is therefore decoded and compared again, requiring
// every string, key and array length to match exactly and every number
// to agree to within relTol. The count of such responses is reported as
// float drift; anything else that differs is a failed request.

// relTol is the relative difference two numbers of equivalent responses
// may show: a few ulps of summation-order drift sit near 1e-16, while any
// change to what a summary says moves its numbers far beyond 1e-9.
const relTol = 1e-9

// verdict classifies a response against its reference.
type verdict int

const (
	same    verdict = iota // identical bytes
	drifted                // equal up to float summation order
	differs                // a real difference: the request failed
)

func compare(got, want []byte) verdict {
	if bytes.Equal(got, want) {
		return same
	}
	var g, w any
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil {
		return differs
	}
	if equivalent(g, w) {
		return drifted
	}
	return differs
}

// equivalent compares two decoded JSON values, numbers within relTol.
func equivalent(a, b any) bool {
	switch a := a.(type) {
	case float64:
		b, ok := b.(float64)
		return ok && math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
	case []any:
		b, ok := b.([]any)
		if !ok || len(a) != len(b) {
			return false
		}
		for i := range a {
			if !equivalent(a[i], b[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		b, ok := b.(map[string]any)
		if !ok || len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if bv, ok := b[k]; !ok || !equivalent(v, bv) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

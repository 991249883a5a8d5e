package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchBody pre-encodes a request body once; the benchmarks measure
// the server, not client-side encoding.
func benchBody(b *testing.B, v any) []byte {
	b.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkServerSummarize measures one POST /summarize through the
// full middleware + handler + pipeline path. allocs/op here is the
// per-request server-side allocation count; the end-to-end figure is
// bench/'s allocs_per_item.
func BenchmarkServerSummarize(b *testing.B) {
	srv, trip := testServer(b)
	body := benchBody(b, SummarizeRequest{Trajectory: trip})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/summarize", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkBatchSummarize measures one 8-item POST /summarize/batch;
// divide by 8 for the per-item cost the batch path amortizes.
func BenchmarkBatchSummarize(b *testing.B) {
	srv, trip := testServer(b)
	items := make([]SummarizeRequest, 8)
	for i := range items {
		items[i] = SummarizeRequest{Trajectory: trip}
	}
	body := benchBody(b, BatchRequest{Items: items})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/summarize/batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"stmaker/internal/geo"
	"stmaker/internal/ingest"
)

// ingestLine is one NDJSON line of a POST /ingest stream: a GPS fix
// ({trip, lat, lng, t, object?}) or an end-of-trip marker ({trip,
// end:true}). The optional region field on the first line routes the
// whole stream when the ?region= query parameter is absent.
type ingestLine struct {
	Trip   string    `json:"trip"`
	Object string    `json:"object,omitempty"`
	Lat    float64   `json:"lat"`
	Lng    float64   `json:"lng"`
	T      time.Time `json:"t"`
	End    bool      `json:"end,omitempty"`
	Region string    `json:"region,omitempty"`
}

// IngestResponse is the POST /ingest reply. Accepted counts fixes that
// were durably logged and buffered — they survive a crash even when the
// stream later fails, so a client retrying a non-2xx response may
// resend the remainder only.
type IngestResponse struct {
	Region   string `json:"region,omitempty"`
	Accepted int    `json:"accepted"`
	Closed   int    `json:"closed"`
	Error    string `json:"error,omitempty"`
}

// maxIngestLineBytes caps one NDJSON line; a single fix is well under
// 1 KiB, so anything near the cap is a malformed stream.
const maxIngestLineBytes = 64 << 10

// handleIngest streams NDJSON GPS fixes into the region's ingester.
// Every fix is appended to the write-ahead log before it counts as
// accepted, and an fsync barrier runs before any response that reports
// accepted work, so a 2xx (and the accepted count of any error reply)
// is a durability acknowledgement. Backpressure surfaces as 429 +
// Retry-After without blocking other routes; a degraded WAL surfaces as
// 503 while reads keep serving.
func (srv *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if srv.opts.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, srv.opts.MaxBodyBytes)
	}
	var (
		ing     *ingest.Ingester
		resp    IngestResponse
		scanner = bufio.NewScanner(r.Body)
		lineNo  int
	)
	scanner.Buffer(make([]byte, 0, 4096), maxIngestLineBytes)
	// fail acknowledges what was already accepted (fsync barrier) and
	// then reports the failure with its counts.
	fail := func(code int, msg string) {
		if ing != nil && resp.Accepted+resp.Closed > 0 {
			if err := ing.Sync(); err != nil {
				code, msg = http.StatusServiceUnavailable, fmt.Sprintf("ingest degraded: %v", err)
				resp.Accepted, resp.Closed = 0, 0
			}
		}
		resp.Error = msg
		w.Header().Set("Content-Type", "application/json")
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		w.WriteHeader(code)
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			srv.logger.Error("ingest error-response encode failed", "error", err)
		}
	}
	for scanner.Scan() {
		lineNo++
		line := bytes.TrimSpace(scanner.Bytes())
		if len(line) == 0 {
			continue
		}
		var l ingestLine
		if err := json.Unmarshal(line, &l); err != nil {
			fail(http.StatusBadRequest, fmt.Sprintf("line %d: %v", lineNo, err))
			return
		}
		if l.Trip == "" {
			fail(http.StatusBadRequest, fmt.Sprintf("line %d: missing trip", lineNo))
			return
		}
		if ing == nil {
			region, err := srv.routeRegion(r.URL.Query().Get("region"), l.Region, &geo.Point{Lat: l.Lat, Lng: l.Lng})
			if err == nil {
				ing, err = srv.ingest.Ingester(region)
			}
			if err != nil {
				fail(statusForError(err), err.Error())
				return
			}
			resp.Region = region
		}
		if l.End {
			if err := ing.CloseTrip(l.Trip); err != nil {
				fail(http.StatusServiceUnavailable, fmt.Sprintf("ingest degraded: %v", err))
				return
			}
			resp.Closed++
			continue
		}
		if l.T.IsZero() {
			fail(http.StatusBadRequest, fmt.Sprintf("line %d: missing t", lineNo))
			return
		}
		err := ing.AddFix(l.Trip, l.Object, geo.Point{Lat: l.Lat, Lng: l.Lng}, l.T)
		switch {
		case errors.Is(err, ingest.ErrBufferFull):
			fail(http.StatusTooManyRequests, "trip buffer full, retry later")
			return
		case err != nil:
			fail(http.StatusServiceUnavailable, fmt.Sprintf("ingest degraded: %v", err))
			return
		}
		resp.Accepted++
	}
	if err := scanner.Err(); err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			fail(http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes; chunk the stream into smaller requests", tooBig.Limit))
		case errors.Is(err, bufio.ErrTooLong):
			fail(http.StatusBadRequest, fmt.Sprintf("line %d exceeds %d bytes", lineNo+1, maxIngestLineBytes))
		default:
			fail(http.StatusBadRequest, fmt.Sprintf("reading stream: %v", err))
		}
		return
	}
	if ing != nil && resp.Accepted+resp.Closed > 0 {
		// The acknowledgement barrier: nothing is reported accepted until
		// it is on stable storage.
		if err := ing.Sync(); err != nil {
			resp.Accepted, resp.Closed = 0, 0
			fail(http.StatusServiceUnavailable, fmt.Sprintf("ingest degraded: %v", err))
			return
		}
	}
	srv.writeJSON(w, resp)
}

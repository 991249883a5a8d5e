package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
)

// Batch summarization: POST /summarize/batch accepts many trajectories
// in one request, decodes them once, fans the items out across a
// bounded worker pool — every item shares the process-wide SP-cache
// working set and pooled pipeline scratch — and streams a JSON array of
// per-item responses in input order. One bad trajectory fails only its
// own slot: its array element carries the same error body the single
// endpoint would have produced, while the neighbouring items succeed.
// docs/API.md documents the wire format.

const (
	// DefaultMaxBatchItems caps the items of one batch request
	// (Options.MaxBatchItems): enough for a whole fleet snapshot while
	// bounding the per-request fan-out state.
	DefaultMaxBatchItems = 1024
	// DefaultMaxItemSamples caps one batch item's trajectory samples:
	// roughly what the single endpoint's 4 MiB body cap holds for one
	// verbose-JSON trajectory, so a batch cannot smuggle in an item the
	// single endpoint would have 413'd. An oversized item fails alone
	// (inline per-item error) without failing the batch.
	DefaultMaxItemSamples = 40000
	// batchBodyFactor scales Options.MaxBodyBytes for the batch
	// endpoint's body cap: a batch legitimately carries many
	// trajectories, but still must not let one client stage unbounded
	// memory.
	batchBodyFactor = 16
)

// Metric names recorded by the batch endpoint. docs/OBSERVABILITY.md
// documents each; keep the two in sync.
const (
	// MetricBatchItems counts batch items processed, success or failure.
	MetricBatchItems = "batch_items_total"
	// MetricBatchItemErrors counts batch items that failed (their array
	// element carries an error body); the batch itself still answers 200.
	MetricBatchItemErrors = "batch_item_errors_total"
)

// BatchRequest is the POST /summarize/batch body: the items to
// summarize plus optional batch-wide defaults.
type BatchRequest struct {
	// Items are the per-trajectory requests, answered in order.
	Items []SummarizeRequest `json:"items"`
	// K is the default partition count for items that leave k unset.
	K int `json:"k,omitempty"`
	// Region is the default region key for items that leave region
	// unset (multi-region mode).
	Region string `json:"region,omitempty"`
}

func (srv *Server) maxBatchItems() int {
	switch {
	case srv.opts.MaxBatchItems > 0:
		return srv.opts.MaxBatchItems
	case srv.opts.MaxBatchItems < 0:
		return int(^uint(0) >> 1)
	default:
		return DefaultMaxBatchItems
	}
}

// handleBatch is POST /summarize/batch. The whole batch occupies one
// in-flight slot of the load shedder however many workers it fans out
// to (GOMAXPROCS, so one batch in flight keeps every core busy). The
// response is a JSON array with
// exactly one element per item, streamed in input order as items
// complete, so the client starts reading while the tail of the batch is
// still being computed.
func (srv *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req BatchRequest
	if !srv.decodeBody(w, r, srv.opts.MaxBodyBytes*batchBodyFactor, func(body []byte) error {
		return decodeBatchRequest(body, &req)
	}) {
		return
	}
	if len(req.Items) == 0 {
		srv.writeError(w, http.StatusBadRequest, "empty batch: items is required")
		return
	}
	if max := srv.maxBatchItems(); len(req.Items) > max {
		srv.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d items exceeds the %d-item limit", len(req.Items), max))
		return
	}
	srv.runBatch(r.Context(), w, &req)
}

// runBatch fans the items across the worker pool and streams the
// response array. Items are computed greedily in index order but
// complete out of order; the writer goroutine is the request handler
// itself, emitting element i as soon as it is ready so transfer
// overlaps compute. A client disconnect cancels ctx, which the
// per-item pipelines observe between stages, so abandoned batches
// drain quickly instead of running to completion.
func (srv *Server) runBatch(ctx context.Context, w http.ResponseWriter, req *BatchRequest) {
	items := req.Items
	n := len(items)
	results := make([]SummarizeResponse, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	for wk := 0; wk < workers; wk++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i] = srv.batchItem(ctx, &items[i], req.K, req.Region)
				close(ready[i])
			}
		}()
	}

	itemsTotal := srv.mx.Counter(MetricBatchItems)
	itemErrors := srv.mx.Counter(MetricBatchItemErrors)
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write([]byte("[")); err != nil {
		srv.encodeFailed(err)
		// The wire is gone; keep draining ready so the workers finish
		// against the cancelled ctx without blocking on anything.
	}
	for i := 0; i < n; i++ {
		<-ready[i]
		itemsTotal.Inc()
		if results[i].Error != "" {
			itemErrors.Inc()
		}
		if i > 0 {
			if _, err := w.Write([]byte(",")); err != nil {
				srv.encodeFailed(err)
				continue
			}
		}
		srv.writeBatchItem(w, &results[i])
	}
	if _, err := w.Write([]byte("]\n")); err != nil {
		srv.encodeFailed(err)
	}
}

// writeBatchItem encodes one array element through the pooled encode
// buffer. Element bytes are exactly the single endpoint's response body
// (minus its trailing newline) for the same trajectory —
// TestBatchMatchesSingleByteForByte pins this.
func (srv *Server) writeBatchItem(w http.ResponseWriter, resp *SummarizeResponse) {
	eb := encPool.Get().(*encodeBuf)
	defer encPool.Put(eb)
	data := []byte(`{"id":"","text":"","parts":null,"error":"response encoding failed"}`)
	if err := eb.encode(resp); err != nil {
		// Unreachable for this response shape, but an array element must
		// still be emitted to keep the response well-formed.
		srv.encodeFailed(err)
	} else {
		data = bytes.TrimSuffix(eb.buf.Bytes(), []byte("\n"))
	}
	if _, err := w.Write(data); err != nil {
		srv.encodeFailed(err)
	}
}

// batchItem applies the batch-wide defaults and runs one item through
// the shared single-request core. An oversized item is refused inline —
// the batch analogue of the single endpoint's 413 — without touching
// its neighbours.
func (srv *Server) batchItem(ctx context.Context, item *SummarizeRequest, defK int, defRegion string) SummarizeResponse {
	if item.K == 0 {
		item.K = defK
	}
	if item.Region == "" {
		item.Region = defRegion
	}
	if item.Trajectory != nil && len(item.Trajectory.Samples) > DefaultMaxItemSamples {
		return SummarizeResponse{Error: fmt.Sprintf("item trajectory exceeds %d samples", DefaultMaxItemSamples)}
	}
	resp, _ := srv.summarizeOne(ctx, item, "")
	return resp
}

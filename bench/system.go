package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"stmaker"
	"stmaker/internal/ingest"
	"stmaker/internal/sanitize"
	"stmaker/internal/server"
)

// system is one booted STMaker service: the summarizer and the HTTP
// handler in front of it, configured as stmakerd configures them.
type system struct {
	sum *stmaker.Summarizer
	srv *server.Server
	// train and overlay are the wall times of Train and of the routing
	// overlay precomputation inside it.
	train, overlay time.Duration
}

func (w workload) config(in *inputs) stmaker.Config {
	return stmaker.Config{
		Graph:          in.city.Graph,
		Landmarks:      in.city.Landmarks,
		UseHMMMatching: w.hmm,
		Sanitize:       &sanitize.Options{},
	}
}

// serverOptions mirrors stmakerd's defaults. With ingestDir set, POST
// /ingest is mounted with its WAL there; the benchmark compacts on its
// own schedule, so the service's timer is effectively off.
func serverOptions(ingestDir string) server.Options {
	opts := server.Options{
		Logger:         server.DiscardLogger(),
		MaxInFlight:    256,
		RequestTimeout: 30 * time.Second,
	}
	if ingestDir != "" {
		opts.Ingest = &ingest.ServiceOptions{
			Dir:             ingestDir,
			CompactInterval: time.Hour,
			Logger:          server.DiscardLogger(),
		}
	}
	return opts
}

// boot is one cold start: stmaker.New, Train on the corpus, and the
// server in front.
func boot(w workload, in *inputs, ingestDir string) (*system, error) {
	sum, err := stmaker.New(w.config(in))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	stats, err := sum.Train(in.corpus)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	train := time.Since(t0)
	srv, err := server.NewWithOptions(sum, serverOptions(ingestDir))
	if err != nil {
		return nil, err
	}
	return &system{
		sum: sum, srv: srv, train: train,
		overlay: time.Duration(stats.OverlayBuildSeconds * float64(time.Second)),
	}, nil
}

// setup is what the set-up phase measured.
type setup struct {
	boots          []float64 // seconds per cold boot
	train, overlay []float64 // seconds per boot
	heapMB         float64
}

// setUp boots the system the given number of times and keeps the last
// one. Each boot starts from nothing but the inputs. heapMB is the heap
// the kept system holds: the live heap after a GC, minus the same
// reading taken before the first boot.
func setUp(w workload, in *inputs, work string, boots int) (*system, setup, error) {
	var st setup
	var before, after runtime.MemStats
	liveHeap(&before)
	var sys *system
	for i := 0; i < boots; i++ {
		dir := ""
		if w.ingestRate > 0 {
			dir = filepath.Join(work, fmt.Sprintf("wal-%d", i))
		}
		sys = nil // the previous boot must not count toward the heap reading
		t0 := time.Now()
		s, err := boot(w, in, dir)
		if err != nil {
			return nil, st, err
		}
		st.boots = append(st.boots, time.Since(t0).Seconds())
		st.train = append(st.train, s.train.Seconds())
		st.overlay = append(st.overlay, s.overlay.Seconds())
		sys = s
	}
	liveHeap(&after)
	st.heapMB = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	return sys, st, nil
}

// liveHeap reads memory statistics after collecting all garbage. The
// second GC empties the sync.Pool victim caches the first one fills.
func liveHeap(ms *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(ms)
}

// listener serves a handler on a loopback port until stop is called.
type listener struct {
	base string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		base: "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns ErrServerClosed after stop
	}()
	return l, nil
}

// stop shuts the server down and waits for its goroutine to exit.
func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		l.hs.Close()
	}
	<-l.done
}

// serveDirect runs one request through the handler in-process, without
// a socket, and returns the status and body.
func serveDirect(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

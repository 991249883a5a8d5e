package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"stmaker"
	"stmaker/internal/ingest"
	"stmaker/internal/server"
)

// e2e is what the timed end-to-end phases measured.
type e2e struct {
	itemsPerS, cpuMsPerItem, allocsPerItem float64
	// lat holds the summarize latencies in ms: from the due time in an
	// open loop, from the send in a closed loop. late holds how far
	// behind the generator sent each request.
	lat, late []float64
	// ingestLat is the POST /ingest acknowledgement latency in ms;
	// compactS is the duration of each CompactAll in seconds.
	ingestLat, compactS        []float64
	attempted, failed, drifted int
}

// endToEnd runs the workload's timed phases against the live server.
//
// The host a benchmark runs on changes speed from one few-second stretch
// to the next, so the run is cut into cycles of about segment length
// and every metric samples all of them. A workload with an open-loop
// rate spends two fifths of each cycle in a closed-loop capacity segment
// and the rest in the open loop; the others run one closed loop for the
// whole run. Any ingest stream and the compactor run beside the
// summarize traffic from start to end.
func endToEnd(w workload, in *inputs, sys *system, d *driver, seed int64, total time.Duration) (e2e, error) {
	var r e2e
	cycles, capDur := 1, total
	if w.openRate > 0 {
		cycles = max(1, int(total/segment))
		capDur = total / time.Duration(cycles) * 2 / 5
	}
	openDur := total/time.Duration(cycles) - capDur
	rng := rand.New(rand.NewSource(seed))
	pick := func() int { return rng.Intn(len(d.bodies)) }
	mx := sys.sum.Metrics()
	compactions0 := mx.Counter(ingest.MetricCompactions).Value()
	v0 := sys.sum.Model()

	var side []shot
	sideDone := make(chan struct{})
	var comp *compactor
	if w.ingestRate > 0 {
		side = poisson(ingestReq, w.ingestRate, time.Now(), total, rng, func() int {
			d.ingestNext++
			return d.ingestNext - 1
		})
		comp = startCompactor(sys, w.compactEvery)
	}
	go func() {
		defer close(sideDone)
		d.openLoop(side)
	}()

	var all []shot
	var rates []float64
	var latIdx []int
	var use usage
	items := 0
	for c := 0; c < cycles; c++ {
		cr := d.capacity(capDur, seed+int64(c))
		use.cpu += cr.use.cpu
		use.mallocs += cr.use.mallocs
		for k := range cr.items {
			rates = append(rates, float64(cr.items[k])/capWindow.Seconds())
			items += cr.items[k]
		}
		first := len(all)
		all = append(all, cr.shots...)
		if openDur > 0 {
			open := poisson(summarizeReq, w.openRate, time.Now().Add(5*time.Millisecond), openDur, rng, pick)
			d.openLoop(open)
			first = len(all)
			all = append(all, open...)
		}
		// Latency comes from the open loop where there is one, else from
		// the measured part of the closed loop.
		for i := first; i < len(all); i++ {
			if s := &all[i]; openDur > 0 || !s.sent.Before(cr.from) {
				latIdx = append(latIdx, i)
			}
		}
	}
	<-sideDone
	all = append(all, side...)
	if items == 0 {
		return r, fmt.Errorf("%s: no request succeeded in a capacity segment", w.name)
	}
	r.itemsPerS = median(rates)
	r.cpuMsPerItem = ms(use.cpu) / float64(items)
	r.allocsPerItem = float64(use.mallocs) / float64(items)

	if comp != nil {
		comps := comp.finish()
		for _, c := range comps {
			r.compactS = append(r.compactS, c.end.Sub(c.start).Seconds())
		}
		bad, err := checkVersions(w, in, sys, d, all, v0, comps, mx.Counter(ingest.MetricCompactions).Value()-compactions0)
		if err != nil {
			return r, err
		}
		r.failed += bad
	} else {
		d.settle(all)
	}

	for _, i := range latIdx {
		s := &all[i]
		if s.failed() {
			continue
		}
		t0 := s.due
		if openDur == 0 {
			t0 = s.sent
		}
		r.lat = append(r.lat, ms(s.done.Sub(t0)))
		r.late = append(r.late, ms(s.sent.Sub(s.due)))
	}
	for _, s := range all {
		r.attempted++
		if s.failed() {
			r.failed++
		}
		if s.verdict == drifted {
			r.drifted++
		}
		if s.kind == ingestReq && !s.failed() {
			r.ingestLat = append(r.ingestLat, ms(s.done.Sub(s.due)))
		}
	}
	return r, nil
}

// segment is the length of one capacity-plus-open-loop cycle.
const segment = 5 * time.Second

// compaction is one CompactAll the benchmark ran, and the model serving
// once it returned.
type compaction struct {
	start, end time.Time
	model      *stmaker.Model
	err        error
}

// compactor calls CompactAll on a fixed interval until finish.
type compactor struct {
	stop chan struct{}
	done chan []compaction
}

func startCompactor(sys *system, every time.Duration) *compactor {
	c := &compactor{stop: make(chan struct{}), done: make(chan []compaction, 1)}
	go func() {
		var out []compaction
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				c.done <- out
				return
			case <-t.C:
				cp := compaction{start: time.Now()}
				cp.err = sys.srv.Ingest().CompactAll()
				cp.end, cp.model = time.Now(), sys.sum.Model()
				out = append(out, cp)
			}
		}
	}()
	return c
}

// finish stops the compactor and returns what it did.
func (c *compactor) finish() []compaction {
	close(c.stop)
	return <-c.done
}

// modelVersion is one model that served during an ingesting run, with
// the window in which a response may have come from it.
type modelVersion struct {
	model       *stmaker.Model
	from, until time.Time
	refs        map[int][]byte
	// srv serves this model alone; serve builds it when references are
	// needed.
	srv http.Handler
}

// checkVersions settles every summarize response of an ingesting run.
// Compactions publish new models mid-run, so a response must match the
// reference of some model that was serving while the request was in
// flight. It also checks that the served model's version advanced once
// per compaction that published, as the compaction counter reports.
func checkVersions(w workload, in *inputs, sys *system, d *driver, shots []shot, v0 *stmaker.Model, comps []compaction, published int64) (failed int, err error) {
	far := time.Now().Add(time.Hour)
	vs := []*modelVersion{{model: v0, until: far, refs: make(map[int][]byte)}}
	for i, ref := range d.refs {
		vs[0].refs[i] = ref
	}
	for _, c := range comps {
		last := vs[len(vs)-1]
		if c.err != nil {
			failed++
			continue
		}
		if c.model == last.model {
			continue
		}
		last.until = c.end
		vs = append(vs, &modelVersion{model: c.model, from: c.start, until: far, refs: make(map[int][]byte)})
	}
	advanced := int64(sys.sum.Model().Version() - v0.Version())
	if advanced != published || advanced != int64(len(vs)-1) {
		failed++
	}
	// A response may have come from any model serving while it was in
	// flight; compute the missing references first, on both cores.
	candidates := func(s *shot) []*modelVersion {
		var out []*modelVersion
		for _, v := range vs {
			if !v.from.After(s.done) && !v.until.Before(s.sent) {
				out = append(out, v)
			}
		}
		return out
	}
	type need struct {
		v    *modelVersion
		body int
	}
	seen := make(map[need]bool)
	var needs []need
	for i := range shots {
		if s := &shots[i]; s.resp != nil {
			for _, v := range candidates(s) {
				if n := (need{v, s.body}); v.refs[s.body] == nil && !seen[n] {
					seen[n] = true
					needs = append(needs, n)
				}
			}
		}
	}
	for _, n := range needs {
		if err := n.v.serve(w, in); err != nil {
			return failed, err
		}
	}
	refs := make([][]byte, len(needs))
	codes := make([]int, len(needs))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(needs); i += clients {
				codes[i], refs[i] = serveDirect(needs[i].v.srv, d.path, d.bodies[needs[i].body])
			}
		}(c)
	}
	wg.Wait()
	for i, n := range needs {
		if codes[i] != http.StatusOK {
			return failed, fmt.Errorf("reference request failed with status %d: %s", codes[i], refs[i])
		}
		n.v.refs[n.body] = refs[i]
	}
	for i := range shots {
		s := &shots[i]
		if s.resp == nil {
			continue
		}
		best := differs
		for _, v := range candidates(s) {
			best = min(best, compare(s.resp, v.refs[s.body]))
		}
		s.verdict, s.resp = best, nil
	}
	return failed, nil
}

// serve builds the server that holds this model alone, once.
func (v *modelVersion) serve(w workload, in *inputs) error {
	if v.srv != nil {
		return nil
	}
	sum, err := stmaker.New(w.config(in))
	if err != nil {
		return err
	}
	if err := sum.LoadModel(v.model); err != nil {
		return err
	}
	srv, err := server.NewWithOptions(sum, serverOptions(""))
	if err != nil {
		return err
	}
	v.srv = srv
	return nil
}

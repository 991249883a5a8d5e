package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"stmaker/internal/server"
	"stmaker/internal/traj"
)

// kind is what a request asks of the server.
type kind int

const (
	summarizeReq kind = iota // POST /summarize or /summarize/batch
	ingestReq                // POST /ingest of one whole trip
)

// shot is one request and what became of it.
type shot struct {
	kind kind
	// body indexes the driver's summarize or ingest bodies.
	body int
	// due is when the request should have gone out: its slot in an
	// open-loop schedule, or in a closed loop the moment the client's
	// previous reply arrived.
	due        time.Time
	sent, done time.Time
	status     int
	err        error
	// resp is kept when the response cannot be settled inside the timed
	// window; settle clears it.
	resp    []byte
	verdict verdict
}

func (s *shot) failed() bool {
	return s.err != nil || s.status != http.StatusOK || s.verdict == differs
}

// ingestBody is one POST /ingest stream: every fix of a trip, then its
// end marker.
type ingestBody struct {
	body  []byte
	fixes int
}

// driver sends the workload's traffic over at most `clients` keep-alive
// connections to the server under test.
type driver struct {
	client *http.Client
	base   string
	path   string
	bodies [][]byte
	items  []int
	// refs are the warm-up responses, one per body.
	refs [][]byte
	// ingest holds the POST /ingest streams; ingestNext is the first one
	// not sent yet.
	ingest     []ingestBody
	ingestNext int
	// deferAll keeps every summarize response for checking after the
	// phase, because ingestion publishes new models while it runs.
	deferAll bool
}

func newDriver(base string, in *inputs) *driver {
	path, bodies, items := in.traffic()
	return &driver{
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
		base: base, path: path, bodies: bodies, items: items,
		refs: make([][]byte, len(bodies)),
	}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

// send runs one request to completion and classifies its response. It
// does only cheap checks inline; responses whose bytes differ from the
// reference are kept for settle.
func (d *driver) send(s *shot) {
	url, body := d.base+d.path, d.bodies[s.body]
	if s.kind == ingestReq {
		url, body = d.base+"/ingest", d.ingest[s.body].body
	}
	s.sent = time.Now()
	resp, err := d.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		s.done, s.err = time.Now(), err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done, s.status, s.err = time.Now(), resp.StatusCode, err
	if s.failed() {
		return
	}
	switch {
	case s.kind == ingestReq:
		var ack server.IngestResponse
		if json.Unmarshal(data, &ack) != nil || ack.Accepted != d.ingest[s.body].fixes || ack.Closed != 1 {
			s.verdict = differs
		}
	case d.deferAll || !bytes.Equal(data, d.refs[s.body]):
		s.resp = data
	}
}

// settle finishes the checks send deferred, against the warm-up
// references.
func (d *driver) settle(shots []shot) {
	for i := range shots {
		if s := &shots[i]; s.resp != nil {
			s.verdict = compare(s.resp, d.refs[s.body])
			s.resp = nil
		}
	}
}

// warmUp sends every summarize body once, untimed, and records its
// response as the reference later responses must match. It then keeps a
// closed loop running, checked against those references, until at least
// minDur has passed since it began.
func (d *driver) warmUp(minDur time.Duration, seed int64) []shot {
	start := time.Now()
	shots := make([]shot, len(d.bodies))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(shots); i += clients {
				s := &shots[i]
				s.body = i
				s.sent = time.Now()
				resp, err := d.client.Post(d.base+d.path, "application/json", bytes.NewReader(d.bodies[i]))
				if err != nil {
					s.err = err
					continue
				}
				d.refs[i], s.err = io.ReadAll(resp.Body)
				resp.Body.Close()
				s.status, s.done = resp.StatusCode, time.Now()
			}
		}(c)
	}
	wg.Wait()
	if rest := minDur - time.Since(start); rest > 0 {
		more := d.closedLoop(rest, time.Now(), seed^0x5eed)
		d.settle(more)
		shots = append(shots, more...)
	}
	return shots
}

// closedLoop runs `clients` clients that each send their next request
// as soon as the previous reply is in, from start until dur has passed.
// A request is due when its client's previous reply arrived, so sent
// minus due is the client's own turnaround.
func (d *driver) closedLoop(dur time.Duration, start time.Time, seed int64) []shot {
	deadline := start.Add(dur)
	per := make([][]shot, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(c)))
			due := start
			for time.Now().Before(deadline) {
				s := shot{kind: summarizeReq, body: rng.Intn(len(d.bodies)), due: due}
				d.send(&s)
				per[c] = append(per[c], s)
				due = s.done
			}
		}(c)
	}
	wg.Wait()
	var out []shot
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// capWindow is the length of the windows whose median throughput is
// items_per_s: short enough that a run has many, long enough to complete
// a hundred items or more.
const capWindow = 500 * time.Millisecond

// capacityRun is one closed-loop segment. Its first window lets the
// load ramp up and is not measured; items counts the items completed in
// each measured window, and use is the process's resource use over the
// measured part, from `from` on.
type capacityRun struct {
	shots []shot
	from  time.Time
	items []int
	use   usage
}

// capacity runs the closed loop for about dur, measuring whole windows
// after the first.
func (d *driver) capacity(dur time.Duration, seed int64) capacityRun {
	n := max(1, int(dur/capWindow)-1)
	start := time.Now()
	from := start.Add(capWindow)
	to := from.Add(time.Duration(n) * capWindow)
	var u0, u1 usage
	bg := make(chan struct{})
	go func() {
		defer close(bg)
		time.Sleep(time.Until(from))
		u0 = readUsage()
		time.Sleep(time.Until(to))
		u1 = readUsage()
	}()
	cr := capacityRun{shots: d.closedLoop(to.Sub(start), start, seed), from: from, items: make([]int, n)}
	<-bg
	cr.use = usage{cpu: u1.cpu - u0.cpu, mallocs: u1.mallocs - u0.mallocs}
	for _, s := range cr.shots {
		if !s.failed() && !s.done.Before(from) && s.done.Before(to) {
			cr.items[s.done.Sub(from)/capWindow] += d.items[s.body]
		}
	}
	return cr
}

// poisson draws open-loop arrivals at rate per second over dur, starting
// at start. pick chooses each request's body.
func poisson(k kind, rate float64, start time.Time, dur time.Duration, rng *rand.Rand, pick func() int) []shot {
	var out []shot
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, shot{kind: k, body: pick(), due: start.Add(time.Duration(t * float64(time.Second)))})
	}
	return out
}

// openLoop sends each shot at its due time, whether or not earlier
// replies are in: a slow server builds a queue instead of slowing the
// arrivals. Requests beyond the connection limit wait for a connection,
// and that wait counts in their latency.
func (d *driver) openLoop(shots []shot) {
	sort.SliceStable(shots, func(i, j int) bool { return shots[i].due.Before(shots[j].due) })
	var wg sync.WaitGroup
	for i := range shots {
		s := &shots[i]
		if wait := time.Until(s.due); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.send(s)
		}()
	}
	wg.Wait()
}

// prepareIngest builds the POST /ingest streams a run of the given
// length needs at rate trips per second, and sends the first one,
// untimed, so the region's ingester exists before timing starts.
func (d *driver) prepareIngest(fleet []*traj.Raw, rate float64, total time.Duration) (shot, error) {
	var err error
	if d.ingest, err = ingestBodies(fleet, int(rate*total.Seconds()*1.5)+8); err != nil {
		return shot{}, err
	}
	d.deferAll = true
	s := shot{kind: ingestReq}
	d.send(&s)
	d.ingestNext = 1
	return s, nil
}

// ingestBodies builds n POST /ingest streams, cycling through the fleet
// under fresh trip IDs so every stream opens and closes a new trip.
func ingestBodies(fleet []*traj.Raw, n int) ([]ingestBody, error) {
	type fix struct {
		Trip   string    `json:"trip"`
		Object string    `json:"object,omitempty"`
		Lat    float64   `json:"lat"`
		Lng    float64   `json:"lng"`
		T      time.Time `json:"t"`
	}
	type end struct {
		Trip string `json:"trip"`
		End  bool   `json:"end"`
	}
	out := make([]ingestBody, n)
	for i := range out {
		t := fleet[i%len(fleet)]
		id := fmt.Sprintf("%s-%05d", t.ID, i)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, s := range t.Samples {
			if err := enc.Encode(fix{Trip: id, Object: t.Object, Lat: s.Pt.Lat, Lng: s.Pt.Lng, T: s.T}); err != nil {
				return nil, err
			}
		}
		if err := enc.Encode(end{Trip: id, End: true}); err != nil {
			return nil, err
		}
		out[i] = ingestBody{body: buf.Bytes(), fixes: len(t.Samples)}
	}
	return out, nil
}

// usage is the process's resource use at one instant.
type usage struct {
	cpu     time.Duration
	mallocs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: mem.Mallocs,
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of vs, which it sorts.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sort.Float64s(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	return vs[max(0, min(i, len(vs)-1))]
}

func median(vs []float64) float64 { return quantile(append([]float64(nil), vs...), 0.5) }

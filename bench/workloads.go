package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"stmaker/internal/hits"
	"stmaker/internal/server"
	"stmaker/internal/simulate"
	"stmaker/internal/traj"
)

// worldSeed fixes each workload's city — road network, landmarks and the
// training corpus its history is learned from. The deployed service is
// part of the workload's definition; --seed draws the traffic sent to it
// (request pool and ingest fleet), so runs with different seeds measure
// the same service under different samples of its traffic.
const worldSeed = 51

// clients is the number of load-generating connections: the benchmark's
// reference box has two cores, and more connections than cores only
// queue inside the server.
const clients = 2

// workload is one traffic shape driven through the real HTTP handler.
type workload struct {
	name string
	// rows and cols size the simulated street grid.
	rows, cols int
	// train is the number of calm training trips.
	train int
	// pool is the number of distinct request trips, sampled every
	// sampleEvery.
	pool        int
	sampleEvery time.Duration
	// hmm selects HMM (Viterbi) map matching instead of greedy matching.
	hmm bool
	// batch is the number of items per POST /summarize/batch; 0 sends
	// single POST /summarize requests.
	batch int
	// openRate is the Poisson arrival rate of the open-loop phase in
	// requests per second; 0 means the workload has only a closed loop.
	openRate float64
	// ingestRate is the rate of whole-trip POST /ingest requests per
	// second, sent beside the summarize traffic; 0 means no ingestion.
	ingestRate float64
	// compactEvery is how often the benchmark compacts ingested trips
	// into a new published model.
	compactEvery time.Duration
	// fleet is the number of distinct trips a separate set of cars sends
	// to ingestion: ten for each of the traced ingest layer's three
	// rounds, and more than an ingesting workload sends in a second.
	fleet int
	// traceItems is how many pool trips the traced run replays.
	traceItems int
}

// workloads are the traffic shapes the benchmark knows. README.md gives
// the reasoning behind each; in short:
var workloads = []workload{
	// The default deployment with rich history: greedy matching and
	// calibration dominate, feature selection rarely falls back.
	{
		name: "commute", rows: 12, cols: 12, train: 1000,
		pool: 1000, sampleEvery: 5 * time.Second,
		openRate: 300, fleet: 30, traceItems: 300,
	},
	// Thin history on a bigger city with sparse samples and HMM matching:
	// selection and its global-mean fallback dominate, and it is the only
	// workload that uses the shortest-path cache and the ALT overlay.
	{
		name: "metro-hmm", rows: 20, cols: 20, train: 300,
		pool: 500, sampleEvery: 15 * time.Second, hmm: true,
		openRate: 40, fleet: 30, traceItems: 120,
	},
	// Offline sweeps of 1 Hz trips in batches: payload-heavy, so decoding,
	// calibration and matching dominate, with the most allocations per item.
	{
		name: "dense-batch", rows: 7, cols: 7, train: 120,
		pool: 256, sampleEvery: time.Second, batch: 8,
		fleet: 30, traceItems: 96,
	},
	// Commute's service while a fleet streams trips in: every ack fsyncs,
	// and compactions publish models whose route caches start empty.
	{
		name: "ingest-mix", rows: 12, cols: 12, train: 1000,
		pool: 1000, sampleEvery: 5 * time.Second,
		openRate: 150, ingestRate: 10, compactEvery: 3 * time.Second,
		fleet: 30, traceItems: 300,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// smoke shrinks a workload to a few seconds of work, for tests and quick
// checks of the benchmark itself. Its numbers are not comparable with
// full runs.
func (w workload) smoke() workload {
	w.train = min(w.train, 40)
	w.pool = 16
	w.fleet = 6
	w.traceItems = 8
	if w.compactEvery > 0 {
		w.compactEvery = 400 * time.Millisecond
	}
	return w
}

// inputs is everything a run trains on or sends, generated before any
// timing starts: the world from worldSeed, the traffic from the run's
// seed.
type inputs struct {
	city   *simulate.City
	corpus []*traj.Raw
	pool   []*traj.Raw
	// singles holds one POST /summarize body per pool trip.
	singles [][]byte
	// batches holds the POST /summarize/batch bodies of batch
	// workloads: consecutive runs of w.batch pool trips, batchItems[i]
	// of them in batches[i].
	batches    [][]byte
	batchItems []int
	// fleet is the trips fed to ingestion, from a separate set of cars.
	fleet []*traj.Raw
}

func makeInputs(w workload, seed int64) (*inputs, error) {
	city := simulate.NewCity(simulate.CityOptions{Rows: w.rows, Cols: w.cols, Seed: worldSeed})
	checkins := simulate.GenerateCheckins(city.Landmarks, simulate.CheckinOptions{Seed: worldSeed + 1})
	city.Landmarks.InferSignificance(200, checkins, hits.Options{})

	trips := func(n int, seed int64, calm bool, every time.Duration) []*traj.Raw {
		fleet := simulate.GenerateFleet(city, simulate.FleetOptions{
			NumTrips: n, Seed: seed, FixedHour: -1, Calm: calm, SampleInterval: every,
		})
		out := make([]*traj.Raw, 0, len(fleet))
		for _, t := range fleet {
			out = append(out, t.Raw)
		}
		return out
	}
	in := &inputs{
		city:   city,
		corpus: trips(w.train, worldSeed+2, true, 5*time.Second),
		pool:   trips(w.pool, seed*4+1, false, w.sampleEvery),
		fleet:  trips(w.fleet, seed*4+2, false, 5*time.Second),
	}
	if len(in.pool) == 0 || len(in.corpus) == 0 {
		return nil, fmt.Errorf("%s: simulator produced no trips", w.name)
	}
	for _, t := range in.pool {
		b, err := json.Marshal(server.SummarizeRequest{Trajectory: t})
		if err != nil {
			return nil, err
		}
		in.singles = append(in.singles, b)
	}
	for lo := 0; w.batch > 0 && lo < len(in.pool); lo += w.batch {
		req := server.BatchRequest{}
		for _, t := range in.pool[lo:min(lo+w.batch, len(in.pool))] {
			req.Items = append(req.Items, server.SummarizeRequest{Trajectory: t})
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, b)
		in.batchItems = append(in.batchItems, len(req.Items))
	}
	return in, nil
}

// traffic returns the summarize request bodies the load generator
// sends, the path they go to and the items each carries.
func (in *inputs) traffic() (path string, bodies [][]byte, items []int) {
	if len(in.batches) == 0 {
		items = make([]int, len(in.singles))
		for i := range items {
			items[i] = 1
		}
		return "/summarize", in.singles, items
	}
	return "/summarize/batch", in.batches, in.batchItems
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"stmaker"
	"stmaker/internal/feature"
	"stmaker/internal/ingest"
	"stmaker/internal/irregular"
	"stmaker/internal/partition"
	"stmaker/internal/roadnet"
	"stmaker/internal/sanitize"
	"stmaker/internal/server"
	"stmaker/internal/summarize"
)

// The traced run.
//
// The end-to-end phases treat the server as a black box. The traced run
// splits the same requests into layers: on one goroutine, it replays
// each pool trip through the public functions the server's handler
// calls, in the handler's order, and times every call. The replica's
// output is checked against the real handler's response for the same
// request, and untraced passes through the real handler measure how much
// of the request the spans account for (trace.gap_ratio).

// Stages of one summarize request, in pipeline order. Each is a span.
const (
	stDecode = iota
	stSanitize
	stCalibrate
	stMatch
	stExtract
	stPartition
	stRoute
	stSelect
	stRender
	stEncode
	numStages
)

// stageNames are the span names; their first element is the module that
// does the work.
var stageNames = [numStages]string{
	"server.decode", "sanitize", "calibrate", "roadnet.match", "feature.extract",
	"partition", "history.route", "summarize.select", "summarize.render", "server.encode",
}

// metricName names a measure of a stage: "calibrate.us" for a module-wide
// stage, "summarize.select_us" for one operation of a module.
func metricName(stage, measure string) string {
	if strings.Contains(stage, ".") {
		return stage + "_" + measure
	}
	return stage + "." + measure
}

// span is one timed call, kept in memory and written by --trace-out.
// Stage spans name their parent item span through Item.
type span struct {
	Item  int    `json:"item"`
	Trip  string `json:"trip"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// replica runs the summarize pipeline layer by layer on a context the
// benchmark owns, against the model the server is serving.
type replica struct {
	sum   *stmaker.Summarizer
	model *stmaker.Model
	ctx   *feature.Context
	san   *sanitize.Sanitizer
	wvec  []float64
}

func newReplica(w workload, in *inputs, sys *system) *replica {
	g := in.city.Graph
	model := sys.sum.Model()
	ctx := feature.NewContext(g, roadnet.NewMatcher(g), in.city.Landmarks)
	if w.hmm {
		ctx.HMM = roadnet.NewHMMMatcher(g, roadnet.HMMOptions{Cache: roadnet.NewSPCache(roadnet.SPCacheOptions{})})
		if o := model.RoutingOverlay(); o != nil {
			ctx.HMM.SetRouter(roadnet.NewALTRouter(g, o))
		}
	}
	return &replica{
		sum: sys.sum, model: model, ctx: ctx,
		san:  sanitize.New(*w.config(in).Sanitize),
		wvec: feature.Weights(nil).VectorFor(sys.sum.Registry()),
	}
}

// itemCounts is the work one item carried through the layers.
type itemCounts struct {
	samples, repairs, segments, parts, fallbacks int
	// routes are the (source, destination) landmark pairs of the
	// item's partitions, as history.route looked them up.
	routes [][2]int
}

// replay runs one POST /summarize body through the pipeline's layers and
// returns the response body the handler would write. mark(i) is called
// as stage i starts, and mark(numStages) once the last one ends.
func (r *replica) replay(body []byte, mark func(int)) ([]byte, itemCounts, error) {
	var c itemCounts
	mark(stDecode)
	var req server.SummarizeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, c, err
	}
	mark(stSanitize)
	raw, rep, err := r.san.Sanitize(req.Trajectory)
	if err != nil {
		return nil, c, err
	}
	mark(stCalibrate)
	sym, err := r.sum.Calibrate(raw)
	if err != nil {
		return nil, c, err
	}
	defer r.ctx.ReleaseEdges(sym)
	mark(stMatch)
	n := sym.NumSegments()
	for i := 0; i < n; i++ {
		r.ctx.SegmentEdges(sym.Segment(i))
	}
	mark(stExtract)
	matrix := r.sum.Registry().ExtractAll(sym, r.ctx)
	mark(stPartition)
	norm := feature.NormalizeByMax(matrix)
	pin := partition.Input{Features: make([][]float64, n), Significance: make([]float64, n)}
	for i := range norm {
		pin.Features[i] = norm[i]
		pin.Significance[i] = r.ctx.Landmarks.Get(sym.Visits[i].Landmark).Significance
	}
	res, err := partition.Optimal(pin, partition.Options{Ca: partition.DefaultCa, Weights: r.wvec})
	if err != nil {
		return nil, c, err
	}
	mark(stRoute)
	popular := r.model.Popular()
	for _, p := range res.Parts {
		popular.Route(sym.Visits[p.FirstSeg].Landmark, sym.Visits[p.LastSeg+1].Landmark)
	}
	mark(stSelect)
	sel := &summarize.Selector{
		Registry: r.sum.Registry(), Ctx: r.ctx,
		Popular: popular, FeatureMap: r.model.FeatureMap(), Landmarks: r.ctx.Landmarks,
		Threshold: irregular.DefaultThreshold, GlobalMeanFallback: true,
	}
	summary := &summarize.Summary{TrajectoryID: sym.ID}
	for _, part := range res.Parts {
		ps := summarize.PartSummary{
			Part:   part,
			Source: sym.Visits[part.FirstSeg].Landmark,
			Dest:   sym.Visits[part.LastSeg+1].Landmark,
		}
		ps.SourceName = r.ctx.Landmarks.Get(ps.Source).Name
		ps.DestName = r.ctx.Landmarks.Get(ps.Dest).Name
		if g, name, ok := summarize.RoadForPart(r.ctx, sym, part); ok {
			ps.RoadType, ps.RoadName = g.String(), name
		}
		ps.Features = sel.SelectForPart(sym, part, matrix)
		summary.Parts = append(summary.Parts, ps)
	}
	mark(stRender)
	r.sum.Templates().RenderSummary(summary)
	mark(stEncode)
	out, err := json.Marshal(response(summary))
	mark(numStages)
	if err != nil {
		return nil, c, err
	}

	c.repairs, c.segments, c.parts = rep.Repairs(), n, len(res.Parts)
	fm := r.model.FeatureMap()
	for i := 0; i < n; i++ {
		c.samples += len(sym.Segment(i).RawSamples())
		if !fm.HasEdge(sym.Visits[i].Landmark, sym.Visits[i+1].Landmark) {
			c.fallbacks++
		}
	}
	for _, p := range res.Parts {
		c.routes = append(c.routes, [2]int{sym.Visits[p.FirstSeg].Landmark, sym.Visits[p.LastSeg+1].Landmark})
	}
	// The handler's encoder ends the body with a newline.
	return append(out, '\n'), c, nil
}

// response converts a summary to the wire shape, as the handler does for
// a single-region server.
func response(sum *summarize.Summary) server.SummarizeResponse {
	resp := server.SummarizeResponse{ID: sum.TrajectoryID, Text: sum.Text, Parts: make([]server.PartResponse, 0, len(sum.Parts))}
	for _, p := range sum.Parts {
		pr := server.PartResponse{Source: p.SourceName, Dest: p.DestName, RoadType: p.RoadType, Text: p.Text}
		if len(p.Features) > 0 {
			pr.Features = make([]server.FeatureEntry, 0, len(p.Features))
		}
		for _, f := range p.Features {
			pr.Features = append(pr.Features, server.FeatureEntry{Key: f.Key, Rate: f.Rate, Value: f.Value})
		}
		resp.Parts = append(resp.Parts, pr)
	}
	return resp
}

// traced is what the traced run measured.
type traced struct {
	metrics   map[string]metric
	spans     []span
	attempted int
	failed    int
	drifted   int
}

// traceRun measures the layers. It first replays every traced item once,
// untimed, checking the replica against the handler and warming both.
// Then, until the run's time is up, each round makes three passes over
// the items: the replica without timing, the replica with a span per
// stage, and the real handler. Per-stage times are medians over rounds.
// A final pass counts allocations per stage, another times popular-route
// lookups on a freshly loaded copy of the model, and the ingestion layer
// is timed on an ingester the benchmark owns.
func traceRun(w workload, in *inputs, sys *system, st setup, work string, dur time.Duration) (traced, error) {
	t := traced{metrics: make(map[string]metric)}
	put := func(name, unit string, v float64) { t.metrics[name] = metric{Value: v, Unit: unit} }
	rep := newReplica(w, in, sys)
	items := in.singles[:min(w.traceItems, len(in.singles))]
	nop := func(int) {}

	var counts []itemCounts
	for _, body := range items {
		t.attempted++
		got, c, err := rep.replay(body, nop)
		code, want := serveDirect(sys.srv, "/summarize", body)
		switch v := compare(got, want); {
		case err != nil || code != http.StatusOK || v == differs:
			t.failed++
		case v == drifted:
			t.drifted++
		}
		counts = append(counts, c)
	}

	mx := sys.sum.Metrics()
	hits0, misses0 := mx.Counter(stmaker.MetricSPCacheHits).Value(), mx.Counter(stmaker.MetricSPCacheMisses).Value()
	origin := time.Now()
	var stageUs [numStages][]float64
	var plainUs, tracedUs, serveUs []float64
	perItem := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(len(items)) }
	// The checking pass above counted any failure; the timed passes only
	// time the same calls again.
	for deadline := origin.Add(dur); len(plainUs) == 0 || time.Now().Before(deadline); {
		t0 := time.Now()
		for _, body := range items {
			rep.replay(body, nop)
		}
		plainUs = append(plainUs, perItem(time.Since(t0)))

		var sums [numStages]time.Duration
		var stamps [numStages + 1]time.Time
		mark := func(i int) { stamps[i] = time.Now() }
		t0 = time.Now()
		for i, body := range items {
			rep.replay(body, mark)
			trip := in.pool[i].ID
			t.spans = append(t.spans, span{Item: i, Trip: trip, Name: "item",
				Start: int64(stamps[0].Sub(origin)), End: int64(stamps[numStages].Sub(origin))})
			for s := 0; s < numStages; s++ {
				sums[s] += stamps[s+1].Sub(stamps[s])
				t.spans = append(t.spans, span{Item: i, Trip: trip, Name: stageNames[s],
					Start: int64(stamps[s].Sub(origin)), End: int64(stamps[s+1].Sub(origin))})
			}
		}
		tracedUs = append(tracedUs, perItem(time.Since(t0)))
		for s := range sums {
			stageUs[s] = append(stageUs[s], perItem(sums[s]))
		}

		t0 = time.Now()
		for _, body := range items {
			serveDirect(sys.srv, "/summarize", body)
		}
		serveUs = append(serveUs, perItem(time.Since(t0)))
	}
	hits, misses := mx.Counter(stmaker.MetricSPCacheHits).Value()-hits0, mx.Counter(stmaker.MetricSPCacheMisses).Value()-misses0

	var allocs [numStages]uint64
	var mallocs [numStages + 1]uint64
	var mem runtime.MemStats
	countAllocs := func(i int) {
		runtime.ReadMemStats(&mem)
		mallocs[i] = mem.Mallocs
	}
	for _, body := range items {
		rep.replay(body, countAllocs)
		for s := range allocs {
			allocs[s] += mallocs[s+1] - mallocs[s]
		}
	}

	var total float64
	med := make([]float64, numStages)
	for s := range med {
		med[s] = median(stageUs[s])
		total += med[s]
	}
	for s, name := range stageNames {
		put(metricName(name, "us"), "us", med[s])
		put(metricName(name, "share"), "ratio", med[s]/total)
		put(metricName(name, "allocs"), "count", float64(allocs[s])/float64(len(items)))
	}
	put("trace.gap_ratio", "ratio", 1-total/median(serveUs))
	put("trace.overhead_ratio", "ratio", median(tracedUs)/median(plainUs)-1)

	var sum itemCounts
	var reqBytes int
	for i, c := range counts {
		sum.samples += c.samples
		sum.repairs += c.repairs
		sum.segments += c.segments
		sum.parts += c.parts
		sum.fallbacks += c.fallbacks
		reqBytes += len(items[i])
	}
	n := float64(len(items))
	put("server.req_kb", "KB", float64(reqBytes)/1024/n)
	put("sanitize.repairs", "count", float64(sum.repairs)/n)
	put("calibrate.segments", "count", float64(sum.segments)/n)
	put("roadnet.samples", "count", float64(sum.samples)/n)
	put("roadnet.sp_cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	put("partition.parts", "count", float64(sum.parts)/n)
	put("summarize.fallback_ratio", "ratio", ratio(int64(sum.fallbacks), int64(sum.segments)))
	put("history.transitions", "count", float64(rep.model.NumTransitions()))
	put("stmaker.train_s", "s", median(st.train))
	put("roadnet.overlay_s", "s", median(st.overlay))

	cold, err := modelLayer(w, in, sys, counts, put)
	if err != nil {
		return t, err
	}
	put("history.route_cold_us", "us", float64(cold)/float64(time.Microsecond)/n)
	if err := ingestLayer(w, in, sys, filepath.Join(work, "trace-wal"), put); err != nil {
		return t, err
	}
	return t, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// modelLayer measures model persistence: the serialized size, and the
// time to read the bytes back and publish them into a summarizer. It
// returns the time the items' popular-route lookups took on the last
// loaded copy, whose route cache starts empty as after every publish.
func modelLayer(w workload, in *inputs, sys *system, counts []itemCounts, put func(string, string, float64)) (time.Duration, error) {
	var buf bytes.Buffer
	if _, err := sys.sum.SaveModel(&buf); err != nil {
		return 0, err
	}
	put("modelio.model_kb", "KB", float64(buf.Len())/1024)
	fresh, err := stmaker.New(w.config(in))
	if err != nil {
		return 0, err
	}
	var loads []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		m, err := stmaker.ReadModelFrom(bytes.NewReader(buf.Bytes()))
		if err == nil {
			err = fresh.LoadModel(m)
		}
		if err != nil {
			return 0, fmt.Errorf("reload model: %w", err)
		}
		loads = append(loads, ms(time.Since(t0)))
	}
	put("modelio.load_ms", "ms", median(loads))

	popular := fresh.Model().Popular()
	t0 := time.Now()
	for _, c := range counts {
		for _, r := range c.routes {
			popular.Route(r[0], r[1])
		}
	}
	return time.Since(t0), nil
}

// ingestLayer feeds the ingest fleet, in three rounds, into an ingester
// the benchmark owns (publishing into a private summarizer holding the
// served model), timing each AddFix, the CloseTrip and the Sync that
// acknowledge a whole trip, and the compaction that ends each round.
func ingestLayer(w workload, in *inputs, sys *system, dir string, put func(string, string, float64)) error {
	priv, err := stmaker.New(w.config(in))
	if err != nil {
		return err
	}
	if err := priv.LoadModel(sys.sum.Model()); err != nil {
		return err
	}
	ing, err := ingest.NewIngester(dir, func() (*stmaker.Summarizer, error) { return priv, nil },
		ingest.IngesterOptions{Logger: server.DiscardLogger()})
	if err != nil {
		return err
	}
	defer ing.Close()
	var addFix, closeTrip, sync time.Duration
	var fixes, trips int
	var compact []float64
	per := max(1, len(in.fleet)/3)
	for round := 0; round < 3; round++ {
		for _, tr := range in.fleet[round*per : min((round+1)*per, len(in.fleet))] {
			for _, s := range tr.Samples {
				t0 := time.Now()
				if err := ing.AddFix(tr.ID, tr.Object, s.Pt, s.T); err != nil {
					return err
				}
				addFix += time.Since(t0)
				fixes++
			}
			t0 := time.Now()
			if err := ing.CloseTrip(tr.ID); err != nil {
				return err
			}
			t1 := time.Now()
			if err := ing.Sync(); err != nil {
				return err
			}
			closeTrip += t1.Sub(t0)
			sync += time.Since(t1)
			trips++
		}
		t0 := time.Now()
		if err := ing.CompactNow(); err != nil {
			return err
		}
		compact = append(compact, ms(time.Since(t0)))
	}
	us := func(d time.Duration, n int) float64 { return float64(d) / float64(time.Microsecond) / float64(n) }
	put("ingest.addfix_us", "us", us(addFix, fixes))
	put("ingest.close_us", "us", us(closeTrip, trips))
	put("ingest.sync_us", "us", us(sync, trips))
	put("ingest.compact_ms", "ms", median(compact))
	return nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

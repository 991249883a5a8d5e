// Command stmakerd serves trajectory summarization over HTTP, the way the
// original STMaker demo system ran online. It loads a world produced by
// cmd/trajgen, obtains a model — warm-starting from a saved model file
// when -model points at one, training from the -train corpus otherwise —
// and listens until SIGINT or SIGTERM, then drains in-flight requests and
// exits.
//
// Usage:
//
//	stmakerd -world world.json -train train.json [-addr :8080] [-pprof]
//	         [-model model.stm] [-save-model model.stm] [-admin]
//	         [-log text|json] [-max-body N] [-max-inflight N]
//	         [-timeout D] [-drain D] [-hmm]
//	         [-ingest-dir wal/ [-ingest-buffer N] [-ingest-compact D]]
//
//	stmakerd -model-dir models/ [-model-budget N] [-preload auto|none|all|r1,r2]
//	         [same serving flags as above]
//
// Endpoints (see docs/API.md for the wire format and docs/ROBUSTNESS.md
// for the failure-mode contract):
//
//	POST /summarize[?k=N][&region=R]  {"trajectory": {...traj.Raw JSON...}, "k": N, "region": "R"}
//	POST /ingest[?region=R]           NDJSON stream of GPS fixes (only with -ingest-dir)
//	GET  /healthz          liveness probe
//	GET  /readyz           readiness probe (503 while draining or model-less; ?verbose=1 for per-region JSON)
//	GET  /metrics          JSON snapshot of stage + request metrics
//	POST /admin/reload[?region=R]  trigger a live reload (only with -admin)
//	GET  /debug/pprof/*    Go profiling handlers (only with -pprof)
//
// Both modes serve a region registry through one code path and differ
// only in how the registry is built and what a reload does. SIGHUP
// reloads every loaded region; POST /admin/reload reloads one. A reload
// runs in the background, hot-swaps the new model in atomically on
// success, and on failure is logged and counted
// (region_model_load_failures_total) while the previous model keeps
// serving.
//
// Single-region mode builds a registry of one. -model warm-starts from a
// file written by -save-model, skipping the initial training entirely;
// -save-model persists the model (atomically, via temp file + rename)
// after every successful training, initial or live. A reload re-reads
// the -train corpus from disk and retrains.
//
// Multi-region mode: -model-dir points at a directory whose
// subdirectories each hold one region's world and trained model (plus
// an optional region.json manifest — see docs/MULTI_REGION.md). Regions
// load lazily on first request and are evicted least-recently-used when
// -model-budget is exceeded; requests route by the region key in the
// request or by the spatial index over region bounding boxes. A reload
// re-reads the region's model file. -model-dir is mutually exclusive
// with -world/-train/-model/-save-model.
//
// Every trajectory, whether trained on, served or ingested, is repaired
// (sanitized) before calibration: invalid fixes are dropped, timestamps
// re-sorted and deduplicated, outliers removed (docs/ROBUSTNESS.md).
//
// -hmm switches routing features from greedy to HMM (Viterbi) map
// matching. Shortest paths feed only that matcher, so only -hmm
// summarizers carry a shortest-path cache and precompute the ALT routing
// overlay when they first train; greedy training publishes and saves
// models without one.
//
// Every request is logged as one structured line (log/slog) to stderr;
// -log json switches the log format for machine ingestion. Metric names
// are catalogued in docs/OBSERVABILITY.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"stmaker"
	"stmaker/internal/ingest"
	"stmaker/internal/landmark"
	"stmaker/internal/metrics"
	"stmaker/internal/registry"
	"stmaker/internal/roadnet"
	"stmaker/internal/sanitize"
	"stmaker/internal/server"
	"stmaker/internal/worldio"
)

func main() {
	var (
		worldPath   = flag.String("world", "world.json", "world file from trajgen")
		trainPath   = flag.String("train", "train.json", "training corpus")
		modelPath   = flag.String("model", "", "warm-start from this saved model file instead of training")
		savePath    = flag.String("save-model", "", "persist the model here after every successful training")
		adminOn     = flag.Bool("admin", false, "mount POST /admin/reload (live retrain trigger)")
		addr        = flag.String("addr", ":8080", "listen address")
		pprofOn     = flag.Bool("pprof", false, "mount /debug/pprof/ profiling handlers")
		logFormat   = flag.String("log", "text", "log format: text or json")
		maxBody     = flag.Int64("max-body", server.DefaultMaxBodyBytes, "max request body bytes (413 beyond; <0 disables); the batch endpoint allows 16x")
		maxInflight = flag.Int("max-inflight", 256, "max concurrently-handled requests (503 beyond; 0 disables)")

		maxBatch    = flag.Int("max-batch", server.DefaultMaxBatchItems, "max items per batch request (413 beyond; <0 disables)")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request pipeline deadline (504 beyond; 0 disables)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
		useHMM      = flag.Bool("hmm", false, "use HMM (Viterbi) map matching for routing features")
		modelDir    = flag.String("model-dir", "", "serve every region under this directory (multi-region mode)")
		modelBudget = flag.Int64("model-budget", 0, "memory budget in bytes for loaded region models (LRU eviction beyond; 0 unlimited)")
		preload     = flag.String("preload", "auto", "regions to load at boot: auto (first loadable), none, all, or a comma-separated list")

		ingestDir     = flag.String("ingest-dir", "", "enable POST /ingest: per-region WAL directory for crash-safe streaming ingestion")
		ingestBuffer  = flag.Int("ingest-buffer", 0, "max buffered open-trip fixes per region before ingest sheds with 429 (0 default)")
		ingestCompact = flag.Duration("ingest-compact", time.Minute, "interval between incremental model compactions of ingested trips")
	)
	flag.Parse()

	// -model-dir switches the model lifecycle wholesale; mixing it with
	// the single-region source flags would silently ignore one of them.
	if *modelDir != "" {
		conflicting := map[string]bool{"world": true, "train": true, "model": true, "save-model": true}
		flag.Visit(func(f *flag.Flag) {
			if conflicting[f.Name] {
				fmt.Fprintf(os.Stderr, "stmakerd: -%s cannot be combined with -model-dir\n\n", f.Name)
				flag.Usage()
				os.Exit(2)
			}
		})
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "stmakerd: invalid -log value %q (want text or json)\n\n", *logFormat)
		flag.Usage()
		os.Exit(2)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	// -ingest-dir mounts POST /ingest backed by a per-region write-ahead
	// log under the directory; replay recovery and periodic compaction are
	// handled by the ingest service the server constructs from these
	// options (see docs/ROBUSTNESS.md, "Ingestion durability").
	var ingestOpts *ingest.ServiceOptions
	if *ingestDir != "" {
		ingestOpts = &ingest.ServiceOptions{
			Dir:             *ingestDir,
			CompactInterval: *ingestCompact,
			BufferFixes:     *ingestBuffer,
			Logger:          logger,
		}
	}

	// newSummarizer carries the pipeline flags, so every region of either
	// mode runs the same pipeline configuration.
	newSummarizer := func(g *roadnet.Graph, lms *landmark.Set, mx *metrics.Registry) (*stmaker.Summarizer, error) {
		return stmaker.New(stmaker.Config{
			Graph:          g,
			Landmarks:      lms,
			Metrics:        mx,
			UseHMMMatching: *useHMM,
			Sanitize:       &sanitize.Options{},
		})
	}

	var reg *registry.Registry
	var err error
	if *modelDir != "" {
		reg, err = openModelDir(logger, *modelDir, *modelBudget, *preload, newSummarizer)
	} else {
		reg, err = singleRegion(logger, *worldPath, *trainPath, *modelPath, *savePath, newSummarizer)
	}
	if err != nil {
		fatal(logger, err)
	}

	srv, err := server.NewMultiRegion(reg, server.Options{
		Logger:         logger,
		EnablePprof:    *pprofOn,
		EnableAdmin:    *adminOn,
		MaxBodyBytes:   *maxBody,
		MaxInFlight:    *maxInflight,
		MaxBatchItems:  *maxBatch,
		RequestTimeout: *timeout,
		Ingest:         ingestOpts,
	})
	if err != nil {
		fatal(logger, err)
	}
	logger.Info("stmakerd listening",
		"addr", *addr,
		"regions", reg.Names(),
		"budget", *modelBudget,
		"hmm", *useHMM,
		"admin", *adminOn,
		"pprof", *pprofOn,
	)

	// SIGHUP reloads every loaded region (single-flight per region,
	// background); serving models keep answering until their replacements
	// are published.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			n := reg.ReloadLoaded("sighup")
			logger.Info("sighup region reloads started", "count", n)
		}
	}()

	// SIGINT/SIGTERM cancels ctx; Serve then flips /readyz to 503,
	// drains in-flight requests for up to -drain, and returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if svc := srv.Ingest(); svc != nil {
		go svc.Run(ctx)
		defer closeIngest(logger, svc)
	}
	if err := srv.ListenAndServe(ctx, *addr, server.ServeOptions{DrainTimeout: *drain}); err != nil {
		fatal(logger, err)
	}
	logger.Info("stmakerd stopped")
}

// singleRegion builds the -world/-train registry of one. Its reload
// source, retrain, is the one training path, shared by the cold-start
// boot and every live reload: it re-reads the corpus from disk — so
// dropping a new -train file and sending SIGHUP picks it up — trains,
// and persists the new model when -save-model is set. A successful
// -model warm start skips the boot training.
func singleRegion(logger *slog.Logger, worldPath, trainPath, modelPath, savePath string, newSummarizer registry.NewSummarizerFunc) (*registry.Registry, error) {
	wf, err := os.Open(worldPath)
	if err != nil {
		return nil, err
	}
	graph, lms, err := worldio.LoadWorld(wf)
	wf.Close()
	if err != nil {
		return nil, err
	}
	s, err := newSummarizer(graph, lms, nil)
	if err != nil {
		return nil, err
	}

	retrain := func() error {
		tf, err := os.Open(trainPath)
		if err != nil {
			return err
		}
		corpus, err := worldio.LoadTrips(tf)
		tf.Close()
		if err != nil {
			return err
		}
		stats, err := s.Train(corpus)
		if err != nil {
			return err
		}
		logger.Info("trained",
			"version", s.Model().Version(),
			"trained", stats.Calibrated,
			"skipped", stats.Skipped,
			"repaired", stats.Repaired,
			"repairs", stats.Repairs.Repairs(),
			"transitions", stats.Transitions,
		)
		if savePath != "" {
			if err := s.SaveModelFile(savePath); err != nil {
				// The new model is already serving; a persistence failure
				// only costs the next boot its warm start.
				logger.Warn("model save failed, warm start unavailable", "path", savePath, "error", err)
			} else {
				logger.Info("model saved", "path", savePath)
			}
		}
		return nil
	}

	warm := false
	if modelPath != "" {
		m, err := stmaker.LoadModelFile(modelPath)
		if err == nil {
			err = s.LoadModel(m)
		}
		if err != nil {
			logger.Error("warm start failed, falling back to training", "model", modelPath, "error", err)
		} else {
			warm = true
			logger.Info("warm start",
				"model", modelPath,
				"version", m.Version(),
				"transitions", m.NumTransitions(),
			)
		}
	}
	if !warm {
		if err := retrain(); err != nil {
			return nil, err
		}
	}
	return registry.NewStatic(registry.DefaultRegionName, s, retrain, registry.Options{Logger: logger}), nil
}

// openModelDir builds the -model-dir registry: discover regions, then
// preload per -preload. Preload proves servability before the listener
// opens: a fleet whose every region fails to load should crash-loop
// loudly at boot, not 404 quietly at 3am. -preload none skips the proof
// deliberately (readyz stays 503 until the first successful lazy load).
func openModelDir(logger *slog.Logger, dir string, budget int64, preload string, newSummarizer registry.NewSummarizerFunc) (*registry.Registry, error) {
	reg, err := registry.Open(dir, registry.Options{
		Logger:        logger,
		MaxBytes:      budget,
		NewSummarizer: newSummarizer,
	})
	if err != nil {
		return nil, err
	}
	logger.Info("regions discovered", "dir", dir, "regions", reg.Names())
	switch preload {
	case "none":
	case "auto":
		name, err := reg.PreloadAny()
		if err != nil {
			return nil, fmt.Errorf("no region is loadable: %w", err)
		}
		logger.Info("preloaded", "region", name)
	case "all":
		err = reg.Preload(reg.Names())
	default:
		err = reg.Preload(strings.Split(preload, ","))
	}
	return reg, err
}

// closeIngest seals every region's WAL after the listener has drained;
// buffered open trips are rebuilt by the next boot's replay.
func closeIngest(logger *slog.Logger, svc *ingest.Service) {
	if err := svc.Close(); err != nil {
		logger.Warn("ingest close failed", "error", err)
	}
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("stmakerd failed", "error", err)
	os.Exit(1)
}

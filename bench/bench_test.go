package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check the
// program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func smokeRun(t *testing.T, workload string, seed int64, trace bool) result {
	t.Helper()
	res, err := run(options{
		workload: workload, seed: seed, seconds: 1, trace: trace,
		smoke: true, workDir: t.TempDir(),
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v, %d of %d failed", workload, trace, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// TestSmoke runs every workload briefly in both modes: every metric
// BENCHMARK.json names is printed with its unit, nothing else is, and
// every request — and every traced replica of one — checks out.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for _, bw := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			res := smokeRun(t, bw.Name, 51, trace)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json lists %d", bw.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", bw.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", bw.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestSeedDeterminesInputs pins that a seed fully determines what a run
// sends and the work it causes, and that another seed changes it.
func TestSeedDeterminesInputs(t *testing.T) {
	w, err := findWorkload("commute")
	if err != nil {
		t.Fatal(err)
	}
	w = w.smoke()
	// hash fingerprints every request body and ingest trip of a seed.
	hash := func(seed int64) string {
		in, err := makeInputs(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, set := range [][][]byte{in.singles, in.batches} {
			for _, b := range set {
				h.Write(b)
			}
		}
		for _, tr := range in.fleet {
			b, err := json.Marshal(tr)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	if a, b := hash(51), hash(51); a != b {
		t.Fatalf("seed 51 gave request hashes %s and %s", a, b)
	}
	if a, b := hash(51), hash(52); a == b {
		t.Fatalf("seeds 51 and 52 gave the same request hash %s", a)
	}

	counts := []string{"calibrate.segments", "partition.parts", "summarize.fallback_ratio", "history.transitions"}
	first := smokeRun(t, "commute", 51, true)
	second := smokeRun(t, "commute", 51, true)
	for _, name := range counts {
		a, b := first.Metrics[name].Value, second.Metrics[name].Value
		if a != b {
			t.Errorf("%s: %v then %v for the same seed", name, a, b)
		}
	}
}

// Command stmaker summarizes raw trajectories: it loads a world and a
// training corpus produced by cmd/trajgen, trains the summarizer, and
// prints a text summary for every trajectory in the input dataset.
//
// Usage:
//
//	stmaker -world world.json -train train.json -input test.json [-k 0] [-n 10] [-v]
//	        [-save-model model.stm]
//
// With -k 0 (default) the globally optimal partition is used; -k > 0
// forces that many partitions. -v additionally prints the selected
// features and their irregular rates. -save-model persists the trained
// model (atomic temp-file + rename) for stmakerd to warm-start from —
// in single-region mode via -model, or in a multi-region -model-dir
// layout (docs/MULTI_REGION.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"stmaker"
	"stmaker/internal/landmark"
	"stmaker/internal/roadnet"
	"stmaker/internal/traj"
	"stmaker/internal/worldio"
)

func main() {
	var (
		worldPath = flag.String("world", "world.json", "world file from trajgen")
		trainPath = flag.String("train", "train.json", "training corpus")
		inputPath = flag.String("input", "test.json", "trajectories to summarize")
		k         = flag.Int("k", 0, "partition count (0 = optimal)")
		n         = flag.Int("n", 10, "max trajectories to summarize (0 = all)")
		verbose   = flag.Bool("v", false, "print selected features per partition")
		savePath  = flag.String("save-model", "", "persist the trained model to this file")
	)
	flag.Parse()

	graph, lms, err := loadWorld(*worldPath)
	if err != nil {
		fatal(err)
	}
	s, err := stmaker.New(stmaker.Config{Graph: graph, Landmarks: lms, K: *k})
	if err != nil {
		fatal(err)
	}
	train, err := loadTrips(*trainPath)
	if err != nil {
		fatal(err)
	}
	stats, err := s.Train(train)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "trained on %d/%d trajectories (%d transitions)\n",
		stats.Calibrated, len(train), stats.Transitions)
	if *savePath != "" {
		if err := s.SaveModelFile(*savePath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved model to %s\n", *savePath)
	}

	input, err := loadTrips(*inputPath)
	if err != nil {
		fatal(err)
	}
	if *n > 0 && *n < len(input) {
		input = input[:*n]
	}
	for _, r := range input {
		sum, err := s.Summarize(r)
		if err != nil {
			fmt.Printf("%s: cannot summarize: %v\n", r.ID, err)
			continue
		}
		if *verbose {
			fmt.Printf("%s:\n%s\n", r.ID, stmaker.Describe(sum))
		} else {
			fmt.Printf("%s: %s\n", r.ID, sum.Text)
		}
	}
}

func loadWorld(path string) (*roadnet.Graph, *landmark.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return worldio.LoadWorld(f)
}

func loadTrips(path string) ([]*traj.Raw, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return worldio.LoadTrips(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stmaker:", err)
	os.Exit(1)
}

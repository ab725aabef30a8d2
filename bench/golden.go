package main

import (
	"crypto/sha256"
	"embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"

	"chop/internal/core"
	"chop/internal/experiments"
)

// Golden outputs are written once by -write-golden and compared on every
// op. The tables golden must also agree with EXPERIMENTS.md (bench_test.go
// pins the published numbers).
//
//go:embed testdata/*.json
var goldenFS embed.FS

// tablesGolden is paper Tables 3-6 without the CPU column.
type tablesGolden struct {
	Exp1 expTables `json:"exp1"`
	Exp2 expTables `json:"exp2"`
}

type expTables struct {
	Counts  []experiments.CountsRow `json:"counts"`
	Results []experiments.ResultRow `json:"results"`
}

func (g *tablesGolden) exp(n int) *expTables {
	if n == 1 {
		return &g.Exp1
	}
	return &g.Exp2
}

// fig7Golden is Figure 7 per partition count, plus the digest of the whole
// Explore(1,2,3) point list.
type fig7Golden struct {
	Parts        []fig7Part `json:"parts"`
	PointsSHA256 string     `json:"points_sha256"`
}

type fig7Part struct {
	Partitions        int    `json:"partitions"`
	FullTrials        int    `json:"full_trials"`
	PrunedTrials      int    `json:"pruned_trials"`
	Points            int    `json:"points"`
	Predictions       int    `json:"predictions"`
	UniquePredictions int    `json:"unique_predictions"`
	PointsSHA256      string `json:"points_sha256"`
}

// stress6Golden pins the stress search. Best is its (interval, delay)
// front: the seed reorders each partition's designs, which may pick a
// different design among ties but never moves the front.
type stress6Golden struct {
	Trials         int      `json:"trials"`
	FeasibleTrials int      `json:"feasible_trials"`
	Best           [][2]int `json:"best"`
}

func fig7PartOf(n int, f experiments.Figure) fig7Part {
	h := sha256.New()
	hashPoints(h, f.Points)
	return fig7Part{
		Partitions:        n,
		FullTrials:        f.FullTrials,
		PrunedTrials:      f.PrunedTrials,
		Points:            len(f.Points),
		Predictions:       f.Predictions,
		UniquePredictions: f.UniquePredictions,
		PointsSHA256:      hex.EncodeToString(h.Sum(nil)),
	}
}

// hashPoints feeds the exact bits of every point to h.
func hashPoints(h hash.Hash, pts []core.SpacePoint) {
	var buf [25]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(p.AreaML))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.DelayNS))
		binary.LittleEndian.PutUint64(buf[16:], uint64(p.IIMain))
		buf[24] = 0
		if p.Feasible {
			buf[24] = 1
		}
		h.Write(buf[:])
	}
}

// front lists Best's (interval, delay) pairs.
func front(best []core.GlobalDesign) [][2]int {
	out := make([][2]int, len(best))
	for i, g := range best {
		out[i] = [2]int{g.IIMain, g.DelayMain}
	}
	return out
}

func loadGolden(name string, v any) error {
	data, err := goldenFS.ReadFile("testdata/" + name + ".json")
	if err != nil {
		return fmt.Errorf("golden %s: %w (run -write-golden)", name, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("golden %s: %w", name, err)
	}
	return nil
}

func writeGolden(dir, name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644)
}

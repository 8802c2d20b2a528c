package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"

	"parms/internal/grid"
	"parms/internal/merge"
	"parms/internal/synth"
)

// TestMergedGolden pins the merged output bytes: the sha256 of every
// surviving complex's Serialize() payload, in block-id order, and of the
// output file, for a full merge and for a partial merge of the same
// noise field over 8 ranks. Unlike TestScheduleIndependence, which only
// compares two schedules with each other, these hashes fail on any
// change to the merged complexes.
func TestMergedGolden(t *testing.T) {
	const procs = 8
	vol := synth.Random(grid.Dims{21, 21, 21}, 1)

	cases := []struct {
		name      string
		radices   []int
		complexes []string
		file      string
	}{
		{
			name:    "full",
			radices: merge.Full(procs).Radices,
			complexes: []string{
				"6a37078ff5e5ac262b1b1409387c9e59b2b0a56fb3eacaac60f7ebf1a741680e",
			},
			file: "6c3e302f49583785adca96b98561a01204b580b0414d98a1269a015b511cc31f",
		},
		{
			name:    "partial-2x2",
			radices: []int{2, 2},
			complexes: []string{
				"bf1a88c28453fbb19da59f93093701c4873d7ff393eb84b414ccb005b90ecaeb",
				"dfc33fafaa1cb7eb9ee464ec71ce58738aa7d782ac515a54991fc138829e438f",
			},
			file: "74e5a356384274cbeb71f1009909448c459ca09d6bc6b7f9f34992791ed3c918",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, res := runPipeline(t, procs, Params{
				File: "vol", Dims: vol.Dims, DType: grid.F32,
				Radices: tc.radices, Persistence: 0.01,
				KeepComplexes: true,
			}, vol)
			ids := make([]int, 0, len(res.Complexes))
			for id := range res.Complexes {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			var got []string
			for _, id := range ids {
				sum := sha256.Sum256(res.Complexes[id].Serialize())
				got = append(got, hex.EncodeToString(sum[:]))
			}
			out, err := c.FS().Get("vol.msc")
			if err != nil {
				t.Fatalf("read output: %v", err)
			}
			fileSum := sha256.Sum256(out)
			if len(got) != len(tc.complexes) {
				t.Fatalf("%d surviving complexes %q, want %d", len(got), got, len(tc.complexes))
			}
			for i := range got {
				if got[i] != tc.complexes[i] {
					t.Errorf("complex of block %d: sha256 %s, want %s", ids[i], got[i], tc.complexes[i])
				}
			}
			if f := hex.EncodeToString(fileSum[:]); f != tc.file {
				t.Errorf("output file (%d bytes): sha256 %s, want %s", len(out), f, tc.file)
			}
		})
	}
}

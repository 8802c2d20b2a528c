// A known-clean mini-module for the end-to-end multichecker test: it
// exercises the legal idiom next to every invariant — seeded
// randomness, collect-then-sort map iteration and hoisted collectives —
// and must produce zero findings under the full suite. A broken analyzer that
// starts flagging legal code fails this test loudly instead of
// silently passing the repo.
package clean

import (
	"math/rand"
	"sort"

	"parms/internal/mpsim"
)

// SortedTotals drains a map deterministically: keys sorted before any
// order-sensitive consumption.
func SortedTotals(m map[string]int64) []int64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]int64, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// Shuffle permutes deterministically under an explicit seed.
func Shuffle(xs []int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// RootedGather is the disciplined collective pattern: every rank enters
// the collective; only the root branches afterwards on the result.
func RootedGather(r *mpsim.Rank, payload []byte) int {
	parts := r.Gather(0, payload)
	total := 0
	if r.ID() == 0 {
		for _, p := range parts {
			total += len(p)
		}
	}
	return total
}

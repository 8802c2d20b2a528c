// Fixture for the spmd collective-sequence matcher: rank-dependent
// control flow whose paths enter different collective sequences, in
// every shape the engine distinguishes — direct branch, early return,
// rank-bounded loop, struct-field taint, a returned collective error,
// and divergence smuggled through helper calls — next to the legal
// idioms (root-compute then uniform collective, identical arms, error
// aborts, param-bounded loops, breaks out of a switch or select) that
// must stay silent.
package spmd

import "parms/internal/mpsim"

// Direct mismatch: only rank 0 enters the Barrier.
func badDirect(r *mpsim.Rank) {
	if r.ID() == 0 { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		r.Barrier()
	}
}

// Legal: root-only compute, collective outside the branch.
func goodRooted(r *mpsim.Rank, data []byte) []byte {
	if r.ID() == 0 {
		data = append(data, 1)
	}
	return r.Bcast(0, data)
}

// Legal: both arms enter the same collective sequence.
func goodSameArms(r *mpsim.Rank, x float64) float64 {
	if r.ID() == 0 {
		return r.AllreduceFloat64(x, "max")
	}
	return r.AllreduceFloat64(x, "min")
}

// The two-frame chain: Drive derives a rank-tainted flag and hands it
// to stage, which hands it on to pick the collective path. The
// divergence is only visible through both summaries.
func reduceAll(r *mpsim.Rank, x float64) float64 {
	return r.AllreduceFloat64(x, "max")
}

func stage(r *mpsim.Rank, lead bool, x float64) float64 {
	if lead {
		return reduceAll(r, x)
	}
	return x
}

func Drive(r *mpsim.Rank, x float64) float64 {
	lead := r.ID() == 0
	return stage(r, lead, x) // want `spmd: call to stage selects between mismatched collective sequences`
}

// Legal use of the same helper: a rank-uniform flag selects the path,
// so every rank selects the same one.
func DriveUniform(r *mpsim.Rank, every bool, x float64) float64 {
	return stage(r, every, x)
}

// Early return: odd ranks skip the Barrier.
func badEarlyReturn(r *mpsim.Rank) {
	if r.ID()%2 == 1 { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		return
	}
	r.Barrier()
}

// Rank-dependent loop bound: ranks run different collective counts.
func badLoop(r *mpsim.Rank) {
	for i := 0; i < r.ID(); i++ { // want `spmd: collectives inside a loop whose iteration count is rank-dependent`
		r.Barrier()
	}
}

// Legal: the bound is a parameter — the caller is responsible for
// passing a uniform one, and Drive-style misuse is caught there.
func goodLoop(r *mpsim.Rank, rounds int) {
	for i := 0; i < rounds; i++ {
		r.Barrier()
	}
}

// Struct-field taint: the rank flag travels through a field.
type phase struct {
	leader bool
}

func badField(r *mpsim.Rank) {
	var p phase
	p.leader = r.ID() == 0
	if p.leader { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		r.Barrier()
	}
}

// Legal: the rank-guarded path aborts the whole run (error return);
// abort paths are excluded from sequence matching, as a crash takes
// the cluster down rather than deadlocking it.
func goodAbort(r *mpsim.Rank, err error) error {
	if r.ID() == 0 && err != nil {
		return err
	}
	r.Barrier()
	return nil
}

// Only rank 0 enters the Gather; the other arm is point-to-point, which
// is legal on any path and matches nothing.
func badElse(r *mpsim.Rank, data []byte) {
	if r.ID() != 0 { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		r.Send(0, 1, data)
	} else {
		_ = r.Gather(0, data)
	}
}

// The rank test assigned to a local before the branch.
func badTainted(r *mpsim.Rank) {
	root := r.ID() == 0
	if root { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		r.Barrier()
	}
}

// A rank-dependent branch nested under a uniform one, around a loop.
// The branch also taints the loop counter by implicit flow, so the loop
// is reported too: ranks outside the branch run zero rounds.
func badNested(r *mpsim.Rank, n int) {
	if n > 4 {
		if id := r.ID(); id < n/2 { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
			for i := 0; i < n; i++ { // want `spmd: collectives inside a loop whose iteration count is rank-dependent`
				_ = r.AllreduceFloat64(1.0, "sum")
			}
		}
	}
}

// A switch on the rank id with no default.
func badSwitch(r *mpsim.Rank) {
	switch r.ID() { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
	case 0:
		r.Barrier()
	}
}

// Returning the collective's own error is not an abort: rank 0 enters
// CollectiveWrite and the other ranks return without it.
func badCollectiveIO(r *mpsim.Rank, data []byte) error {
	if r.ID() == 0 { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		return r.CollectiveWrite("out", 0, data)
	}
	return nil
}

// Legal, the writeOutput pattern: root-only computation in the branch,
// the collective itself outside — every rank enters it.
func goodHoisted(r *mpsim.Rank, data []byte) error {
	var payload []byte
	if r.ID() == 0 {
		payload = data
	}
	return r.CollectiveWrite("out", 0, payload)
}

// Legal: no branch at all.
func goodUnconditional(r *mpsim.Rank) {
	r.Barrier()
	_ = r.AllreduceMaxTime()
}

// Legal: branching on cluster size is uniform across ranks.
func goodSizeBranch(r *mpsim.Rank, n int) {
	if r.Size() > n {
		r.Barrier()
	}
}

// The rank test hidden behind a helper: the condition is rank-tainted
// through the helper's taint fact, not any lexical ID call.
func isRoot(r *mpsim.Rank) bool {
	return r.ID() == 0
}

func badHelperWrapped(r *mpsim.Rank) {
	if isRoot(r) { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		r.Barrier()
	}
}

// Two frames deep: the flag is computed by one helper and laundered
// through a second before reaching the branch.
func lowHalf(r *mpsim.Rank) bool { return r.ID() < r.Size()/2 }

func launder(flag bool) bool { return flag }

func badTwoFrames(r *mpsim.Rank) {
	if launder(lowHalf(r)) { // want `spmd: rank-dependent control flow yields mismatched collective sequences`
		r.Barrier()
	}
}

// Legal: the same laundering helper fed a uniform flag — the callee's
// taint is parameter-conditional, not unconditional.
func goodLaundered(r *mpsim.Rank, every bool) {
	if launder(every) {
		r.Barrier()
	}
}

// Legal: an unlabeled break leaves the switch, not the function, so
// both arms fall through to the same (empty) sequence.
func goodBreakInSwitch(r *mpsim.Rank) {
	switch {
	case r.ID() == 0:
		break
	default:
	}
}

// Legal: the break exits the select, and every rank still reaches the
// Barrier after it.
func goodBreakInSelect(r *mpsim.Rank, done chan struct{}) {
	select {
	case <-done:
		break
	default:
	}
	r.Barrier()
}

// Legal: a labeled break may target any enclosing statement — here the
// switch, so rank 0 still reaches the Barrier. The walk gives up on
// functions with labeled branches rather than guess the target.
func goodLabeledSwitchBreak(r *mpsim.Rank) {
pick:
	switch {
	case r.ID() == 0:
		break pick
	}
	r.Barrier()
}

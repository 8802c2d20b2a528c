package mpsim

import (
	"encoding/binary"
	"math"
)

// Reserved tag space for collectives, far above any application tag.
const (
	tagBarrierUp = 1<<28 + iota
	tagBarrierDown
	tagBcast
	tagReduce
	tagGather
	tagAllgather
)

// Barrier blocks until every rank has entered it. Virtual clocks advance
// along a binomial reduce-broadcast tree rooted at rank 0, so after the
// barrier every clock reads at least the time the slowest rank arrived,
// plus the modeled synchronization cost.
func (r *Rank) Barrier() {
	r.collective("Barrier", noRoot)
	r.reduceTree(tagBarrierUp, nil, nil)
	r.bcastTreeRooted(0, tagBarrierDown, nil)
}

// Bcast distributes root's data to every rank and returns it. Non-root
// callers pass nil (or anything; the argument is ignored on non-roots).
func (r *Rank) Bcast(root int, data []byte) []byte {
	r.collective("Bcast", root)
	return r.bcastTreeRooted(root, tagBcast, data)
}

// AllreduceFloat64 combines one float64 across all ranks using op
// ("sum", "max", "min") and returns the result on every rank.
func (r *Rank) AllreduceFloat64(x float64, op string) float64 {
	r.collective("AllreduceFloat64", noRoot)
	return r.allreduce(x, op)
}

// allreduce reduces to rank 0 along the binomial tree and broadcasts
// the result back down it.
func (r *Rank) allreduce(x float64, op string) float64 {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(x))
	combine := func(a, b []byte) []byte {
		av := math.Float64frombits(binary.LittleEndian.Uint64(a))
		bv := math.Float64frombits(binary.LittleEndian.Uint64(b))
		var v float64
		switch op {
		case "max":
			v = math.Max(av, bv)
		case "min":
			v = math.Min(av, bv)
		default:
			v = av + bv
		}
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, math.Float64bits(v))
		return out
	}
	// reduceTree returns the combined payload on rank 0 and nil
	// elsewhere; non-roots receive theirs from the broadcast.
	out := r.bcastTreeRooted(0, tagBcast, r.reduceTree(tagReduce, buf, combine))
	return math.Float64frombits(binary.LittleEndian.Uint64(out))
}

// AllreduceMaxTime synchronizes virtual clocks across ranks (an
// Allreduce on the clock itself) and returns the global maximum. It is
// how the pipeline timestamps stage boundaries the way a real trace
// would (MPI_Wtime after MPI_Barrier).
func (r *Rank) AllreduceMaxTime() float64 {
	r.collective("AllreduceMaxTime", noRoot)
	return r.allreduce(float64(r.Clock()), "max")
}

// Gather collects each rank's data at the root. The returned slice has
// Size() elements indexed by rank on the root and is nil elsewhere.
// Payloads may have different lengths (MPI_Gatherv). The root receives
// in rank order, not arrival order: each receive advances the clock by
// max(clock, arrival) plus a fixed overhead, so an arrival-ordered
// fold would make the root's virtual time depend on host scheduling.
func (r *Rank) Gather(root int, data []byte) [][]byte {
	r.collective("Gather", root)
	return r.gather(root, data)
}

func (r *Rank) gather(root int, data []byte) [][]byte {
	if r.id == root {
		out := make([][]byte, r.Size())
		out[root] = data
		for src := 0; src < r.Size(); src++ {
			if src == root {
				continue
			}
			payload, _ := r.Recv(src, tagGather)
			out[src] = payload
		}
		return out
	}
	r.Send(root, tagGather, data)
	return nil
}

// AllgatherInt64 collects one int64 from every rank onto every rank.
func (r *Rank) AllgatherInt64(x int64) []int64 {
	r.collective("AllgatherInt64", noRoot)
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(x))
	parts := r.gather(0, buf)
	var packed []byte
	if r.id == 0 {
		packed = make([]byte, 8*r.Size())
		for i, p := range parts {
			copy(packed[8*i:], p)
		}
	}
	packed = r.bcastTreeRooted(0, tagAllgather, packed)
	out := make([]int64, r.Size())
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(packed[8*i:]))
	}
	return out
}

// reduceTree runs a binomial-tree reduction to rank 0. combine may be
// nil, in which case payloads are ignored (pure synchronization). The
// combined payload is returned on rank 0.
func (r *Rank) reduceTree(tag int, data []byte, combine func(a, b []byte) []byte) []byte {
	size := r.Size()
	acc := data
	for bit := 1; bit < size; bit <<= 1 {
		if r.id&bit != 0 {
			r.Send(r.id&^bit, tag, acc)
			return nil
		}
		peer := r.id | bit
		if peer < size {
			got, _ := r.Recv(peer, tag)
			if combine != nil {
				acc = combine(acc, got)
			}
		}
	}
	return acc
}

// bcastTreeRooted broadcasts from an arbitrary root by relabeling ranks
// relative to the root. In the binomial tree, a node's parent is its
// relative id with the lowest set bit cleared, and its children are
// relative ids obtained by setting each bit below that lowest set bit.
func (r *Rank) bcastTreeRooted(root, tag int, data []byte) []byte {
	size := r.Size()
	rel := mod(r.id-root, size)
	limit := rel & (-rel) // lowest set bit of rel
	if rel != 0 {
		parent := mod((rel&^limit)+root, size)
		data, _ = r.Recv(parent, tag)
	} else {
		limit = 1
		for limit < size {
			limit <<= 1
		}
	}
	for bit := limit >> 1; bit >= 1; bit >>= 1 {
		childRel := rel | bit
		if childRel != rel && childRel < size {
			r.Send(mod(childRel+root, size), tag, data)
		}
	}
	return data
}

func mod(a, m int) int {
	a %= m
	if a < 0 {
		a += m
	}
	return a
}

package obs

// defaultTimelineBuckets is the bucket count BuildTimeline uses when
// none is requested: fine enough to show phase structure at every
// scale the bench sweep runs, coarse enough that a 512-rank dump stays
// a few KB.
const defaultTimelineBuckets = 64

// maxTimelineBuckets bounds the requested resolution (msinsight
// -buckets).
const maxTimelineBuckets = 4096

// TimelineBucket is one virtual-time slice of a run: the communication
// and activity that happened inside [Start, End).
type TimelineBucket struct {
	Start float64
	End   float64
	// Sends binned by injection time, receives by completion time.
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64
	// BytesInFlight is the payload volume sent but not yet consumed at
	// the bucket's start (orphaned flows count until end of run).
	BytesInFlight int64
	// ActiveSpans counts spans covering the bucket's start across all
	// rank tracks.
	ActiveSpans int
	// WaitSeconds is the total receiver-blocked time overlapping the
	// bucket, summed over flows (and ranks).
	WaitSeconds float64
}

// BuildTimeline aggregates span tracks and flow records into a bucketed
// virtual-time timeline. It is a pure function of its inputs — equal
// snapshots produce equal timelines — so it runs on re-parsed trace
// files (msinsight) as well as on a tracer's own snapshot. buckets <= 0
// selects the default resolution.
func BuildTimeline(spans [][]Span, flows []Flow, buckets int) []TimelineBucket {
	if buckets <= 0 {
		buckets = defaultTimelineBuckets
	}
	if buckets > maxTimelineBuckets {
		buckets = maxTimelineBuckets
	}
	makespan := 0.0
	for _, track := range spans {
		for _, s := range track {
			if end := float64(s.End); end > makespan {
				makespan = end
			}
		}
	}
	for _, f := range flows {
		if end := float64(f.RecvVT); f.Done && end > makespan {
			makespan = end
		}
		if end := float64(f.ArriveVT); end > makespan {
			makespan = end
		}
	}
	if makespan <= 0 {
		return nil
	}
	width := makespan / float64(buckets)
	out := make([]TimelineBucket, buckets)
	for i := range out {
		out[i].Start = float64(i) * width
		out[i].End = float64(i+1) * width
	}
	idx := func(t float64) int {
		i := int(t / width)
		if i < 0 {
			i = 0
		}
		if i >= buckets {
			i = buckets - 1
		}
		return i
	}
	for _, track := range spans {
		for _, s := range track {
			start, end := float64(s.Start), float64(s.End)
			for i := idx(start); i < buckets && out[i].Start < end; i++ {
				if out[i].Start >= start {
					out[i].ActiveSpans++
				}
			}
		}
	}
	for _, f := range flows {
		send := float64(f.SendVT)
		out[idx(send)].MsgsSent++
		out[idx(send)].BytesSent += int64(f.Bytes)
		recv := makespan // orphans stay in flight to end of run
		if f.Done {
			recv = float64(f.RecvVT)
			out[idx(recv)].MsgsRecv++
			out[idx(recv)].BytesRecv += int64(f.Bytes)
		}
		for i := idx(send) + 1; i < buckets && out[i].Start < recv; i++ {
			// In flight at a bucket boundary: sent strictly before it,
			// consumed at or after it.
			out[i].BytesInFlight += int64(f.Bytes)
		}
		if w := f.WaitSeconds(); w > 0 {
			wStart := float64(f.RecvStartVT)
			wEnd := wStart + w
			for i := idx(wStart); i < buckets && out[i].Start < wEnd; i++ {
				lo, hi := out[i].Start, out[i].End
				if lo < wStart {
					lo = wStart
				}
				if hi > wEnd {
					hi = wEnd
				}
				if hi > lo {
					out[i].WaitSeconds += hi - lo
				}
			}
		}
	}
	return out
}

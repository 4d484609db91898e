package async

import (
	"slices"
	"time"
)

// tailWindow is how many of the most recent samples a latencyRing keeps for
// its tail quantile.
const tailWindow = 1024

// latencyRing summarizes a latency stream in constant memory: the mean of
// every sample from running sums, and a ring of the last tailWindow samples
// for the p99. It is guarded by its owner's mutex; add is O(1) and does not
// allocate, so a long-lived server's stats cost neither memory nor time that
// grows with uptime.
type latencyRing struct {
	n    int64
	sum  time.Duration
	last [tailWindow]time.Duration
}

// add records one sample.
func (r *latencyRing) add(d time.Duration) {
	r.last[r.n%tailWindow] = d
	r.n++
	r.sum += d
}

// mean returns the average of every sample, or 0 before the first.
func (r *latencyRing) mean() time.Duration {
	if r.n == 0 {
		return 0
	}
	return r.sum / time.Duration(r.n)
}

// window appends the retained samples, in no particular order, to dst. The
// owner copies them under its lock and hands the copy to p99 after
// releasing it.
func (r *latencyRing) window(dst []time.Duration) []time.Duration {
	return append(dst, r.last[:min(r.n, tailWindow)]...)
}

// p99 returns the nearest-rank 99th percentile of samples (the rule
// eval.LatencyHist.Quantile uses), or 0 for none. It sorts samples in place.
func p99(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	i := int(0.99*float64(len(samples))) - 1
	return samples[max(i, 0)]
}

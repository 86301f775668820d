package main

import (
	"math/bits"
	"runtime"
	"slices"
	"time"
)

// hist is a log-linear histogram of nanosecond durations: exact below 256
// ns, then 128 buckets per octave (bucket width under 0.8 % of the value).
// Its memory is fixed, so a pass records every op whatever its length
// without allocating inside the measured window.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 7
	histMaxBits = 40 // durations are clamped below 2^40 ns (18 min)
	histBuckets = (histMaxBits - histSubBits + 1) << histSubBits
)

func (h *hist) add(ns int64) {
	v := uint64(max(ns, 0))
	v = min(v, 1<<histMaxBits-1)
	e := max(bits.Len64(v)-histSubBits-1, 0)
	h.counts[e<<histSubBits+int(v>>e)]++
	h.n++
}

// bucketBounds reports the lowest value and the width of bucket i.
func bucketBounds(i int) (lo, width float64) {
	if i < 1<<histSubBits {
		return float64(i), 1
	}
	e := i>>histSubBits - 1
	return float64((i - e<<histSubBits) << e), float64(uint64(1) << e)
}

// valueAt returns the value at fractional rank (0 is the smallest sample),
// interpolated inside its bucket so reported times are not quantised.
func (h *hist) valueAt(rank float64) float64 {
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, width := bucketBounds(i)
			return lo + width*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	return 0
}

func (h *hist) quantile(q float64) float64 { return h.valueAt(q * float64(h.n-1)) }

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile of v, interpolated between neighbours.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// bestDecile is the value a tenth of the way from the best of v to the
// worst. Every timing statistic is computed per slice and reported as the
// best decile across slices, because interference on a shared host only
// ever slows the program down. On the reference host it comes in phases of
// seconds to minutes, inside which single ops run either at full speed or
// 1.4 to 2 times slower: between a calm and a contended phase the median
// latency of a slice moved by 30 to 60 %, its 5th percentile by 0.3 to 5 %.
func bestDecile(v []float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return quantile(v, 0.1)
	}
	return quantile(v, 0.9)
}

// numSlices is how many equal slices a measured window is cut into: a
// quarter of a second each in a driver's run of 10 s.
const numSlices = 40

// limits bounds one pass. A phase ends at whichever of its time and op
// limits comes first; a limit of 0 is absent. The driver's runs are bounded
// by time. A pass bounded by ops runs exactly that many, so its counts can
// be compared with another pass of the same seed: the traced pass, the
// self-check and the smoke test run that way.
type limits struct {
	warm, measure       time.Duration
	warmOps, measureOps int64
}

func timeLimits(d time.Duration) limits { return limits{warm: d / 20, measure: d} }

func opLimits(n int64) limits { return limits{warmOps: max(n/20, 1), measureOps: n} }

type slice struct {
	start, end int64
	ops        int64
	lat        hist
	heapInuse  uint64
}

// recorder cuts a pass into warm-up and numSlices measured slices. A
// workload reports each completed sample to op.
type recorder struct {
	base time.Time
	lim  limits
	// opsPerSample is how many ops one sample covers: 1 on the simulated
	// workloads and ctl_churn, the raises of one schedule round on raise_*.
	opsPerSample int64
	// atStart and atEnd run at the edges of the measured window, outside
	// every slice; they snapshot the per-layer counters.
	atStart, atEnd func()
	sampleHeap     bool

	attempted, failed int64
	warming           bool
	warmStart         int64
	warmOps, measured int64
	slices            [numSlices]slice
	cur               int
	done              bool
}

func newRecorder(lim limits, opsPerSample int64) *recorder {
	return &recorder{base: time.Now(), lim: lim, opsPerSample: opsPerSample,
		warming: true, sampleHeap: true}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin starts the warm-up and returns the first sample's start time.
func (r *recorder) begin() int64 {
	r.warmStart = r.now()
	return r.warmStart
}

// op records one sample that ran from start to end and returns the time
// the next sample starts: end, unless boundary work ran in between.
func (r *recorder) op(start, end int64, ok bool) int64 {
	r.attempted += r.opsPerSample
	if !ok {
		r.failed += r.opsPerSample
	}
	if r.warming {
		r.warmOps += r.opsPerSample
		if (r.lim.warm > 0 && end-r.warmStart >= int64(r.lim.warm)) ||
			(r.lim.warmOps > 0 && r.warmOps >= r.lim.warmOps) {
			r.warming = false
			if r.atStart != nil {
				r.atStart()
			}
			end = r.now()
			r.slices[0].start = end
		}
		return end
	}
	s := &r.slices[r.cur]
	s.ops += r.opsPerSample
	r.measured += r.opsPerSample
	s.lat.add(end - start)
	sliceOps := (r.lim.measureOps + numSlices - 1) / numSlices
	last := r.lim.measureOps > 0 && r.measured >= r.lim.measureOps
	if !last && !(r.lim.measure > 0 && end-s.start >= int64(r.lim.measure)/numSlices) &&
		!(sliceOps > 0 && s.ops >= sliceOps) {
		return end
	}
	s.end = end
	if r.sampleHeap {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		s.heapInuse = m.HeapInuse
	}
	if r.cur++; last || r.cur == numSlices {
		r.done = true
		if r.atEnd != nil {
			r.atEnd()
		}
		return end
	}
	end = r.now()
	r.slices[r.cur].start = end
	return end
}

// timing is what a finished pass measured, per op. Each statistic is
// computed per slice and is the best decile across slices.
type timing struct {
	ops       int64
	elapsedNs int64
	opsPerSec float64
	// p05 is the gated latency; see bestDecile and README.md for why it is
	// not the median.
	p05, p50, p99 float64
	// tail is the latency with ten samples beyond it over the whole window.
	tail       float64
	samples    uint64
	peakHeapMB float64
}

func (r *recorder) timing() timing {
	var t timing
	var rate, p05, p50, p99 []float64
	var all hist
	per := float64(r.opsPerSample)
	for i := range r.slices[:r.cur] {
		s := &r.slices[i]
		t.ops += s.ops
		t.elapsedNs += s.end - s.start
		rate = append(rate, float64(s.ops)/(float64(s.end-s.start)/1e9))
		p05 = append(p05, s.lat.quantile(0.05)/per)
		p50 = append(p50, s.lat.quantile(0.50)/per)
		p99 = append(p99, s.lat.quantile(0.99)/per)
		all.merge(&s.lat)
		t.peakHeapMB = max(t.peakHeapMB, float64(s.heapInuse)/(1<<20))
	}
	t.opsPerSec = bestDecile(rate, false)
	t.p05, t.p50, t.p99 = bestDecile(p05, true), bestDecile(p50, true), bestDecile(p99, true)
	t.samples = all.n
	if all.n > 10 {
		t.tail = all.valueAt(float64(all.n-11)) / per
	}
	return t
}

package main

import (
	"fmt"
	"math"
	"sort"
)

// tailBeyond is the number of samples the tail percentile must leave
// beyond it: a tail resting on fewer samples moves with every run.
const tailBeyond = 10

var nan = math.NaN()

// median of xs (the mean of the two middle values for even counts); NaN
// when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is the highest percentile of xs with at least tailBeyond samples
// beyond it: the value at rank n−tailBeyond (1-based) of the sorted
// samples. It returns that value, the percentile it sits at, and false
// when xs holds too few samples to leave tailBeyond beyond any rank.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return math.NaN(), 0, false
	}
	s := sorted(xs)
	rank := n - tailBeyond
	return s[rank-1], 100 * float64(rank) / float64(n), true
}

// interval is a closed-open time interval in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the part of parent not covered by any child: the parent's
// duration minus the length of the union of the children's intervals,
// each clipped to the parent. Overlapping children count once.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// latency is the summary of one op kind's latencies in milliseconds.
type latency struct {
	n       int
	p50     float64
	tail    float64
	tailPct float64
}

func summarize(ms []float64) latency {
	l := latency{n: len(ms), p50: median(ms)}
	l.tail, l.tailPct, _ = tail(ms)
	return l
}

func (l latency) String() string {
	return fmt.Sprintf("p50 %.3f ms, p%.1f %.3f ms (n=%d, %d beyond)", l.p50, l.tailPct, l.tail, l.n, tailBeyond)
}

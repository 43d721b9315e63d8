package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a percentile with fewer samples beyond it is one or two outliers, not a
// tail.
const minBeyond = 10

// tailLadder is the set of percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
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

// percentile returns the nearest-rank p-th percentile of xs and how many
// samples lie above its rank.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	s := sorted(xs)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k], len(s) - (k + 1)
}

// tail is a timing's highest reportable percentile.
type tail struct {
	P     float64 // percentile, e.g. 95
	Value float64
	N     int // sample count
	OK    bool
}

func (t tail) String() string {
	if !t.OK {
		return fmt.Sprintf("tail n/a (n=%d: no percentile has %d samples beyond it)", t.N, minBeyond)
	}
	return fmt.Sprintf("p%g=%.4g (n=%d)", t.P, t.Value, t.N)
}

// tailOf picks the highest percentile of the ladder that has at least
// minBeyond samples beyond it.
func tailOf(xs []float64) tail {
	for _, p := range tailLadder {
		if len(xs) == 0 {
			break
		}
		if v, beyond := percentile(xs, p); beyond >= minBeyond {
			return tail{P: p, Value: v, N: len(xs), OK: true}
		}
	}
	return tail{N: len(xs)}
}

// hmean is the harmonic mean of xs (0 when empty or any value is <= 0,
// which a successful cell's IPC never is).
func hmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var inv float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// ciGainPct is the percent gain of the control-independence model's
// harmonic-mean IPC over base's (the paper's Figure 10 headline).
func ciGainPct(baseIPCs, ciIPCs []float64) float64 {
	b, c := hmean(baseIPCs), hmean(ciIPCs)
	if b == 0 {
		return 0
	}
	return (c/b - 1) * 100
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s may name a metric or workload: letters,
// digits, '_', '.' and '-', starting with a letter or digit, at most 64.
func validName(s string) bool { return metricName.MatchString(s) }

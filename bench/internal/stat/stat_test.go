package stat

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, q2, q3, err := Quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := Quartiles([]float64{1}); err == nil {
		t.Error("Quartiles of one sample did not refuse")
	}
}

func TestTailRefusesP99BelowThousandSamples(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if pct, _, err := Tail(xs[:999]); err != nil || pct >= 99 {
		t.Errorf("Tail of 999 samples = p%v, %v; want below p99", pct, err)
	}
	pct, v, err := Tail(xs)
	if err != nil || pct != 99 || v != 990 {
		t.Errorf("Tail of 1..1000 = p%v %v, %v; want p99 990", pct, v, err)
	}
}

func TestTailKeepsTenBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i)
	}
	pct, v, err := Tail(xs)
	if err != nil || pct != 95 || v != 190 {
		t.Errorf("Tail(1..200) = %v %v %v; want 95 190", pct, v, err)
	}
	if _, _, err := Tail(xs[:10]); err == nil {
		t.Error("Tail of 10 samples did not refuse")
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("Median = %v, want 2", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("Median = %v, want 2.5", m)
	}
}

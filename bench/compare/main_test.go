package main

import "testing"

func TestCompare(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_refs_per_s", Better: "higher", Bound: 0.10}
	base := []float64{10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.0}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{8, 12, 9, 11, 10, 13, 7, 10, 12, 8}
	cases := []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"faster in every pair", lower, base, scale(base, 0.9), "gain"},
		{"slower by more than the bound", lower, base, scale(base, 1.2), "regression"},
		{"slower within the bound", lower, base, scale(base, 1.05), "same"},
		{"identical", lower, base, base, "same"},
		{"higher is better", higher, base, scale(base, 1.1), "gain"},
		{"lower throughput", higher, base, scale(base, 0.8), "regression"},
		{"spread wider than the bound", lower, noisy, scale(noisy, 1.01), "unresolved"},
		{"too few pairs for a gain", lower, base[:5], scale(base[:5], 0.9), "same"},
	}
	for _, c := range cases {
		got, err := compare(c.m, c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if got.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.verdict, c.want, got)
		}
	}
}

package prefetch

import (
	"runtime"
	"testing"

	"prefetchsim/internal/mem"
)

// blockMiss builds a miss Request for a raw block number with PC 1.
func blockMiss(b mem.Block) Request {
	return miss(1, mem.BlockAddr(b))
}

func blockTagged(b mem.Block) Request {
	return taggedHit(1, mem.BlockAddr(b))
}

func TestMarkovLearnsChainOnSecondPass(t *testing.T) {
	p := NewMarkov(1)
	chain := []mem.Block{100, 7, 912, 40, 2048}

	// First traversal: nothing known, nothing proposed.
	for _, b := range chain {
		if got := collect(p, blockMiss(b)); got != nil {
			t.Fatalf("first pass proposed %v at block %d", got, b)
		}
	}
	// Second traversal: each step proposes the recorded successor.
	for i, b := range chain[:len(chain)-1] {
		got := collect(p, blockMiss(b))
		if !equalBlocks(got, []mem.Block{chain[i+1]}) {
			t.Fatalf("second pass at block %d proposed %v, want [%d]", b, got, chain[i+1])
		}
	}
}

func TestMarkovChasesDepthAhead(t *testing.T) {
	p := NewMarkov(3)
	chain := []mem.Block{5, 300, 71, 9000, 12, 55}
	for _, b := range chain {
		collect(p, blockMiss(b))
	}
	// Revisiting the head chases three nodes ahead.
	got := collect(p, blockMiss(chain[0]))
	if !equalBlocks(got, []mem.Block{300, 71, 9000}) {
		t.Fatalf("depth-3 chase proposed %v, want [300 71 9000]", got)
	}
}

func TestMarkovTaggedHitContinuesChain(t *testing.T) {
	p := NewMarkov(1)
	chain := []mem.Block{10, 500, 33, 808}
	for range [2]struct{}{} {
		for _, b := range chain {
			collect(p, blockMiss(b))
		}
	}
	// A consumed prefetch tag at 500 keeps streaming: proposes 33.
	got := collect(p, blockTagged(500))
	if !equalBlocks(got, []mem.Block{33}) {
		t.Fatalf("tagged hit proposed %v, want [33]", got)
	}
}

func TestMarkovMRUSuccessorWins(t *testing.T) {
	p := NewMarkov(1)
	// 100 -> 200 then 100 -> 300: the MRU successor (300) is chased.
	for _, b := range []mem.Block{100, 200, 100, 300, 100} {
		collect(p, blockMiss(b))
	}
	// The final miss at 100 proposes the MRU successor 300 first.
	got := collect(p, blockMiss(400))
	_ = got // transition 100->400 recorded; nothing asserted here
	got = collect(p, blockMiss(100))
	if len(got) == 0 || got[0] != 400 {
		t.Fatalf("MRU successor not chased first: got %v, want 400 first", got)
	}
}

func TestMarkovTableBounded(t *testing.T) {
	p := NewMarkov(1)
	p.maxEntries = 64
	for i := 0; i < 10000; i++ {
		collect(p, blockMiss(mem.Block(i*3+1)))
	}
	if p.TableLen() > 64 {
		t.Fatalf("correlation table grew to %d entries past the %d bound", p.TableLen(), 64)
	}
}

// TestMarkovRefillAllocatesNothing feeds the correlation table more
// than markovMaxEntries distinct misses over 960 pages, twice. The
// first round fills the table, clears it at its bound and refills part
// of it; the second round clears and refills again from the table's
// free leaves and must allocate nothing.
func TestMarkovRefillAllocatesNothing(t *testing.T) {
	p := NewMarkov(1)
	emit := func(mem.Block) {}
	round := func() {
		for i := 0; i < markovMaxEntries*3/2; i++ {
			p.OnRead(blockMiss(mem.Block(i*5)), emit)
		}
	}
	round()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("second round allocated %d times, want 0", n)
	}
	if p.TableLen() >= markovMaxEntries {
		t.Fatalf("correlation table holds %d entries, bound %d", p.TableLen(), markovMaxEntries)
	}
}

func TestMarkovCrossesPages(t *testing.T) {
	if !CrossesPages(NewMarkov(1)) {
		t.Fatal("Markov must report page-crossing capability")
	}
	for _, p := range []Prefetcher{None{}, NewSequential(1), NewIDetection(256, 1),
		NewDefaultDDetection(1), NewAdaptive(1), NewPerceptron(1), NewBestOffset(1)} {
		if CrossesPages(p) {
			t.Fatalf("%s must stay page-bound", p.Name())
		}
	}
}

func TestPerceptronSilentWhenCold(t *testing.T) {
	p := NewPerceptron(2)
	// A random-looking stream with no repeated transition must issue
	// nothing: every (prevDelta, delta) pair is fresh, so no weight can
	// reach the threshold.
	blocks := []mem.Block{10, 999, 54, 7121, 3, 880, 45_001, 17, 6000, 321}
	total := 0
	for _, b := range blocks {
		total += len(collect(p, blockMiss(b)))
	}
	if total != 0 {
		t.Fatalf("cold perceptron issued %d prefetches on an irregular stream", total)
	}
}

func TestPerceptronLearnsRepeatingDeltaSequence(t *testing.T) {
	p := NewPerceptron(1)
	// Delta cycle +3, +9, +20: defeats single-stride detection, but the
	// (prevDelta, delta) transitions repeat every cycle.
	deltas := []int64{3, 9, 20}
	b := mem.Block(1000)
	warm := 0
	issuedRight := 0
	issuedWrong := 0
	for cyc := 0; cyc < 40; cyc++ {
		for _, d := range deltas {
			next := mem.Block(int64(b) + d)
			got := collect(p, blockMiss(b))
			for _, g := range got {
				if g == next {
					issuedRight++
				} else {
					issuedWrong++
				}
			}
			if len(got) == 0 {
				warm++
			}
			b = next
		}
	}
	if issuedRight < 60 {
		t.Fatalf("perceptron locked onto the cycle only %d times (wrong %d, silent %d)",
			issuedRight, issuedWrong, warm)
	}
	if issuedWrong > issuedRight/10 {
		t.Fatalf("perceptron issued %d wrong vs %d right predictions", issuedWrong, issuedRight)
	}
}

func TestPerceptronUnlearnsAfterPhaseChange(t *testing.T) {
	p := NewPerceptron(1)
	// Learn a +2 stream, then switch to irregular traffic; the stale +2
	// predictions must stop within the pending-ring horizon.
	b := mem.Block(100)
	for i := 0; i < 100; i++ {
		collect(p, blockMiss(b))
		b += 2
	}
	stale := 0
	r := uint64(12345)
	for i := 0; i < 400; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		nb := mem.Block(1_000_000 + r%100_000)
		for _, g := range collect(p, blockMiss(nb)) {
			if g == nb+2 {
				stale++
			}
		}
	}
	if stale > 120 {
		t.Fatalf("perceptron kept issuing the stale +2 prediction %d times into a random phase", stale)
	}
}

func TestBestOffsetAdoptsSingleStride(t *testing.T) {
	p := NewBestOffset(1)
	b := mem.Block(0)
	// Drive a stride-3 miss stream long enough for one learning phase
	// (boPhase triggers), then check the live set.
	for i := 0; i < 2*boPhase; i++ {
		collect(p, blockMiss(b))
		b += 3
	}
	live := p.Live()
	if len(live) != 1 || live[0] != 3 {
		t.Fatalf("live offsets after a stride-3 phase = %v, want [3]", live)
	}
	// Once live, every trigger proposes B+3.
	got := collect(p, blockMiss(b))
	if !equalBlocks(got, []mem.Block{b + 3}) {
		t.Fatalf("stride-3 trigger proposed %v, want [%d]", got, b+3)
	}
}

func TestBestOffsetHandlesInterleavedStreams(t *testing.T) {
	// Four same-stride streams interleaved round-robin: the per-PC
	// detectors see alternating deltas, but offset 2 satisfies every
	// stream.
	p := NewBestOffset(1)
	bases := []mem.Block{0, 1 << 16, 2 << 16, 3 << 16}
	step := mem.Block(0)
	for i := 0; i < 2*boPhase; i++ {
		s := i % len(bases)
		collect(p, blockMiss(bases[s]+step*2))
		if s == len(bases)-1 {
			step++
		}
	}
	live := p.Live()
	if len(live) != 1 || live[0] != 2 {
		t.Fatalf("live offsets on interleaved stride-2 streams = %v, want [2]", live)
	}
}

func TestBestOffsetStaysOffOnRandom(t *testing.T) {
	p := NewBestOffset(2)
	r := uint64(99)
	issued := 0
	for i := 0; i < 4000; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		issued += len(collect(p, blockMiss(mem.Block(r%(1<<20)))))
	}
	if issued != 0 {
		t.Fatalf("best-offset issued %d prefetches on a uniform random stream", issued)
	}
	if len(p.Live()) != 0 {
		t.Fatalf("best-offset adopted offsets %v from random traffic", p.Live())
	}
}

func TestBestOffsetMultiWidthAdoptsSeveralOffsets(t *testing.T) {
	// Two interleaved streams with different strides (+3 and +5): with
	// width 2 both offsets go live. (The strides share no harmonic in
	// the candidate list — 15 is not a candidate — so each stream is
	// served by its own stride.)
	p := NewBestOffset(2)
	a, b := mem.Block(0), mem.Block(1<<20)
	for i := 0; i < 2*boPhase; i++ {
		if i%2 == 0 {
			collect(p, blockMiss(a))
			a += 3
		} else {
			collect(p, blockMiss(b))
			b += 5
		}
	}
	live := p.Live()
	has := func(o int64) bool {
		for _, l := range live {
			if l == o {
				return true
			}
		}
		return false
	}
	if !has(3) || !has(5) {
		t.Fatalf("live offsets on +3/+5 interleave = %v, want both 3 and 5", live)
	}
}

func TestZooNames(t *testing.T) {
	for _, tc := range []struct {
		p    Prefetcher
		want string
	}{
		{NewMarkov(1), "Markov"},
		{NewPerceptron(1), "Perceptron"},
		{NewBestOffset(1), "BestOffset"},
	} {
		if got := tc.p.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

func TestZooConstructorsPanicOnBadDegree(t *testing.T) {
	for name, fn := range map[string]func(){
		"markov":     func() { NewMarkov(0) },
		"perceptron": func() { NewPerceptron(0) },
		"bestoffset": func() { NewBestOffset(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on degree 0", name)
				}
			}()
			fn()
		}()
	}
}

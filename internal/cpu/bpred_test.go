package cpu

import (
	"testing"

	"hetcore/internal/trace"
)

func TestBPredConfigValidate(t *testing.T) {
	good := DefaultBPredConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.LocalEntries = 0
	if bad.Validate() == nil {
		t.Error("zero local entries accepted")
	}
	bad = good
	bad.LocalEntries = 1000 // not a power of two
	if bad.Validate() == nil {
		t.Error("non-power-of-two accepted")
	}
	bad = good
	bad.BTBEntries = 2047
	if bad.Validate() == nil {
		t.Error("BTB not divisible by ways accepted")
	}
}

func TestBPredLearnsBias(t *testing.T) {
	b, err := NewBPred(DefaultBPredConfig())
	if err != nil {
		t.Fatal(err)
	}
	pc := uint64(0x400)
	// Always-taken branch: after warmup, prediction should be perfect.
	for i := 0; i < 64; i++ {
		p := b.Predict(pc)
		b.Update(pc, true, p)
	}
	miss := 0
	for i := 0; i < 1000; i++ {
		p := b.Predict(pc)
		if b.Update(pc, true, p) {
			miss++
		}
	}
	if miss != 0 {
		t.Errorf("%d mispredicts on an always-taken branch", miss)
	}
}

func TestBPredLearnsLoop(t *testing.T) {
	b, _ := NewBPred(DefaultBPredConfig())
	pc := uint64(0x800)
	// Loop with trip count 4: T T T N repeating. The local 2-level
	// component should learn the pattern nearly perfectly.
	outcome := func(i int) bool { return i%4 != 3 }
	for i := 0; i < 256; i++ {
		p := b.Predict(pc)
		b.Update(pc, outcome(i), p)
	}
	miss := 0
	const n = 1000
	for i := 0; i < n; i++ {
		p := b.Predict(pc)
		if b.Update(pc, outcome(i), p) {
			miss++
		}
	}
	if rate := float64(miss) / n; rate > 0.05 {
		t.Errorf("loop pattern mispredict rate %.3f, want <= 0.05", rate)
	}
}

func TestBPredRandomIsHard(t *testing.T) {
	b, _ := NewBPred(DefaultBPredConfig())
	rng := trace.NewRNG(99)
	pc := uint64(0xc00)
	miss := 0
	const n = 4000
	for i := 0; i < n; i++ {
		p := b.Predict(pc)
		if b.Update(pc, rng.Bool(0.5), p) {
			miss++
		}
	}
	rate := float64(miss) / n
	if rate < 0.3 || rate > 0.7 {
		t.Errorf("random branch mispredict rate %.3f, want ≈0.5", rate)
	}
}

func TestBPredStats(t *testing.T) {
	b, _ := NewBPred(DefaultBPredConfig())
	p := b.Predict(0x10)
	b.Update(0x10, !p.Taken, p) // force mispredict
	s := b.Stats()
	if s.Lookups != 1 || s.Mispredicts != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBTBWarmsUp(t *testing.T) {
	b, _ := NewBPred(DefaultBPredConfig())
	pc := uint64(0x40)
	p := b.Predict(pc)
	if p.BTBHit {
		t.Error("cold BTB hit")
	}
	b.Update(pc, true, p) // inserts target
	p = b.Predict(pc)
	if !p.BTBHit {
		t.Error("BTB miss after insertion")
	}
}

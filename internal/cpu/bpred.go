// Package cpu implements the cycle-level out-of-order CPU core of the
// HetCore evaluation (Table III): a 4-wide machine with a tournament branch
// predictor, register renaming backed by ROB/IQ/LSQ structures, functional
// unit pools whose latencies depend on the implementation technology
// (CMOS vs TFET), the AdvHet dual-speed ALU cluster with dispatch-stage
// steering, and commit. Activity counters feed the energy model.
package cpu

import "fmt"

// BPredConfig sizes the tournament predictor of Table III.
type BPredConfig struct {
	// LocalEntries is the size of the local-history table and its PHT.
	LocalEntries int
	// GlobalEntries is the size of the gshare PHT and the chooser.
	GlobalEntries int
	// HistoryBits is the global history length.
	HistoryBits int
	// BTBEntries and BTBWays size the branch target buffer (2K, 4-way).
	BTBEntries, BTBWays int
}

// DefaultBPredConfig returns Table III's predictor: tournament 2-level,
// 4-way 2K-entry BTB.
func DefaultBPredConfig() BPredConfig {
	return BPredConfig{
		LocalEntries:  1024,
		GlobalEntries: 4096,
		HistoryBits:   12,
		BTBEntries:    2048,
		BTBWays:       4,
	}
}

// Validate checks the predictor geometry.
func (c BPredConfig) Validate() error {
	for _, v := range []struct {
		name string
		n    int
	}{
		{"LocalEntries", c.LocalEntries}, {"GlobalEntries", c.GlobalEntries},
		{"HistoryBits", c.HistoryBits}, {"BTBEntries", c.BTBEntries},
		{"BTBWays", c.BTBWays},
	} {
		if v.n <= 0 {
			return fmt.Errorf("cpu: predictor %s must be positive, got %d", v.name, v.n)
		}
	}
	if c.LocalEntries&(c.LocalEntries-1) != 0 || c.GlobalEntries&(c.GlobalEntries-1) != 0 {
		return fmt.Errorf("cpu: predictor table sizes must be powers of two")
	}
	if c.BTBEntries%c.BTBWays != 0 {
		return fmt.Errorf("cpu: BTB entries %d not divisible by ways %d", c.BTBEntries, c.BTBWays)
	}
	return nil
}

// BPredStats counts predictor activity.
type BPredStats struct {
	Lookups     uint64
	Mispredicts uint64
	BTBMisses   uint64
}

// BPred is the tournament predictor: a per-branch local 2-level component,
// a gshare global component, and a chooser that learns which component to
// trust per branch.
type BPred struct {
	cfg BPredConfig

	localHist []uint32 // per-branch history registers
	localPHT  []uint8  // 2-bit counters indexed by local history
	globalPHT []uint8  // 2-bit counters indexed by GHR ^ pc
	chooser   []uint8  // 2-bit: >=2 favours global
	ghr       uint32

	btbTags [][]uint64 // [set][way], zero = invalid
	btbLRU  [][]uint64
	btbTick uint64

	stats BPredStats
}

// NewBPred builds a predictor.
func NewBPred(cfg BPredConfig) (*BPred, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &BPred{
		cfg:       cfg,
		localHist: make([]uint32, cfg.LocalEntries),
		localPHT:  make([]uint8, cfg.LocalEntries),
		globalPHT: make([]uint8, cfg.GlobalEntries),
		chooser:   make([]uint8, cfg.GlobalEntries),
	}
	sets := cfg.BTBEntries / cfg.BTBWays
	b.btbTags = make([][]uint64, sets)
	b.btbLRU = make([][]uint64, sets)
	for i := range b.btbTags {
		b.btbTags[i] = make([]uint64, cfg.BTBWays)
		b.btbLRU[i] = make([]uint64, cfg.BTBWays)
	}
	// Weakly-taken initial state: branches are mostly taken.
	for i := range b.localPHT {
		b.localPHT[i] = 2
	}
	for i := range b.globalPHT {
		b.globalPHT[i] = 2
	}
	for i := range b.chooser {
		b.chooser[i] = 1 // weakly favour local
	}
	return b, nil
}

// Stats returns a copy of the counters.
func (b *BPred) Stats() BPredStats { return b.stats }

func (b *BPred) localIdx(pc uint64) int {
	return int(pc>>2) & (b.cfg.LocalEntries - 1)
}

func (b *BPred) globalIdx(pc uint64) int {
	return (int(pc>>2) ^ int(b.ghr)) & (b.cfg.GlobalEntries - 1)
}

func (b *BPred) chooserIdx(pc uint64) int {
	return int(pc>>2) & (b.cfg.GlobalEntries - 1)
}

// Prediction is the frontend's view of one branch.
type Prediction struct {
	Taken bool
	// BTBHit reports whether the target was available; a predicted-taken
	// branch without a BTB entry costs a fetch bubble even when the
	// direction is right.
	BTBHit bool
}

// Predict returns the direction/target prediction for the branch at pc.
func (b *BPred) Predict(pc uint64) Prediction {
	b.stats.Lookups++
	li := b.localIdx(pc)
	localTaken := b.localPHT[(int(b.localHist[li])^li)&(b.cfg.LocalEntries-1)] >= 2
	globalTaken := b.globalPHT[b.globalIdx(pc)] >= 2
	taken := localTaken
	if b.chooser[b.chooserIdx(pc)] >= 2 {
		taken = globalTaken
	}
	p := Prediction{Taken: taken, BTBHit: b.btbLookup(pc)}
	return p
}

// Update trains the predictor with the branch's actual outcome and returns
// whether the earlier prediction would have been a mispredict.
func (b *BPred) Update(pc uint64, taken bool, pred Prediction) bool {
	li := b.localIdx(pc)
	lIdx := (int(b.localHist[li]) ^ li) & (b.cfg.LocalEntries - 1)
	gIdx := b.globalIdx(pc)
	localTaken := b.localPHT[lIdx] >= 2
	globalTaken := b.globalPHT[gIdx] >= 2

	// Chooser learns toward whichever component was right.
	ci := b.chooserIdx(pc)
	if localTaken != globalTaken {
		if globalTaken == taken {
			b.chooser[ci] = sat(b.chooser[ci], true)
		} else {
			b.chooser[ci] = sat(b.chooser[ci], false)
		}
	}
	b.localPHT[lIdx] = sat(b.localPHT[lIdx], taken)
	b.globalPHT[gIdx] = sat(b.globalPHT[gIdx], taken)
	b.localHist[li] = (b.localHist[li] << 1) | bit(taken)
	b.ghr = ((b.ghr << 1) | bit(taken)) & ((1 << uint(b.cfg.HistoryBits)) - 1)

	if taken {
		b.btbInsert(pc)
	}
	misp := pred.Taken != taken
	if misp {
		b.stats.Mispredicts++
	}
	if !misp && taken && !pred.BTBHit {
		b.stats.BTBMisses++
	}
	return misp
}

// sat saturates a 2-bit counter toward taken/not-taken.
func sat(c uint8, up bool) uint8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

func bit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func (b *BPred) btbSet(pc uint64) int {
	return int(pc>>2) % len(b.btbTags)
}

func (b *BPred) btbLookup(pc uint64) bool {
	set := b.btbSet(pc)
	for w, tag := range b.btbTags[set] {
		if tag == pc {
			b.btbTick++
			b.btbLRU[set][w] = b.btbTick
			return true
		}
	}
	return false
}

func (b *BPred) btbInsert(pc uint64) {
	set := b.btbSet(pc)
	victim := 0
	for w, tag := range b.btbTags[set] {
		if tag == pc {
			return
		}
		if tag == 0 {
			victim = w
			break
		}
		if b.btbLRU[set][w] < b.btbLRU[set][victim] {
			victim = w
		}
	}
	b.btbTick++
	b.btbTags[set][victim] = pc
	b.btbLRU[set][victim] = b.btbTick
}

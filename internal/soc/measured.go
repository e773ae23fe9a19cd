package soc

import (
	"sync"

	"hetcore/internal/gpu"
	"hetcore/internal/hetsim"
	"hetcore/internal/trace"
)

// A daemon resolves soc and traffic keys from the key alone, so every
// soc mix and traffic scenario of one (workload, seed, budget) needs the
// same component runs. The direct measurements below keep this
// process's recent runs, so such keys measure a workload once rather
// than once per key. The runs are pure functions of what they are keyed
// by, so a kept run is exactly what a fresh one would return.

// memoCap bounds each memo: a fresh seed adds at most one entry per
// workload or kernel, and the oldest entry goes first.
const memoCap = 256

// memo is a bounded, concurrency-safe single-flight cache: concurrent
// callers of one key wait for the first caller's result.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	items map[K]*memoItem[V]
	order []K // insertion order, for eviction
}

type memoItem[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func (m *memo[K, V]) get(k K, f func() (V, error)) (V, error) {
	m.mu.Lock()
	it, ok := m.items[k]
	if ok {
		m.mu.Unlock()
		<-it.done
		return it.val, it.err
	}
	if m.items == nil {
		m.items = make(map[K]*memoItem[V])
	}
	if len(m.order) == memoCap {
		delete(m.items, m.order[0])
		m.order = append(m.order[:0], m.order[1:]...)
	}
	it = &memoItem[V]{done: make(chan struct{})}
	m.items[k] = it
	m.order = append(m.order, k)
	m.mu.Unlock()
	it.val, it.err = f()
	close(it.done)
	return it.val, it.err
}

type runKey struct {
	name        string
	seed, instr uint64
}

var (
	coreMemo   memo[runKey, [2]hetsim.CPUResult]
	kernelMemo memo[runKey, hetsim.GPUResult]
)

// MeasureCoreRuns is CoreRuns simulated in this process: out[2i] and
// out[2i+1] are the 1-core CMOS and TFET runs of workloads[i], each
// workload's pair simulated once per (workload, seed, budget) while this
// process keeps it.
func MeasureCoreRuns(workloads []string, seed, totalInstr uint64) ([]hetsim.CPUResult, error) {
	sim := hetsim.Simulate(hetsim.RunOpts{TotalInstructions: totalInstr, Seed: seed})
	out := make([]hetsim.CPUResult, 0, 2*len(workloads))
	for _, name := range workloads {
		pair, err := coreMemo.get(runKey{name, seed, totalInstr}, func() ([2]hetsim.CPUResult, error) {
			prof, err := trace.CPUWorkload(name)
			if err != nil {
				return [2]hetsim.CPUResult{}, err
			}
			runs, err := CoreRuns([]trace.Profile{prof}, nil, sim)
			if err != nil {
				return [2]hetsim.CPUResult{}, err
			}
			return [2]hetsim.CPUResult{runs[0], runs[1]}, nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, pair[0], pair[1])
	}
	return out, nil
}

// measureKernel is the AdvHet GPU run on the named kernel, simulated in
// this process once per (kernel, seed) while this process keeps it.
func measureKernel(name string, seed uint64) (hetsim.GPUResult, error) {
	return kernelMemo.get(runKey{name: name, seed: seed}, func() (hetsim.GPUResult, error) {
		gcfg, err := hetsim.GPUConfigByName(GPUConfig)
		if err != nil {
			return hetsim.GPUResult{}, err
		}
		kern, err := gpu.KernelByName(name)
		if err != nil {
			return hetsim.GPUResult{}, err
		}
		return hetsim.RunGPU(gcfg, kern, seed)
	})
}

package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hetcore/internal/engine"
)

// smoke builds the CLIs into a temporary directory and runs each workload
// at toy scale: a 20,000-instruction budget, one set-up, a one-second
// warm window (two repetitions), and a two-second serve window over a
// six-request stream.
func smoke(t *testing.T, traced bool, workloads ...string) {
	if testing.Short() {
		t.Skip("builds the CLIs and runs workloads")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := loadDeclaration(root)
	if err != nil {
		t.Fatal(err)
	}
	want := decl.EndToEnd
	if traced {
		want = decl.PerLayer
	}
	pool, err := smokePool()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bin := t.TempDir()
	if err := buildCLIs(ctx, root, bin); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		e := &env{ctx: ctx, root: root, bin: bin, out: t.TempDir(), seed: 1,
			window: time.Second, instr: 20_000, setups: 1, pool: pool}
		if w == "serve" {
			e.window = 2 * time.Second
		}
		r, err := e.measure(w, traced, want)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !r.Correct || r.Attempted == 0 {
			t.Errorf("%s: correct %v, %d attempted, %d failed: %v",
				w, r.Correct, r.Attempted, r.Failed, r.problems)
		}
	}
}

// smokePool is a short request stream from the recorded log: its first
// four CPU keys, then two of them again, so a two-second window holds
// both simulated and cached replies.
func smokePool() ([]engine.Key, error) {
	log, err := parsePool(poolLog)
	if err != nil {
		return nil, err
	}
	var keys []engine.Key
	for _, k := range log {
		if k.Device == "cpu" && len(keys) < 4 {
			keys = append(keys, k)
		}
	}
	if len(keys) < 4 {
		return nil, fmt.Errorf("recorded log has %d CPU keys, want 4", len(keys))
	}
	return append(keys, keys[0], keys[1]), nil
}

func TestSmoke(t *testing.T) { smoke(t, false, "paper-cold", "paper-warm", "serve") }

// TestSmokeTraced covers both traced paths, the in-process replay of
// `hetcore all` and the traced serve loop, and every layer probe's
// equivalence check.
func TestSmokeTraced(t *testing.T) { smoke(t, true, "paper-warm", "serve") }

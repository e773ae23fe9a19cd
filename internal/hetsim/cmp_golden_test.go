package hetsim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hetcore/internal/trace"
)

// TestHeteroCMPResultGolden pins the exact HeteroCMPResult (makespan and
// every energy component) of the migration CMP, with and without
// migration, on three workloads of different memory behaviour. Any
// change to the multicore driver, the per-group activity split or the
// group pricing that moves a single bit fails here. Regenerate (only for
// an intended model change) with
// 'go test ./internal/hetsim -run HeteroCMPResultGolden -update'.
func TestHeteroCMPResultGolden(t *testing.T) {
	var got []HeteroCMPResult
	for _, migrate := range []bool{true, false} {
		hc := DefaultHeteroCMP()
		hc.Migrate = migrate
		for _, w := range []string{"barnes", "canneal", "lu"} {
			prof, err := trace.CPUWorkload(w)
			if err != nil {
				t.Fatal(err)
			}
			r, err := RunHeteroCMP(hc, prof, RunOpts{TotalInstructions: 20_000, Seed: 1})
			if err != nil {
				t.Fatalf("migrate=%v/%s: %v", migrate, w, err)
			}
			got = append(got, r)
		}
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	path := filepath.Join("testdata", "cmp_results.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if bytes.Equal(buf, want) {
		return
	}
	var wantRes []HeteroCMPResult
	if err := json.Unmarshal(want, &wantRes); err != nil {
		t.Fatal(err)
	}
	if len(wantRes) != len(got) {
		t.Fatalf("golden has %d results, got %d", len(wantRes), len(got))
	}
	for i := range got {
		if got[i] != wantRes[i] {
			t.Errorf("migrate=%v/%s drifted:\n got  %+v\n want %+v",
				got[i].Config.Migrate, got[i].Workload, got[i], wantRes[i])
		}
	}
}

package traffic

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzLoadTrace: the CSV and JSONL trace decoders return an error on
// malformed input, never panic, and every trace they accept validates.
// The corpus seeds from the testdata traces, each fed to both parsers.
func FuzzLoadTrace(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no testdata traces (%v)", err)
	}
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, true)
		f.Add(data, false)
	}
	f.Add([]byte("1,NaN\n"), false)
	f.Add([]byte(`{"epoch_sec": 1e999, "rps": 1}`), true)

	f.Fuzz(func(t *testing.T, data []byte, jsonl bool) {
		path := filepath.Join(t.TempDir(), "fuzz.csv")
		if jsonl {
			path = strings.TrimSuffix(path, ".csv") + ".jsonl"
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tr, err := LoadTrace(path)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace does not validate: %v", err)
		}
	})
}

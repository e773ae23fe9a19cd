package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// sections splits `hetcore all` text output into its experiment tables,
// keyed by experiment id, in order. A section starts at a
// "== <id>: <title> ==" header line and runs to the next header; trailing
// blank lines are dropped so the last table compares like the others.
func sections(out string) (ids []string, byID map[string]string) {
	byID = map[string]string{}
	var cur string
	var buf []string
	flush := func() {
		if cur != "" {
			byID[cur] = strings.TrimRight(strings.Join(buf, "\n"), "\n")
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if id, ok := headerID(line); ok {
			flush()
			cur, buf = id, nil
			ids = append(ids, id)
		}
		if cur != "" {
			buf = append(buf, line)
		}
	}
	flush()
	return ids, byID
}

// headerID returns the experiment id of a "== <id>: <title> ==" line.
func headerID(line string) (string, bool) {
	if !strings.HasPrefix(line, "== ") || !strings.HasSuffix(line, " ==") {
		return "", false
	}
	id, _, ok := strings.Cut(line[3:], ": ")
	if !ok || id == "" || strings.ContainsAny(id, " =") {
		return "", false
	}
	return id, true
}

// matchReference reports every section of the committed reference
// output (results_full.txt) that is missing from out or differs from it
// byte for byte. Sections of out that the reference lacks are ignored:
// the reference predates the extension experiments.
func matchReference(reference, out string) []string {
	refIDs, ref := sections(reference)
	_, got := sections(out)
	var bad []string
	for _, id := range refIDs {
		if g, ok := got[id]; !ok {
			bad = append(bad, id+" missing")
		} else if g != ref[id] {
			bad = append(bad, id+" differs")
		}
	}
	return bad
}

// checkHeaders reports an error unless out holds exactly the given
// experiment headers, in order.
func checkHeaders(out string, want []string) error {
	got, _ := sections(out)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Errorf("experiment headers %v, want %v", got, want)
	}
	return nil
}

// manifest is the part of a -metrics-out report the checks read.
type manifest struct {
	JobsRun   uint64 `json:"engine_jobs_run"`
	DiskHits  uint64 `json:"engine_disk_hits"`
	CacheHits uint64 `json:"engine_cache_hits"`
}

func readManifest(path string) (manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return manifest{}, err
	}
	var rep struct {
		Manifest manifest `json:"manifest"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return manifest{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return rep.Manifest, nil
}

// cacheEntries counts the result files of a dist disk cache.
func cacheEntries(dir string) (int, error) {
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".json") {
			n++
		}
		return nil
	})
	return n, err
}

package dist

import (
	"os"
	"path/filepath"

	"hetcore/internal/engine"
	"hetcore/internal/obs"
)

// DiskCache is the persistent content-addressed result cache: one file
// per engine key under dir, named by the key's SHA-256 and fanned out
// over 256 subdirectories. It implements engine.Cache, so repeated CLI
// invocations (and the CI suite) skip already-simulated points entirely.
//
// Each entry is a binary header followed by the codec payload:
//
//	varint len, stamp   CacheVersion + device-table stamp; anything else
//	                    is stale
//	varint len, key     the rendered engine key, both for debuggability
//	                    and as a guard: a hash filename collision (or a
//	                    copied file) parses but fails the key comparison
//	                    and misses
//	varint len, type    the registered result name
//	payload             EncodeResult's bytes, to the end of the file
//
// Robustness contract: a corrupt, truncated, stale-stamped or
// foreign-typed entry — an entry of an older JSON generation included —
// is a miss (the job recomputes and overwrites it), never an error.
// Writes go through a temp file plus rename, so a killed process can
// leave at worst an ignored *.tmp, not a torn entry.
type DiskCache struct {
	dir   string
	stamp string
	o     *obs.Observer
}

// OpenCache opens (creating if needed) a persistent result cache rooted
// at dir. o receives the dist.cache_disk_* counters; nil disables them.
func OpenCache(dir string, o *obs.Observer) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DiskCache{dir: dir, stamp: Stamp(), o: o}, nil
}

func (c *DiskCache) count(name string) {
	if reg := c.o.Reg(); reg != nil {
		reg.Counter(name).Inc()
	}
}

// path returns the entry file for a key: dir/<hh>/<hash>.json with hh
// the first hash byte, keeping directories small for big sweeps. The
// suffix predates the binary format and is kept so tools that count
// entries by it keep working.
func (c *DiskCache) path(k engine.Key) string {
	h := k.Hash()
	return filepath.Join(c.dir, h[:2], h[2:]+".json")
}

// Get implements engine.Cache. Any failure mode is a miss.
func (c *DiskCache) Get(k engine.Key) (any, bool) {
	raw, err := os.ReadFile(c.path(k))
	if err != nil {
		c.count("dist.cache_disk_misses")
		return nil, false
	}
	stamp, key, typeName, payload, err := splitEntry(raw)
	if err != nil {
		c.count("dist.cache_disk_corrupt")
		return nil, false
	}
	if string(stamp) != c.stamp {
		c.count("dist.cache_disk_stale")
		return nil, false
	}
	if string(key) != k.String() {
		c.count("dist.cache_disk_corrupt")
		return nil, false
	}
	v, err := DecodeResult(string(typeName), payload)
	if err != nil {
		c.count("dist.cache_disk_corrupt")
		return nil, false
	}
	c.count("dist.cache_disk_hits")
	return v, true
}

// Put implements engine.Cache. Failures (unregistered type, full disk)
// are recorded as counters and otherwise ignored: the cache is an
// accelerator, never a correctness dependency.
func (c *DiskCache) Put(k engine.Key, v any) {
	rc, err := codecFor(v)
	if err != nil {
		c.count("dist.cache_disk_unencodable")
		return
	}
	raw := rc.encode(appendEntryHeader(nil, c.stamp, k.String(), rc.name), v)
	path := c.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		c.count("dist.cache_disk_errors")
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "put-*.tmp")
	if err != nil {
		c.count("dist.cache_disk_errors")
		return
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		c.count("dist.cache_disk_errors")
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		c.count("dist.cache_disk_errors")
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		c.count("dist.cache_disk_errors")
		return
	}
	c.count("dist.cache_disk_writes")
}

// appendEntryHeader appends an entry's header: stamp, key and type
// name, each varint-length-prefixed.
func appendEntryHeader(b []byte, stamp, key, typeName string) []byte {
	return appendPrefixed(appendPrefixed(appendPrefixed(b, stamp), key), typeName)
}

// splitEntry parses an entry written by appendEntryHeader plus a
// payload.
func splitEntry(raw []byte) (stamp, key, typeName, payload []byte, err error) {
	d := decoder{b: raw}
	for _, f := range [...]*[]byte{&stamp, &key, &typeName} {
		if *f, err = d.prefixed(); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return stamp, key, typeName, d.b, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetcore/internal/dist"
	"hetcore/internal/engine"
)

// The serve load replays the recorded dist.Pool request stream (poolLog)
// as a closed loop: hetserved's real callers are dist.Pool engine lanes
// that each wait for their reply. Two connections match the host's two
// CPUs. The connections take the log's requests in order from one shared
// cursor. When the log runs out before the window closes, it starts
// again with a fresh seed, so its first requests of every key still miss
// the daemon's cache, as they did when it was recorded.
const conns = 2

// passSeed is the seed of the stream's p-th pass through the log: the
// run's seed first, then seeds no run's first pass uses.
func passSeed(seed uint64, p int) uint64 {
	if p == 0 {
		return seed
	}
	return seed + uint64(p)<<32
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
}

// post sends one job request and decodes the reply.
func post(c *http.Client, base string, k engine.Key) (dist.JobResponse, error) {
	body, err := json.Marshal(dist.JobRequest{Key: k})
	if err != nil {
		return dist.JobResponse{}, err
	}
	resp, err := c.Post(base+dist.PathJobs, "application/json", bytes.NewReader(body))
	if err != nil {
		return dist.JobResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // the status is the error
		return dist.JobResponse{}, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var jr dist.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return dist.JobResponse{}, fmt.Errorf("decoding reply: %w", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain so the connection is reused
	return jr, nil
}

// health checks that the daemon is up and built from the same code.
func health(c *http.Client, base string) (dist.HealthResponse, error) {
	resp, err := c.Get(base + dist.PathHealth)
	if err != nil {
		return dist.HealthResponse{}, err
	}
	defer resp.Body.Close()
	var h dist.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("decoding health: %w", err)
	}
	if !h.OK || h.Stamp != dist.Stamp() {
		return h, fmt.Errorf("daemon not ok or stamp %q != %q", h.Stamp, dist.Stamp())
	}
	return h, nil
}

// replyError validates one reply on its own.
func replyError(jr dist.JobResponse, k engine.Key) error {
	switch {
	case jr.Stamp != dist.Stamp():
		return fmt.Errorf("stamp %q", jr.Stamp)
	case jr.Error != "":
		return errors.New(jr.Error)
	case jr.Key != k.String():
		return fmt.Errorf("reply for %s", jr.Key)
	case jr.Type == "" || len(jr.Result) == 0:
		return errors.New("empty result")
	}
	return nil
}

// sample is one measured request.
type sample struct {
	idx    int // position in the request stream
	conn   int
	key    engine.Key
	start  time.Duration // since the window opened
	dur    time.Duration // client round trip
	err    error
	hit    bool    // the daemon served it from its cache
	wallMS float64 // the daemon's own wall time for the call
	timing dist.ServerTiming
	typ    string
	result json.RawMessage
}

// loadSpec describes one closed-loop window.
type loadSpec struct {
	base   string
	keys   []engine.Key // the stream's first pass
	seed   uint64
	window time.Duration
}

// runLoad drives conns closed-loop connections at the daemon until the
// window closes and returns every request in stream order, plus the wall
// time from the window opening to the last reply.
func runLoad(c *http.Client, s loadSpec) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(s.window)
	var cursor atomic.Int64
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := int(cursor.Add(1) - 1)
				k := s.keys[n%len(s.keys)]
				k.Seed = passSeed(s.seed, n/len(s.keys))
				t0 := time.Now()
				jr, err := post(c, s.base, k)
				sm := sample{idx: n, conn: i, key: k, start: t0.Sub(start), dur: time.Since(t0)}
				if err == nil {
					err = replyError(jr, k)
				}
				sm.err, sm.hit, sm.wallMS = err, jr.CacheHit, jr.WallMS
				sm.typ, sm.result = jr.Type, jr.Result
				if jr.Timing != nil {
					sm.timing = *jr.Timing
				}
				per[i] = append(per[i], sm)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].idx < all[j].idx })
	return all, elapsed
}

// checkLoad checks a closed loop's replies across requests and marks the
// requests that fail. given holds the encoded results the daemon's disk
// cache started with. Every key the daemon was given must come back as
// given, from its cache; every other key must simulate exactly once, and
// its later replies must be cache hits with the same payload. It returns
// the share of those other keys that simulated exactly once.
func checkLoad(samples []sample, given map[engine.Key][]byte) float64 {
	first := map[engine.Key][]byte{}
	runs := map[engine.Key]int{}
	for i := range samples {
		s := &samples[i]
		if s.err != nil {
			continue
		}
		if !s.hit {
			runs[s.key]++
		}
		want, isGiven := given[s.key]
		if !isGiven {
			want = first[s.key]
		}
		switch {
		case isGiven && !s.hit:
			s.err = errors.New("result the daemon held simulated again")
		case !s.hit && runs[s.key] > 1:
			s.err = errors.New("key simulated twice")
		case want != nil && !bytes.Equal(s.result, want):
			s.err = errors.New("payload differs from the key's first reply")
		}
		if first[s.key] == nil {
			first[s.key] = s.result
		}
	}
	fresh, once := 0, 0
	for k := range first {
		if _, isGiven := given[k]; !isGiven {
			fresh++
			if runs[k] == 1 {
				once++
			}
		}
	}
	if fresh == 0 {
		return 1
	}
	return float64(once) / float64(fresh)
}

// serveSetup brings up one fresh daemon on an empty cache and checks that
// it answers.
func (e *env) serveSetup(c *http.Client, dir string) (*daemon, error) {
	d, err := e.startDaemon(dir)
	if err != nil {
		return nil, err
	}
	if _, err := health(c, d.base); err != nil {
		d.stop() //nolint:errcheck // the health error is reported
		return nil, err
	}
	return d, nil
}

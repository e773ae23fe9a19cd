package engine

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// within runs f and fails the test if it has not returned after d: a
// guard that misses a nested call shows up as a hang, not a wrong value.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still blocked after %v", d)
	}
}

// wantNested fails unless err is the nested-Do diagnostic.
func wantNested(t *testing.T, what string, v any, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "nested Do") {
		t.Errorf("%s = %v, %v; want the nested-Do error", what, v, err)
	}
}

// TestNestedDoOnInFlightKeyFailsFast: a job that waits on a key still
// being computed — its own, or one another lane holds — gets the
// nested-Do error instead of hanging.
func TestNestedDoOnInFlightKeyFailsFast(t *testing.T) {
	t.Run("own key", func(t *testing.T) {
		e := New(1, nil)
		within(t, 5*time.Second, func() {
			v, err := e.Do(key(0), func() (any, error) {
				v, err := e.Do(key(0), func() (any, error) { return "inner", nil })
				wantNested(t, "Do on its own key", v, err)
				return "outer", nil
			})
			if err != nil || v.(string) != "outer" {
				t.Errorf("outer Do = %v, %v", v, err)
			}
		})
	})

	t.Run("other lane's key", func(t *testing.T) {
		e := New(2, nil)
		started := make(chan struct{})
		release := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Do(key(0), func() (any, error) { //nolint:errcheck
				close(started)
				<-release
				return 0, nil
			})
		}()
		<-started
		within(t, 5*time.Second, func() {
			_, err := e.Do(key(1), func() (any, error) {
				v, err := e.Do(key(0), func() (any, error) { return "dup", nil })
				wantNested(t, "Do on another lane's key", v, err)
				return 1, nil
			})
			if err != nil {
				t.Error(err)
			}
		})
		close(release)
		wg.Wait()
	})
}

// gateCache is a Cache that misses every key; its first Get of gate
// blocks until release closes, holding that key in flight.
type gateCache struct {
	gate             Key
	entered, release chan struct{}
	once             sync.Once
}

func (c *gateCache) Get(k Key) (any, bool) {
	if k == c.gate {
		c.once.Do(func() {
			close(c.entered)
			<-c.release
		})
	}
	return nil, false
}

func (c *gateCache) Put(Key, any) {}

// TestNestedRejectionNotMemoized: a key whose nested call was rejected
// is not cached as that error. A caller that was waiting on it, and any
// later caller from outside a job, run it normally.
func TestNestedRejectionNotMemoized(t *testing.T) {
	e := New(1, nil)
	c := &gateCache{gate: key(1), entered: make(chan struct{}), release: make(chan struct{})}
	e.SetCache(c)
	var ran atomic.Int64
	inner := func() (any, error) { ran.Add(1); return "inner", nil }

	var waiterVal any
	var waiterErr error
	var wg sync.WaitGroup
	within(t, 5*time.Second, func() {
		_, err := e.Do(key(0), func() (any, error) {
			// The nested call owns key(1) while the cache lookup
			// blocks; an outside caller queues behind it meanwhile.
			// The sleep only makes it likely that the caller is
			// already waiting when the rejection lands; it must get
			// the value in either order.
			go func() {
				<-c.entered
				wg.Add(1)
				go func() {
					defer wg.Done()
					waiterVal, waiterErr = e.Do(key(1), inner)
				}()
				time.Sleep(10 * time.Millisecond)
				close(c.release)
			}()
			v, err := e.Do(key(1), inner)
			wantNested(t, "nested Do", v, err)
			return "outer", nil
		})
		if err != nil {
			t.Error(err)
		}
		wg.Wait()
	})
	if waiterErr != nil || waiterVal != "inner" {
		t.Errorf("outside caller during the rejection = %v, %v; want inner", waiterVal, waiterErr)
	}
	if v, err := e.Do(key(1), inner); err != nil || v.(string) != "inner" {
		t.Errorf("Do after the rejection = %v, %v; want inner", v, err)
	}
	if ran.Load() != 1 {
		t.Errorf("key ran %d times after the rejection, want 1", ran.Load())
	}
}

// TestRunAllBoundedWorkers: a plan runs on at most Workers() goroutines,
// however many jobs it has.
func TestRunAllBoundedWorkers(t *testing.T) {
	e := New(2, nil)
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	jobs := make([]Job, 5000)
	for i := range jobs {
		i := i
		jobs[i] = Job{Key: key(i), Run: func() (any, error) {
			n := int64(runtime.NumGoroutine())
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			return i, nil
		}}
	}
	out, err := e.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load() - int64(base); got > int64(e.Workers()) {
		t.Errorf("RunAll started %d goroutines, want at most Workers() = %d", got, e.Workers())
	}
	for i, v := range out {
		if v.(int) != i {
			t.Fatalf("out[%d] = %v", i, v)
		}
	}
}

// cappedExec handles every key with at most capacity calls at once,
// declining beyond that as dist.Pool does. Each handled call blocks
// until capacity calls are running together, or a timeout passes.
type cappedExec struct {
	capacity  int
	cur, peak atomic.Int64
	full      chan struct{}
	fullOnce  sync.Once
}

func (x *cappedExec) Capacity() int { return x.capacity }

func (x *cappedExec) Execute(k Key) (any, bool, error) {
	n := x.cur.Add(1)
	defer x.cur.Add(-1)
	if n > int64(x.capacity) {
		return nil, false, nil
	}
	for p := x.peak.Load(); n > p && !x.peak.CompareAndSwap(p, n); p = x.peak.Load() {
	}
	if n == int64(x.capacity) {
		x.fullOnce.Do(func() { close(x.full) })
	}
	select {
	case <-x.full:
	case <-time.After(time.Second):
	}
	return k.Config, true, nil
}

// TestRunAllFillsExecutorCapacity: with an executor attached, RunAll
// runs enough workers to keep every remote slot busy, so -remote keeps
// its width on top of the local lanes.
func TestRunAllFillsExecutorCapacity(t *testing.T) {
	const capacity = 3
	x := &cappedExec{capacity: capacity, full: make(chan struct{})}
	e := New(1, nil)
	e.SetExecutor(x)
	jobs := make([]Job, 2*capacity)
	for i := range jobs {
		i := i
		jobs[i] = Job{Key: key(i), Run: func() (any, error) { return key(i).Config, nil }}
	}
	out, err := e.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.peak.Load(); got != capacity {
		t.Errorf("peak concurrent Execute calls = %d, want the executor's capacity %d", got, capacity)
	}
	for i, v := range out {
		if v.(string) != key(i).Config {
			t.Fatalf("out[%d] = %v", i, v)
		}
	}
}

// TestRunAllNotifyServesEachJobOnce: served(i) runs exactly once per
// job, after its result is final, whether the job ran, came from the
// second-level cache or was a memory hit.
func TestRunAllNotifyServesEachJobOnce(t *testing.T) {
	e := New(3, nil)
	c := &mapCache{m: map[Key]any{key(1): 1}}
	e.SetCache(c)
	if _, err := e.Do(key(2), func() (any, error) { return 2, nil }); err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 8)
	var ran atomic.Int64
	for i := range jobs {
		jobs[i] = Job{Key: key(i), Run: func() (any, error) {
			ran.Add(1)
			return i, nil
		}}
	}
	var mu sync.Mutex
	calls := make([]int, len(jobs))
	finished := make([]bool, len(jobs))
	out, err := e.RunAllNotify(jobs, func(i int) {
		mu.Lock()
		defer mu.Unlock()
		calls[i]++
		// The result is final: a second Do is a memory hit.
		v, err := e.Do(key(i), func() (any, error) { return -1, nil })
		finished[i] = err == nil && v.(int) == i
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if calls[i] != 1 || !finished[i] || out[i].(int) != i {
			t.Errorf("job %d: served %d times, final %v, result %v", i, calls[i], finished[i], out[i])
		}
	}
	if got := ran.Load(); got != int64(len(jobs)-2) {
		t.Errorf("%d jobs ran, want %d (one disk hit, one memory hit)", got, len(jobs)-2)
	}
}

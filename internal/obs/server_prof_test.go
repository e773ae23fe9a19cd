package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestServerPprofEndpoints: the net/http/pprof handlers are mounted on
// the telemetry listener, so any -serve run or hetserved daemon can be
// profiled in place.
func TestServerPprofEndpoints(t *testing.T) {
	s, _ := newTestServer(t)

	body, ct := get(t, s, "/debug/pprof/")
	if !strings.Contains(ct, "text/html") {
		t.Fatalf("pprof index content type = %q", ct)
	}
	if !strings.Contains(body, "goroutine") || !strings.Contains(body, "heap") {
		t.Fatalf("pprof index missing profile links:\n%.500s", body)
	}
	// A real profile endpoint must serve proto bytes (debug=0 default is
	// gzipped; debug=1 is human-readable and easier to assert on).
	body, _ = get(t, s, "/debug/pprof/goroutine?debug=1")
	if !strings.Contains(body, "goroutine profile") {
		t.Fatalf("goroutine profile body:\n%.200s", body)
	}
	body, _ = get(t, s, "/debug/pprof/cmdline")
	if body == "" {
		t.Fatal("empty cmdline profile body")
	}
}

// TestServerStatusRuntime: /metrics.json always carries the runtime
// block.
func TestServerStatusRuntime(t *testing.T) {
	s, _ := newTestServer(t)

	body, _ := get(t, s, "/metrics.json")
	var st ServerStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("undecodable status: %v", err)
	}
	if st.Runtime.HeapBytes == 0 || st.Runtime.Goroutines < 1 {
		t.Errorf("runtime block not populated: %+v", st.Runtime)
	}
}

// TestDashboardReadsRuntime: the dashboard header renders the runtime
// block fields.
func TestDashboardReadsRuntime(t *testing.T) {
	s, _ := newTestServer(t)
	body, _ := get(t, s, "/")
	for _, marker := range []string{"heap_bytes", "gc_cycles", "gc_pause_p99_ms", "goroutines"} {
		if !strings.Contains(body, marker) {
			t.Errorf("dashboard does not read runtime field %s", marker)
		}
	}
}

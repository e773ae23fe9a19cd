package harness

import (
	"strings"
	"testing"

	"hetcore/internal/dist"
)

// distTestOpts is the cheap fig7+fig8+fig9 matrix used by the
// distribution acceptance tests.
func distTestOpts(t *testing.T, cacheDir string, remote []string) Options {
	t.Helper()
	opts, err := Options{
		Instructions: 40_000, Seed: 1,
		Workloads: engineTestWorkloads, Jobs: 4,
		CacheDir: cacheDir, Remote: remote,
	}.WithSharedEngine()
	if err != nil {
		t.Fatal(err)
	}
	return opts
}

// renderWith runs fig7+fig8+fig9 on the given options and returns the
// concatenated formatted tables.
func renderWith(t *testing.T, opts Options) string {
	t.Helper()
	var buf strings.Builder
	for _, run := range []func(Options) (Table, error){Fig7, Fig8, Fig9} {
		tb, err := run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Format(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestDiskCacheAcrossEngines is the persistent-cache acceptance
// criterion in miniature: a second engine over the same -cache-dir must
// simulate nothing (JobsRun == 0, every point a disk hit) and render
// byte-identical tables.
func TestDiskCacheAcrossEngines(t *testing.T) {
	dir := t.TempDir()

	first := distTestOpts(t, dir, nil)
	out1 := renderWith(t, first)
	simulated, stored := fig7Jobs(t)
	matrix := simulated + stored
	if got := first.Engine.JobsRun(); got != matrix {
		t.Fatalf("first run JobsRun = %d, want %d", got, matrix)
	}

	second := distTestOpts(t, dir, nil)
	out2 := renderWith(t, second)
	if got := second.Engine.JobsRun(); got != 0 {
		t.Errorf("second run JobsRun = %d, want 0 (fully cache-served)", got)
	}
	if got := second.Engine.DiskHits(); got != matrix {
		t.Errorf("second run DiskHits = %d, want %d", got, matrix)
	}
	if out1 != out2 {
		t.Errorf("cached rerun is not byte-identical:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", out1, out2)
	}
	checkPricedCells(t, second)
}

// TestRemoteMatchesLocal is the remote-execution acceptance criterion:
// the same figures rendered through a hetserved daemon must be
// byte-identical to the purely local run, with every stock point
// executed remotely.
func TestRemoteMatchesLocal(t *testing.T) {
	local := renderWith(t, distTestOpts(t, "", nil))

	d, err := dist.NewDaemon(dist.DaemonConfig{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	opts := distTestOpts(t, "", []string{d.Addr()})
	remote := renderWith(t, opts)
	if local != remote {
		t.Errorf("remote run is not byte-identical to local:\n--- local ---\n%s\n--- remote ---\n%s", local, remote)
	}
	// The pool contributes extra lanes (SlotsPerWorker per daemon), not a
	// replacement for the local pool: jobs beyond the remote slot count
	// run locally. Every point must execute exactly once somewhere, with
	// at least one genuinely remote.
	simulated, stored := fig7Jobs(t)
	matrix := simulated + stored
	remoteJobs, localJobs := opts.Engine.RemoteJobs(), opts.Engine.JobsRun()
	if remoteJobs+localJobs != matrix {
		t.Errorf("RemoteJobs(%d) + JobsRun(%d) = %d, want %d (each point exactly once)",
			remoteJobs, localJobs, remoteJobs+localJobs, matrix)
	}
	if remoteJobs == 0 {
		t.Error("RemoteJobs = 0: the healthy daemon was never used")
	}
	if got := d.Engine().JobsRun(); got != remoteJobs {
		t.Errorf("daemon JobsRun = %d, want %d (one per remote job)", got, remoteJobs)
	}
	checkPricedCells(t, opts)
}

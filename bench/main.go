// Command bench is the repository benchmark: it builds the hetcore and
// hetserved CLIs from this checkout, runs one workload against them,
// checks their outputs and prints every metric by name with its unit.
// The last line of standard output is the result as one JSON object.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload paper-cold --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -compare set1.jsonl set2.jsonl
//	bash bench/run.sh -record-pool bench/poolmix.txt
//
// Workloads are paper-cold, paper-warm and serve (see README.md).
// --trace 0 measures the end-to-end metrics with no tracing at all;
// --trace 1 runs the same workload with spans around the calls into each
// layer, then the isolated layer probes, and prints the per-layer
// metrics. -compare checks two files of result lines (one JSON object a
// line, as -o writes them) against the bounds in BENCHMARK.json.
// -record-pool re-records the dist.Pool request stream serve replays.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "paper-cold, paper-warm or serve")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "how long one run measures")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	out := flag.String("o", "", "also append the result JSON line to this file")
	compare := flag.Bool("compare", false, "compare two files of result lines against BENCHMARK.json")
	record := flag.String("record-pool", "", "re-record serve's request log into this file and exit")
	flag.Parse()

	if *record != "" {
		if err := recordPoolFile(*record, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *compare {
		ok, err := compareFiles(flag.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace must be 0 or 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	r, err := runWorkload(ctx, *workload, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := appendLine(*out, line); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

// declaration is the part of BENCHMARK.json this program reads.
type declaration struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDeclaration(root string) (declaration, error) {
	var d declaration
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return d, nil
}

// repoRoot finds the checkout: the working directory, or its parent when
// running from bench/ (as `go test` does).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "hetcore")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cmd/hetcore not found: run from the repository root")
}

// buildDir is where builds and scratch files go: $CARGO_TARGET_DIR, or
// .bench_build in the checkout.
func buildDir(root string) string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return filepath.Join(root, ".bench_build")
}

// buildCLIs builds hetcore and hetserved from the checkout into bin.
func buildCLIs(ctx context.Context, root, bin string) error {
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(os.PathSeparator),
		"./cmd/hetcore", "./cmd/hetserved")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the CLIs: %w", err)
	}
	return nil
}

// newEnv finds the checkout and builds the CLIs into its build directory.
func newEnv(ctx context.Context, seed uint64, window time.Duration) (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	build := buildDir(root)
	bin := filepath.Join(build, "bin")
	if err := buildCLIs(ctx, root, bin); err != nil {
		return nil, err
	}
	return &env{ctx: ctx, root: root, bin: bin, out: build, seed: seed, window: window, setups: 3}, nil
}

// runWorkload builds the CLIs, runs one workload and returns its checked
// result.
func runWorkload(ctx context.Context, workload string, seed uint64, window time.Duration, traced bool) (*report, error) {
	e, err := newEnv(ctx, seed, window)
	if err != nil {
		return nil, err
	}
	decl, err := loadDeclaration(e.root)
	if err != nil {
		return nil, err
	}
	want := decl.EndToEnd
	if traced {
		want = decl.PerLayer
	}
	return e.measure(workload, traced, want)
}

// recordPoolFile builds the CLIs and re-records serve's request log.
func recordPoolFile(path string, seed uint64) error {
	path, err := filepath.Abs(path)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(ctx, seed, 0)
	if err != nil {
		return err
	}
	cleanup, err := e.scratch()
	if err != nil {
		return err
	}
	defer cleanup()
	return e.recordPool(path)
}

// scratch gives the run a fresh scratch directory and returns its
// removal.
func (e *env) scratch() (func(), error) {
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(e.out, "run-")
	if err != nil {
		return nil, err
	}
	e.tmp = tmp
	return func() { os.RemoveAll(tmp) }, nil
}

// measure runs one workload in a fresh scratch directory and checks the
// metric set against the declaration.
func (e *env) measure(workload string, traced bool, want []metricDecl) (*report, error) {
	cleanup, err := e.scratch()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	e.workload = workload
	fmt.Printf("workload %s, seed %d, traced %v\n", workload, e.seed, traced)

	r := &report{Metrics: map[string]metric{}}
	switch workload {
	case "paper-cold":
		err = e.paperCold(r, traced)
	case "paper-warm":
		err = e.paperWarm(r, traced)
	case "serve":
		err = e.serve(r, traced)
	default:
		err = fmt.Errorf("unknown workload %q (have paper-cold, paper-warm, serve)", workload)
	}
	if err != nil {
		return nil, err
	}
	if len(r.problems) == 0 {
		if err := checkMetricSet(r.Metrics, want); err != nil {
			return nil, err
		}
	}
	for _, name := range sortedNames(r.Metrics) {
		m := r.Metrics[name]
		fmt.Printf("%-26s %16.6f %s\n", name, m.Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Println("check failed:", p)
	}
	r.Correct = len(r.problems) == 0 && r.Failed == 0
	return r, nil
}

// tracePath is where a traced run writes its Chrome trace; the newest run
// of each workload replaces the last.
func (e *env) tracePath() string {
	return filepath.Join(e.out, "trace-"+e.workload+".json")
}

// checkMetricSet reports a metric set that is not exactly the declared
// one, with the declared units, or holds a value JSON cannot carry.
func checkMetricSet(got map[string]metric, want []metricDecl) error {
	if len(got) != len(want) {
		return fmt.Errorf("produced %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s not produced", d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s in %s, declared in %s", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
	}
	return nil
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSet reads a file of result lines into per-metric value lists.
func readSet(path string) (map[string][]float64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	set := map[string][]float64{}
	runs := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Correct {
			return nil, 0, fmt.Errorf("%s holds a run whose checks failed", path)
		}
		for name, m := range r.Metrics {
			set[name] = append(set[name], m.Value)
		}
		runs++
	}
	return set, runs, sc.Err()
}

// compareFiles applies the two-set check to two files of result lines of
// one workload and prints one row per end-to-end metric.
func compareFiles(args []string) (bool, error) {
	if len(args) != 2 {
		return false, errors.New("-compare needs two files of result lines")
	}
	root, err := repoRoot()
	if err != nil {
		return false, err
	}
	decl, err := loadDeclaration(root)
	if err != nil {
		return false, err
	}
	set1, n1, err := readSet(args[0])
	if err != nil {
		return false, err
	}
	set2, n2, err := readSet(args[1])
	if err != nil {
		return false, err
	}
	rows, ok := compareSets(decl.EndToEnd, set1, set2)
	fmt.Printf("%d and %d runs\n%-16s %10s %10s %14s %14s %8s %6s\n", n1, n2,
		"metric", "spread1", "spread2", "median1", "median2", "diff", "bound")
	for _, row := range rows {
		verdict := "ok"
		if !row.OK {
			verdict = "FAIL"
		}
		fmt.Printf("%-16s %10.4f %10.4f %14.6g %14.6g %8.4f %6.2f %s\n", row.Name,
			row.Spread1, row.Spread2, row.Median1, row.Median2, row.Diff, row.Bound, verdict)
	}
	return ok, nil
}

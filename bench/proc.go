package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hetcore/internal/engine"
)

// env is one benchmark invocation's context: where the built CLIs and
// the run's scratch space live, and the workload parameters.
type env struct {
	ctx      context.Context
	workload string
	root     string // repository checkout (holds results_full.txt, BENCHMARK.json)
	bin      string // directory holding the built hetcore and hetserved
	tmp      string // this run's scratch directory, removed at exit
	out      string // build directory: holds the run's scratch space and trace files
	seed     uint64
	window   time.Duration // how long a run measures
	// instr overrides every instruction budget the workloads use (0 keeps
	// the workloads' own budgets); the smoke test shrinks runs with it.
	instr uint64
	// pool replaces the recorded request log serve replays (nil keeps
	// it); the smoke test shortens the stream with it.
	pool []engine.Key
	// setups is how many times a run repeats its set-up; setup_s is their
	// median.
	setups int
}

// procRun is one finished process of the system under test.
type procRun struct {
	wall   time.Duration
	cpu    time.Duration // user+sys
	rssMB  float64       // peak resident set, 2^20 bytes
	stdout []byte
}

// command builds an exec.Cmd for one of the built CLIs. The child is
// killed if the benchmark dies, so no process outlives a run.
func (e *env) command(name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(e.ctx, filepath.Join(e.bin, name), args...)
	cmd.Dir = e.tmp
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// run executes a CLI to completion and measures it.
func (e *env) run(name string, args ...string) (procRun, error) {
	cmd := e.command(name, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return procRun{}, fmt.Errorf("%s %s: %w: %s", name, strings.Join(args, " "), err,
			strings.TrimSpace(stderr.String()))
	}
	st := cmd.ProcessState
	return procRun{wall: wall, cpu: st.UserTime() + st.SystemTime(), rssMB: maxRSSMB(st),
		stdout: stdout.Bytes()}, nil
}

func maxRSSMB(st *os.ProcessState) float64 {
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// daemon is one running hetserved process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	drained chan struct{}
}

// startDaemon launches hetserved on an ephemeral port with its own
// engine width capped at the host's two CPUs, and returns once it is
// listening.
func (e *env) startDaemon(cacheDir string) (*daemon, error) {
	cmd := e.command("hetserved", "-addr", "127.0.0.1:0", "-jobs", "2", "-cache-dir", cacheDir)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting hetserved: %w", err)
	}
	// hetserved logs "hetserved: listening on <addr>  stamp=..." once its
	// listener is up.
	sc := bufio.NewScanner(pipe)
	var addr string
	for addr == "" && sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "hetserved: listening on "); ok {
			addr = strings.Fields(rest)[0]
		}
	}
	if addr == "" {
		cmd.Wait() //nolint:errcheck // the missing address is the error reported
		return nil, errors.New("hetserved exited before listening")
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, drained: make(chan struct{})}
	go func() {
		io.Copy(io.Discard, pipe) //nolint:errcheck // ends when the daemon exits
		close(d.drained)
	}()
	return d, nil
}

// stop shuts the daemon down with SIGTERM and waits for it to exit.
func (d *daemon) stop() (*os.ProcessState, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, fmt.Errorf("stopping hetserved: %w", err)
	}
	<-d.drained
	if err := d.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("hetserved exit: %w", err)
	}
	return d.cmd.ProcessState, nil
}

// cpuTime returns the daemon's user+sys CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks).
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * (time.Second / 100), nil
}

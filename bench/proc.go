package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The system under test runs in a child process — this binary re-executed
// with -role — so that its CPU time and peak memory are the program's alone
// and it receives nothing but generated inputs. The child answers on stdout
// with one JSON object per line and takes one command per line on stdin;
// end of stdin is the order to shut down.

// childSpec is everything a child is told.
type childSpec struct {
	Role     string  `json:"role"` // "server" or "analyze"
	Workload string  `json:"workload"`
	SF       float64 `json:"sf"`
	Seed     int64   `json:"seed"`
	Tmp      string  `json:"tmp"`     // scratch directory, owned and removed by the parent
	Corrupt  bool    `json:"corrupt"` // analyze: damage every second reference digest (the tests' negative case)
}

// childReady is the child's first line.
type childReady struct {
	Addr   string             `json:"addr,omitempty"` // server role: the bound TCP address
	Phases map[string]float64 `json:"phases"`         // set-up phases in seconds
	Err    string             `json:"err,omitempty"`
}

// child is a running child process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	tmp   string
	ready childReady
}

// startChild launches the child and waits for its ready line. The caller
// must call stop, which kills what is still running, reaps it and removes
// the scratch directory.
func startChild(ctx context.Context, spec childSpec) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(spec.Tmp, 0o755); err != nil {
		return nil, err
	}
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-role="+string(arg))
	cmd.Stderr = os.Stderr
	// If this process dies without running its deferred stops, the kernel
	// kills the child for it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(spec.Tmp)
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, out: bufio.NewReaderSize(stdout, 1<<20), tmp: spec.Tmp}
	if err := c.read(ctx, &c.ready); err != nil {
		c.stop()
		return nil, fmt.Errorf("%s child: %w", spec.Role, err)
	}
	if c.ready.Err != "" {
		c.stop()
		return nil, fmt.Errorf("%s child: %s", spec.Role, c.ready.Err)
	}
	return c, nil
}

// read decodes the child's next line into v, giving up when ctx ends.
func (c *child) read(ctx context.Context, v any) error {
	type result struct {
		line []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		line, err := c.out.ReadBytes('\n')
		done <- result{line, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			return fmt.Errorf("reading child: %w", r.err)
		}
		return json.Unmarshal(r.line, v)
	case <-ctx.Done():
		// Killing the child closes its stdout, which ends the reader.
		c.cmd.Process.Kill()
		<-done
		return ctx.Err()
	}
}

// ask sends one command line and decodes the one-line answer.
func (c *child) ask(ctx context.Context, cmd string, v any) error {
	if _, err := io.WriteString(c.stdin, cmd+"\n"); err != nil {
		return err
	}
	return c.read(ctx, v)
}

// stop shuts the child down: end of stdin asks it to exit, a kill follows
// if it has not within five seconds, and in either case it is reaped before
// its scratch directory is removed.
func (c *child) stop() {
	c.stdin.Close()
	exited := make(chan struct{})
	go func() {
		c.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-exited
	}
	os.RemoveAll(c.tmp)
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// procCPU is the user+system CPU time a process and its threads have used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after ")".
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on every Linux port
	return time.Duration(utime+stime) * tick, nil
}

// procStatusKB reads one "kB" field of /proc/<pid>/status, such as VmHWM.
func procStatusKB(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}

// environment is recorded in every output: the numbers are this box's.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return env
}

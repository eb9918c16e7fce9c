package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// server is one out-of-process apcc server the benchmark started.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	done   chan struct{}
	err    error // Wait's result, valid once done is closed
	client *http.Client
}

// startServer launches bin with args plus a free loopback -addr and
// waits until /healthz answers. The server's output goes to logPath.
func startServer(bin string, args []string, logPath string) (*server, error) {
	var lastErr error
	// A port picked free can be taken before the server binds it; a
	// server that exits early is retried on a fresh port.
	for attempt := 0; attempt < 3; attempt++ {
		s, err := tryStart(bin, args, logPath)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStart(bin string, args []string, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{
		cmd:    cmd,
		base:   "http://" + addr,
		done:   make(chan struct{}),
		client: &http.Client{Timeout: 10 * time.Second},
	}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("%s exited before serving: %v (log %s)", bin, s.err, logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("%s did not answer /healthz within 30s (log %s)", bin, logPath)
		}
	}
}

// freeAddr returns a loopback address with a port free at the time of
// the call.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// stop interrupts the server for a graceful drain, kills it if it has
// not exited within 10s, and waits until it has ended.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// prom scrapes /metrics/prom into a sample map keyed by the sample's
// name and label set exactly as exposed, e.g.
// `apcc_cache_events_total{event="hit"}`.
func (s *server) prom(ctx context.Context) (promSnap, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics/prom", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics/prom: %s", resp.Status)
	}
	return parseProm(body)
}

type promSnap map[string]float64

func parseProm(body []byte) (promSnap, error) {
	out := make(promSnap)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed prom line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed prom value in %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every sample whose key starts with prefix.
func (p promSnap) sum(prefix string) float64 {
	var t float64
	for k, v := range p {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// delta returns after minus before for every key of after.
func delta(before, after promSnap) promSnap {
	d := make(promSnap, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// procCPUTicks returns the process's utime+stime in clock ticks.
func procCPUTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc/<pid>/stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc/<pid>/stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed utime/stime in /proc/<pid>/stat")
	}
	return utime + stime, nil
}

// procHWMKiB returns the process's peak resident set (VmHWM) in KiB.
func procHWMKiB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/<pid>/status")
}

// hostCPU reads the aggregate "cpu" line of /proc/stat: steal ticks and
// all ticks.
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

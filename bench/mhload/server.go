package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer builds cmd/mhserve from the tree at root into dir.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "mhserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mhserve")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/mhserve: %w", err)
	}
	return bin, nil
}

// server is one running mhserve process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	exited chan struct{}
}

// launch starts mhserve with default flags plus -dir and a loopback
// -addr, and returns once /readyz answers 200 (write-ahead log replay
// done), together with the time from exec to that answer.
func launch(bin, dir, logPath string, client *http.Client) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "-dir", dir, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the generator, even if the generator
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, client: client, exited: make(chan struct{})}
	go func() { cmd.Wait(); close(s.exited) }()
	deadline := start.Add(60 * time.Second)
	for {
		if resp, err := client.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("mhserve exited before ready (log: %s)", logPath)
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("mhserve not ready after 60s (log: %s)", logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the server and waits until it has exited.
func (s *server) stop() {
	s.cmd.Process.Kill()
	<-s.exited
	s.client.CloseIdleConnections()
}

// rssMB reads one field of the server's /proc status (VmHWM: peak
// resident set, VmRSS: current) in MB.
func (s *server) rssMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, s.cmd.Process.Pid)
}

// sampleRSS samples the server's resident set every 100 ms until stop
// is closed, then delivers the median in MB.
func (s *server) sampleRSS(stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		var xs []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := s.rssMB("VmRSS:"); err == nil {
				xs = append(xs, v)
			}
			select {
			case <-tick.C:
			case <-stop:
				out <- median(xs)
				return
			}
		}
	}()
	return out
}

// scrape fetches /metrics as a map keyed like obs.Registry.Snapshot:
// "name{labels}" -> value.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// send performs one request and returns the response body; a transport
// error or a non-2xx status is an error.
func send(ctx context.Context, client *http.Client, base string, o *op) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", o.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

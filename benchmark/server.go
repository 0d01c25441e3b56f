package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"ndirect/internal/serve"
)

// buildDir holds what the benchmark compiles; .gitignore names it.
const buildDir = ".bench_build"

// buildServer compiles cmd/ndserve once per process. Its time is not
// part of setup_s: the Go build cache makes it depend on what ran
// before, not on the code under test.
var buildServer = sync.OnceValues(func() (string, error) {
	dir, err := filepath.Abs(buildDir)
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "ndserve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/ndserve").CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ndserve: %v\n%s", err, out)
	}
	return bin, nil
})

// server is one spawned ndserve process and the single transport all
// load goes through.
type server struct {
	cmd    *exec.Cmd
	base   string
	logs   bytes.Buffer
	client *http.Client
	once   sync.Once
}

// liveServer is the one server running, if any, so the signal handler
// and main's exit path can kill it.
var liveServer struct {
	sync.Mutex
	s *server
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer spawns ndserve with flags on a free loopback port and
// returns once /healthz answers 200.
func startServer(flags []string) (*server, error) {
	bin, err := buildServer()
	if err != nil {
		return nil, err
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{
		base: "http://" + addr,
		client: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     loadConnections,
				MaxIdleConnsPerHost: loadConnections,
				DisableCompression:  true,
			},
		},
	}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	s.cmd.Stdout, s.cmd.Stderr = &s.logs, &s.logs
	killWithParent(s.cmd)
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ndserve: %w", err)
	}
	liveServer.Lock()
	liveServer.s = s
	liveServer.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("ndserve never became healthy on %s: %v\n%s", addr, err, s.logs.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the process and waits for it; safe to call twice.
func (s *server) stop() {
	s.once.Do(func() {
		_ = s.cmd.Process.Kill() // already-exited is fine: Wait below reaps either way
		_ = s.cmd.Wait()
		s.client.CloseIdleConnections()
		liveServer.Lock()
		if liveServer.s == s {
			liveServer.s = nil
		}
		liveServer.Unlock()
	})
}

func stopLiveServer() {
	liveServer.Lock()
	s := liveServer.s
	liveServer.Unlock()
	if s != nil {
		s.stop()
	}
}

// do sends one request and returns status and the whole body.
func (s *server) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	return resp.StatusCode, got, err
}

// expect is do for the control plane: any other status is an error.
func (s *server) expect(method, path string, body any, want int) error {
	var raw []byte
	if body != nil {
		raw = encodeBody(body)
	}
	code, got, err := s.do(context.Background(), method, path, raw)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != want {
		return fmt.Errorf("%s %s: status %d (want %d): %s", method, path, code, want, strings.TrimSpace(string(got)))
	}
	return nil
}

// stats reads GET /v1/stats — the counters ndserve already exports.
func (s *server) stats() (serve.RegistryStats, error) {
	var st serve.RegistryStats
	code, body, err := s.do(context.Background(), http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", code)
	}
	return st, json.Unmarshal(body, &st)
}

// procUsage is a process's CPU seconds (user+system) and peak resident
// set from /proc. On a host without /proc both read 0.
func procUsage(pid int) (cpuSeconds, peakRSSMB float64) {
	if raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		// Fields after the parenthesised command name; utime and stime
		// are the 14th and 15th of the line, in clock ticks.
		if i := bytes.LastIndexByte(raw, ')'); i >= 0 {
			f := strings.Fields(string(raw[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				cpuSeconds = (ut + st) / clockTicksPerSecond
			}
		}
	}
	if raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				peakRSSMB = kb / 1024
			}
		}
	}
	return cpuSeconds, peakRSSMB
}

// clockTicksPerSecond is USER_HZ, 100 on every Linux ABI Go supports.
const clockTicksPerSecond = 100

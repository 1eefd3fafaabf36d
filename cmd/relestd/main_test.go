package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestFlagValidation pins the CLI contract: bad flags and stray
// positional arguments fail with a usage error instead of being
// silently ignored.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-no-such-flag"}},
		{"stray arg", []string{"serve"}},
		{"flag then stray arg", []string{"-queue", "8", "extra"}},
		{"negative workers", []string{"-workers", "-3"}},
		{"negative concurrency", []string{"-concurrency", "-3"}},
		{"retired role flag", []string{"-role", "coordinator", "-shard-addrs", "http://h1:7878"}},
		{"shards conflicts with coordinator role", []string{"-shard-addrs", "http://h1:7878", "-shards", "2"}},
		{"snapshot dir in cluster mode", []string{"-shards", "2", "-snapshot-dir", "/tmp/x"}},
		{"bad shard bounds", []string{"-shards", "2", "-shard-mode", "range", "-shard-bounds", "ten"}},
		{"range bounds mismatch", []string{"-shards", "3", "-shard-mode", "range", "-shard-bounds", "10"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err == nil {
				t.Fatalf("run(%v) succeeded; want a usage error", tc.args)
			}
		})
	}
}

// startDaemon builds the real binary, starts it with the given arguments
// and returns the base URL from its "relestd listening on" line, a scanner
// over the rest of its output, and stop. The process cannot outlive the
// test binary's own deadline: its context expires 10 s before t.Deadline()
// (2 min without one), expiry and stop both send SIGTERM, and a daemon that
// ignores it is killed 5 s later — which also ends a Scan blocked on a
// daemon that never prints. stop waits for the exit, fails the test unless
// it was clean, and is idempotent (it is also the test's Cleanup); output
// the daemon wrote while draining stays readable from lines afterwards.
func startDaemon(t *testing.T, args ...string) (base string, lines *bufio.Scanner, stop func()) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	if d, ok := t.Deadline(); ok {
		deadline = d.Add(-10 * time.Second)
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	t.Cleanup(cancel)

	bin := filepath.Join(t.TempDir(), "relestd")
	if out, err := exec.CommandContext(ctx, "go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// An os.Pipe rather than StdoutPipe: Wait closes StdoutPipe's reader,
	// and the drain messages are read after stop has waited.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pr.Close() })
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = pw, pw
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second
	err = cmd.Start()
	_ = pw.Close() // the child holds its own copy; ours would keep Scan from seeing EOF
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			_ = cmd.Wait() // context.Canceled after a clean exit; the state below is the verdict
			if !cmd.ProcessState.Success() {
				t.Errorf("daemon exit: %v", cmd.ProcessState)
			}
		})
	}
	t.Cleanup(stop)

	lines = bufio.NewScanner(pr)
	if !lines.Scan() {
		t.Fatalf("no startup line: %v", lines.Err())
	}
	addr, ok := strings.CutPrefix(lines.Text(), "relestd listening on ")
	if !ok {
		t.Fatalf("unexpected startup line %q", lines.Text())
	}
	return "http://" + addr, lines, stop
}

// expectDrained stops the daemon and requires the drain messages in what
// it printed on the way out.
func expectDrained(t *testing.T, lines *bufio.Scanner, stop func()) {
	t.Helper()
	stop()
	var tail []string
	for lines.Scan() {
		tail = append(tail, lines.Text())
	}
	joined := strings.Join(tail, "\n")
	if !strings.Contains(joined, "relestd draining") || !strings.Contains(joined, "relestd stopped") {
		t.Errorf("drain messages missing from shutdown output: %v", tail)
	}
}

// post sends one JSON request to the daemon and returns the status and
// response body.
func post(t *testing.T, base, path string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// scrape returns the daemon's /metrics exposition.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestDaemonSmoke builds the real binary and walks the whole service
// lifecycle: start, register data, estimate, scrape metrics, SIGTERM,
// clean exit. Everything runs sequentially off the daemon's stdout — the
// first line carries the bound address, the drain messages follow the
// signal.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs a binary")
	}
	base, lines, stop := startDaemon(t, "-addr", "127.0.0.1:0", "-queue", "8")

	if status, out := post(t, base, "/v1/generate", map[string]any{
		"kind": "zipf-pair", "n": 2000, "domain": 200, "seed": 7,
	}); status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, out)
	}
	if status, out := post(t, base, "/v1/synopses/main", map[string]any{
		"kind": "static", "relations": map[string]int{"R1": 200, "R2": 200}, "seed": 9,
	}); status != http.StatusCreated {
		t.Fatalf("synopsis: %d %s", status, out)
	}
	status, out := post(t, base, "/v1/estimate", map[string]any{
		"query": "count(join(R1, R2, on a = a))", "synopsis": "main", "seed": 3,
	})
	if status != http.StatusOK {
		t.Fatalf("estimate: %d %s", status, out)
	}
	var resp struct {
		Estimate struct {
			Value float64 `json:"value"`
		} `json:"estimate"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatalf("decoding %s: %v", out, err)
	}
	if resp.Estimate.Value <= 0 {
		t.Fatalf("estimate value = %v", resp.Estimate.Value)
	}

	metrics := scrape(t, base)
	if !strings.Contains(metrics, "relestd_requests_total") {
		t.Errorf("/metrics lacks the request counter:\n%s", metrics)
	}

	expectDrained(t, lines, stop)
}

// TestClusterSmoke walks the -shards mode end to end against the real
// binary: one process runs a coordinator and two shard nodes, answers a
// sharded estimate, exposes the merged shard-labelled metrics, and
// drains cleanly on SIGTERM.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs a binary")
	}
	base, lines, stop := startDaemon(t, "-addr", "127.0.0.1:0", "-shards", "2")
	for i := 0; i < 2; i++ {
		if !lines.Scan() {
			t.Fatalf("missing shard %d startup line: %v", i, lines.Err())
		}
		if line := lines.Text(); !strings.HasPrefix(line, "relestd shard ") {
			t.Fatalf("unexpected shard startup line %q", line)
		}
	}

	if status, out := post(t, base, "/v1/generate", map[string]any{
		"kind": "zipf-pair", "n": 2000, "domain": 200, "seed": 7,
	}); status != http.StatusCreated {
		t.Fatalf("generate: %d %s", status, out)
	}
	if status, out := post(t, base, "/v1/synopses/main", map[string]any{
		"kind": "static", "relations": map[string]int{"R1": 200, "R2": 200}, "seed": 9,
	}); status != http.StatusCreated {
		t.Fatalf("synopsis: %d %s", status, out)
	}
	status, out := post(t, base, "/v1/estimate", map[string]any{
		"query": "count(join(R1, R2, on a = a))", "synopsis": "main", "seed": 3,
	})
	if status != http.StatusOK {
		t.Fatalf("estimate: %d %s", status, out)
	}
	var resp struct {
		Estimate struct {
			Value float64 `json:"value"`
		} `json:"estimate"`
		Partial bool `json:"partial"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatalf("decoding %s: %v", out, err)
	}
	if resp.Estimate.Value <= 0 || resp.Partial {
		t.Fatalf("cluster estimate value=%v partial=%v", resp.Estimate.Value, resp.Partial)
	}

	metrics := scrape(t, base)
	for _, want := range []string{"relestd_shard_fanout_total", `shard="0"`, `shard="1"`} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	expectDrained(t, lines, stop)
}

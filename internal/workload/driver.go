package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Driver is the harness's HTTP client for a live relestd. It speaks the
// daemon's JSON wire format through its own minimal structs (this package
// is imported by the server, so it cannot import the server's types), and
// it retries load-shedding responses so a calibration run keeps its full
// trial set even while the service is saturated: a 429/503 means "later",
// not "no answer", and dropping shed trials would bias coverage stats
// toward quiet moments.
//
// Client-side goroutines here (Fanout) only issue HTTP requests and write
// disjoint result slots; estimate reductions still run exclusively through
// internal/parallel on the server.
type Driver struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:7878".
	BaseURL string
	// Client is the HTTP client (http.DefaultClient when nil).
	Client *http.Client
	// Tenant is sent as X-Relest-Tenant when non-empty.
	Tenant string
	// MaxRetries bounds retry attempts per shed request (default 50).
	MaxRetries int
	// RetryDelay is the pause between retries (default 10ms).
	RetryDelay time.Duration

	// Retries counts shed-and-retried requests across the run.
	Retries atomic.Int64
}

func (d *Driver) client() *http.Client {
	if d.Client != nil {
		return d.Client
	}
	return http.DefaultClient
}

// roundTrip is the one HTTP exchange every Driver call goes through:
// build the request (a nil body sends none), attach the content type and
// the tenant header when set, send, and read the whole response.
func (d *Driver) roundTrip(ctx context.Context, method, path, contentType string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.BaseURL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if d.Tenant != "" {
		req.Header.Set("X-Relest-Tenant", d.Tenant)
	}
	resp, err := d.client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	// Response body close errors carry nothing the caller can act on.
	defer func() { _ = resp.Body.Close() }()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, raw, nil
}

// Do posts body as JSON to path and returns the status and raw response
// bytes. A nil body sends an empty JSON object.
func (d *Driver) Do(ctx context.Context, path string, body any) (int, []byte, error) {
	if body == nil {
		body = struct{}{}
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, fmt.Errorf("workload: encoding %s body: %w", path, err)
	}
	return d.roundTrip(ctx, http.MethodPost, path, "application/json", buf)
}

// DoRaw posts a raw (non-JSON) body — a CSV slice, say — with the given
// content type. The sharded coordinator pushes relation slices to shard
// nodes through this.
func (d *Driver) DoRaw(ctx context.Context, path, contentType string, body []byte) (int, []byte, error) {
	return d.roundTrip(ctx, http.MethodPost, path, contentType, body)
}

// Get fetches path (e.g. /metrics, /v1/synopses) and returns the status
// and raw body.
func (d *Driver) Get(ctx context.Context, path string) (int, []byte, error) {
	return d.roundTrip(ctx, http.MethodGet, path, "", nil)
}

// Delete issues a DELETE to path and returns the status and raw body.
// The sharded coordinator rolls half-registered relations and synopses
// back through this after a failed fanout.
func (d *Driver) Delete(ctx context.Context, path string) (int, []byte, error) {
	return d.roundTrip(ctx, http.MethodDelete, path, "", nil)
}

// shedStatus reports whether a status is load shedding worth retrying:
// queue or tenant-slot exhaustion (429) and drain refusals (503).
func shedStatus(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// DoRetry is Do with shed retries: 429/503 responses are retried (up to
// MaxRetries, pausing RetryDelay) so saturation delays a trial instead of
// dropping it.
func (d *Driver) DoRetry(ctx context.Context, path string, body any) (int, []byte, error) {
	maxRetries := d.MaxRetries
	if maxRetries <= 0 {
		maxRetries = 50
	}
	delay := d.RetryDelay
	if delay <= 0 {
		delay = 10 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		status, raw, err := d.Do(ctx, path, body)
		if err != nil {
			return status, raw, err
		}
		if !shedStatus(status) || attempt >= maxRetries {
			return status, raw, nil
		}
		d.Retries.Add(1)
		select {
		case <-ctx.Done():
			return status, raw, ctx.Err()
		case <-time.After(delay):
		}
	}
}

// EstimateOutcome is the slice of relestd's estimate response the harness
// asserts on (field names mirror the server's wire format).
type EstimateOutcome struct {
	Estimate struct {
		Value float64 `json:"value"`
		Lo    float64 `json:"lo"`
		Hi    float64 `json:"hi"`
	} `json:"estimate"`
}

// Trial is one calibration observation: an estimate and its CI, to be
// compared against the exact truth. Failed or cancelled trials stay
// zero-valued with OK false and are excluded from the stats.
type Trial struct {
	OK     bool
	Status int
	Value  float64
	Lo     float64
	Hi     float64
}

// Estimate posts an estimation request (any JSON-marshalable shape) with
// shed retries and decodes the outcome into a Trial.
func (d *Driver) Estimate(ctx context.Context, req any) Trial {
	status, raw, err := d.DoRetry(ctx, "/v1/estimate", req)
	if err != nil {
		return Trial{Status: status}
	}
	if status != http.StatusOK {
		return Trial{Status: status}
	}
	var out EstimateOutcome
	if jsonErr := json.Unmarshal(raw, &out); jsonErr != nil {
		return Trial{Status: status}
	}
	return Trial{OK: true, Status: status, Value: out.Estimate.Value, Lo: out.Estimate.Lo, Hi: out.Estimate.Hi}
}

// Fanout runs jobs 0..n-1 across k client goroutines, goroutine g taking
// jobs g, g+k, g+2k, … . The static round-robin assignment (rather than a
// work-stealing queue) keeps each job's goroutine — and therefore any
// per-goroutine state a caller threads through — a pure function of the
// job index. Results belong in per-index slots; disjoint writes need no
// locks and leave the collected data independent of completion order.
func Fanout(k, n int, job func(i int)) {
	if k < 1 {
		k = 1
	}
	var wg sync.WaitGroup
	for g := 0; g < k; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += k {
				job(i)
			}
		}(g)
	}
	wg.Wait()
}

// Package client is the resilient Go client for the syncsimd simulation
// service: it retries retryable failures (429/502/503/504 and transport
// errors) with capped exponential backoff and full jitter, honours the
// server's Retry-After hints, respects the caller's context budget (it
// never sleeps past a deadline), and surfaces terminal failures as typed
// *APIError values so callers can tell a bad request from a dead server.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"time"

	"syncsim/internal/api"
)

// APIError is a non-2xx answer from the service, carrying the taxonomy's
// status, the (public) message body, and — for 500s minted from panics —
// the opaque incident ID correlating with the server's log.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the response body (trimmed), never a stack trace.
	Message string
	// IncidentID is the X-Incident-Id header, set for recovered panics.
	IncidentID string
	// RetryAfter is the server's Retry-After hint, if any.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.IncidentID != "" {
		return fmt.Sprintf("server: %d %s (incident %s)", e.Status, e.Message, e.IncidentID)
	}
	return fmt.Sprintf("server: %d %s", e.Status, e.Message)
}

// Retryable reports whether another attempt can succeed: load shedding
// (429), gateway trouble (502), drain/cancel (503), and job timeout (504)
// are transient; everything else — bad requests, invariant violations,
// panics (deterministic for a given job) — is terminal. The classification
// is the wire contract's (api.RetryableStatus), shared with the server's
// taxonomy.
func (e *APIError) Retryable() bool {
	return api.RetryableStatus(e.Status)
}

// ErrBudgetExhausted wraps the last failure when the caller's context
// deadline cannot fit another backoff sleep + attempt.
var ErrBudgetExhausted = errors.New("client: context budget exhausted before retry")

// ErrDecode marks a 2xx response whose body failed to decode. Decode
// failures are terminal, never retried: the server answered — the bytes on
// the wire are what they are, and replaying the request would at best
// re-download the same malformed body (and at worst re-execute a job to
// fetch an answer the client cannot read anyway). Test with errors.Is.
var ErrDecode = errors.New("client: malformed response body")

// tenantKey carries a tenant identity through a context (see WithTenant).
type tenantKey struct{}

// WithTenant returns a context that stamps every request made with it with
// the X-Tenant header, attributing the call to a tenant in the service's
// per-tenant /metrics counters. The fleet coordinator uses it to forward
// the tenant of an incoming request to the backends it fans out to.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// Config parameterises a Client; zero values select production defaults.
type Config struct {
	// HTTPClient performs the requests; nil selects a client with a 0
	// (unlimited) timeout — callers bound requests with contexts.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call (first + retries); 0 selects 5.
	MaxAttempts int
	// BaseBackoff is the first retry's backoff cap; 0 selects 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth; 0 selects 5s.
	MaxBackoff time.Duration
	// Rand yields the jitter in [0,1); nil selects math/rand/v2 (seed a
	// deterministic one in tests).
	Rand func() float64
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
	return c
}

// Client talks to one syncsimd base URL.
type Client struct {
	base string
	cfg  Config
}

// New builds a client for the service at baseURL (e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, cfg Config) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/"), cfg: cfg.withDefaults()}
}

// Sim runs one simulation job (POST /v1/sim), retrying transient
// failures.
func (c *Client) Sim(ctx context.Context, req api.SimRequest) (*api.SimResponse, error) {
	var out api.SimResponse
	if err := c.post(ctx, "/v1/sim", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Sweep runs one sweep job (POST /v1/sweep), retrying transient failures.
func (c *Client) Sweep(ctx context.Context, req api.SweepRequest) (*api.SweepResponse, error) {
	var out api.SweepResponse
	if err := c.post(ctx, "/v1/sweep", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Predict asks for a performance prediction (POST /v1/predict) under the
// same retry budget as the job endpoints: analytic answers come back in
// microseconds, fallback simulations behave exactly like Sim.
func (c *Client) Predict(ctx context.Context, req api.PredictRequest) (*api.PredictResponse, error) {
	var out api.PredictResponse
	if err := c.post(ctx, "/v1/predict", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Analyze runs one what-if contention analysis (POST /v1/analyze),
// retrying transient failures. The job replays one trace several times
// server-side, so expect sweep-like latency, not sim-like.
func (c *Client) Analyze(ctx context.Context, req api.AnalyzeRequest) (*api.AnalyzeResponse, error) {
	var out api.AnalyzeResponse
	if err := c.post(ctx, "/v1/analyze", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Capabilities fetches the service's vocabulary (GET /v1/capabilities):
// benchmarks, models, locks, consistency models, schedulers, and the
// loaded prediction model's envelope. Same retry budget as the job
// endpoints — the call is cheap but a restarting server still benefits
// from backoff.
func (c *Client) Capabilities(ctx context.Context) (*api.CapabilitiesResponse, error) {
	var out api.CapabilitiesResponse
	if err := c.do(ctx, http.MethodGet, "/v1/capabilities", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthy reports whether the service answers /healthz with 200 (a
// draining server answers 503). Single attempt: health checks poll.
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
	return resp.StatusCode == http.StatusOK
}

// post JSON-encodes in and runs the retry loop against a POST endpoint.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: encode request: %w", err)
	}
	return c.do(ctx, http.MethodPost, path, body, out)
}

// do is the retry loop shared by every endpoint; body is nil for GETs.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var last error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, attempt, last); err != nil {
				return err
			}
		}
		apiErr, err := c.once(ctx, method, path, body, out)
		if err == nil && apiErr == nil {
			return nil
		}
		if apiErr != nil {
			if !apiErr.Retryable() {
				return apiErr
			}
			last = apiErr
			continue
		}
		// A malformed 2xx body is terminal: the server answered, so another
		// attempt would only re-fetch the same bytes (see ErrDecode).
		if errors.Is(err, ErrDecode) {
			return err
		}
		// Transport error: terminal if our context died, transient
		// otherwise (connection reset, refused during restart, ...).
		if ctx.Err() != nil {
			return fmt.Errorf("client: %w (last error: %v)", ctx.Err(), err)
		}
		last = err
	}
	return fmt.Errorf("client: %d attempts exhausted: %w", c.cfg.MaxAttempts, last)
}

// once performs one attempt. A nil, nil return means success; a non-nil
// *APIError is a classified server answer; a bare error is a transport
// failure (or a terminal ErrDecode).
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) (*APIError, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tenant, _ := ctx.Value(tenantKey{}).(string); tenant != "" {
		req.Header.Set(api.HeaderTenant, tenant)
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	// Any 2xx is success — a future async 202 or a proxy's 204 is not a
	// server error just because it is not exactly 200.
	if resp.StatusCode/100 != 2 {
		return &APIError{
			Status:     resp.StatusCode,
			Message:    strings.TrimSpace(string(raw)),
			IncidentID: resp.Header.Get(api.HeaderIncidentID),
			RetryAfter: parseRetryAfter(resp.Header.Get(api.HeaderRetryAfter), time.Now()),
		}, nil
	}
	if out == nil || len(bytes.TrimSpace(raw)) == 0 {
		// Bodyless success (204, or a 202 acknowledgement): nothing to
		// decode; out keeps its zero value.
		return nil, nil
	}
	// Decode into a FRESH value and copy over only on success: unmarshal
	// merges into existing fields, so decoding straight into out could leave
	// a half-populated result behind (and a later attempt would then decode
	// on top of that debris).
	fresh := reflect.New(reflect.ValueOf(out).Elem().Type())
	if err := json.Unmarshal(raw, fresh.Interface()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	reflect.ValueOf(out).Elem().Set(fresh.Elem())
	return nil, nil
}

// sleep waits out the backoff before attempt (1-based among retries),
// honouring the server's Retry-After hint as a floor and the context
// budget as a hard ceiling: if the remaining budget cannot fit the delay,
// it fails fast with ErrBudgetExhausted instead of sleeping into a
// guaranteed deadline miss.
func (c *Client) sleep(ctx context.Context, attempt int, last error) error {
	delay := c.backoff(attempt, retryAfterOf(last))
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) <= delay {
		return fmt.Errorf("%w (need %v, have %v): %v",
			ErrBudgetExhausted, delay, time.Until(deadline).Round(time.Millisecond), last)
	}
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("client: %w (while backing off: %v)", ctx.Err(), last)
	}
}

// backoff computes the attempt's delay: full jitter over an exponentially
// growing cap (AWS-style), never below the server's Retry-After hint.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	ceiling := c.cfg.BaseBackoff << (attempt - 1)
	if ceiling > c.cfg.MaxBackoff || ceiling <= 0 {
		ceiling = c.cfg.MaxBackoff
	}
	d := time.Duration(c.cfg.Rand() * float64(ceiling))
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// retryAfterOf extracts the hint from the last attempt's error, if it was
// an APIError carrying one.
func retryAfterOf(err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return 0
}

// parseRetryAfter reads a Retry-After value in either RFC 9110 form:
// delay-seconds, or an HTTP-date (which common proxies in front of a fleet
// emit) resolved against now. Dates in the past and negative delays clamp
// to 0; garbage parses as 0 (no hint).
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if sec, err := strconv.Atoi(v); err == nil {
		if sec < 0 {
			return 0
		}
		return time.Duration(sec) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
		return 0
	}
	return 0
}

package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// TenantConfig is one tenant's admission contract: an API key identifying
// it, quotas bounding how much of the server it may occupy, a token-bucket
// submit rate, and a priority class. Loaded from the -api-keys keyfile.
type TenantConfig struct {
	// Name identifies the tenant in run status, metrics and logs.
	Name string `json:"name"`
	// Key is the static API credential clients present as X-API-Key (or
	// Authorization: Bearer). Keys must be unique across tenants.
	Key string `json:"key"`
	// MaxRunning bounds the tenant's simultaneously executing runs; runs
	// beyond it stay queued even when workers are idle. 0: unlimited.
	MaxRunning int `json:"maxRunning,omitempty"`
	// MaxQueued bounds the tenant's queued backlog; submissions beyond it
	// are rejected with 429 over-quota. 0: unlimited.
	MaxQueued int `json:"maxQueued,omitempty"`
	// RatePerSec is the sustained submit rate (token bucket refill). 0:
	// unlimited.
	RatePerSec float64 `json:"ratePerSec,omitempty"`
	// Burst is the bucket capacity — how many submits may land back to
	// back before the rate bites. 0 defaults to max(1, ceil(RatePerSec)).
	Burst int `json:"burst,omitempty"`
	// Priority is the tenant's scheduling class: higher dispatches first,
	// and (when the pool is full) preempts running checkpointable runs of
	// strictly lower priority.
	Priority int `json:"priority,omitempty"`
}

// LoadTenants reads an -api-keys keyfile: {"tenants":[TenantConfig...]}.
func LoadTenants(path string) ([]TenantConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		Tenants []TenantConfig `json:"tenants"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.Tenants) == 0 {
		return nil, fmt.Errorf("%s: no tenants", path)
	}
	seenKey := make(map[string]string, len(file.Tenants))
	seenName := make(map[string]bool, len(file.Tenants))
	for _, tc := range file.Tenants {
		if tc.Name == "" || tc.Key == "" {
			return nil, fmt.Errorf("%s: every tenant needs a name and a key", path)
		}
		if other, dup := seenKey[tc.Key]; dup {
			return nil, fmt.Errorf("%s: tenants %q and %q share a key", path, other, tc.Name)
		}
		if seenName[tc.Name] {
			return nil, fmt.Errorf("%s: duplicate tenant name %q", path, tc.Name)
		}
		seenKey[tc.Key] = tc.Name
		seenName[tc.Name] = true
	}
	return file.Tenants, nil
}

// Admission rejection errors. The HTTP layer maps them onto 401 (bad key)
// and 429 + Retry-After (rate and quota backpressure).
var (
	// ErrBadKey rejects a submission with a missing or unknown API key
	// when the server is admission-controlled (401).
	ErrBadKey = errors.New("unknown or missing API key")
	// ErrRateLimited rejects a submission that exhausted its tenant's
	// token bucket (429 + Retry-After).
	ErrRateLimited = errors.New("submit rate limit exceeded")
	// ErrOverQuota rejects a submission beyond the tenant's queued-run
	// quota (429 + Retry-After).
	ErrOverQuota = errors.New("tenant queue quota exceeded")
)

// ErrPreempted is the cancellation cause of a run displaced by a
// higher-priority submission. The registry does not terminate such a run:
// it keeps the shards the search logged, requeues the run at its
// original position, and resumes it when capacity frees up.
var ErrPreempted = errors.New("preempted by a higher-priority run")

// RetryAfterError decorates a backpressure rejection with how long the
// client should wait before retrying; the HTTP layer turns it into a
// Retry-After header.
type RetryAfterError struct {
	Err        error
	RetryAfter time.Duration
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", e.Err, e.RetryAfter.Round(time.Millisecond))
}

func (e *RetryAfterError) Unwrap() error { return e.Err }

// tenantState is one tenant's contract and token bucket. Guarded by
// admission.mu.
type tenantState struct {
	cfg    TenantConfig
	tokens float64
	last   time.Time
}

// refill advances the token bucket to now.
func (t *tenantState) refill(now time.Time) {
	if t.cfg.RatePerSec <= 0 {
		return
	}
	t.tokens += now.Sub(t.last).Seconds() * t.cfg.RatePerSec
	if burst := t.burst(); t.tokens > burst {
		t.tokens = burst
	}
	t.last = now
}

func (t *tenantState) burst() float64 {
	if t.cfg.Burst > 0 {
		return float64(t.cfg.Burst)
	}
	return math.Max(1, math.Ceil(t.cfg.RatePerSec))
}

// admission is the tenant table: key resolution and rate limiting. A
// tenant's queued and running runs are counted by the registry, from its
// queue and worker slots. nil means open access (no -api-keys configured)
// — every submission maps onto the anonymous tenant with no limits.
type admission struct {
	mu    sync.Mutex
	byKey map[string]*tenantState
	now   func() time.Time // injectable clock (tests)
}

func newAdmission(tenants []TenantConfig) *admission {
	if len(tenants) == 0 {
		return nil
	}
	a := &admission{byKey: make(map[string]*tenantState, len(tenants)), now: time.Now}
	for _, tc := range tenants {
		ts := &tenantState{cfg: tc, last: a.now()}
		ts.tokens = ts.burst()
		a.byKey[tc.Key] = ts
	}
	return a
}

// admit resolves the API key, charges the tenant's rate and returns its
// contract. nil admission admits everything as the anonymous tenant.
func (a *admission) admit(key string) (TenantConfig, error) {
	if a == nil {
		return TenantConfig{}, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ts, ok := a.byKey[key]
	if !ok {
		return TenantConfig{}, ErrBadKey
	}
	ts.refill(a.now())
	if ts.cfg.RatePerSec > 0 {
		if ts.tokens < 1 {
			// Time until one whole token has dripped back in.
			wait := time.Duration((1 - ts.tokens) / ts.cfg.RatePerSec * float64(time.Second))
			return TenantConfig{}, &RetryAfterError{Err: ErrRateLimited, RetryAfter: wait}
		}
		ts.tokens--
	}
	return ts.cfg, nil
}

// TenantOccupancy is one tenant's live admission state, exposed on
// /api/v1/stats and asserted by the chaos suites.
type TenantOccupancy struct {
	Name     string  `json:"name"`
	Running  int     `json:"running"`
	Queued   int     `json:"queued"`
	Priority int     `json:"priority"`
	Tokens   float64 `json:"tokens"`
}

// occupancy snapshots every tenant's priority and token level, sorted by
// name for stable output; the registry fills Running and Queued.
func (a *admission) occupancy() []TenantOccupancy {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]TenantOccupancy, 0, len(a.byKey))
	for _, ts := range a.byKey {
		ts.refill(a.now())
		out = append(out, TenantOccupancy{Name: ts.cfg.Name, Priority: ts.cfg.Priority, Tokens: ts.tokens})
	}
	slices.SortFunc(out, func(x, y TenantOccupancy) int { return strings.Compare(x.Name, y.Name) })
	return out
}

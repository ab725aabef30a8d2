package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvFaultInject is the environment variable the CLI and server consult for
// a fault-injection spec when no -inject flag is given. See Parse for the
// grammar.
const EnvFaultInject = "CHOP_FAULT_INJECT"

// FaultMode is what an injected fault does at its site.
type FaultMode int

// Fault modes.
const (
	// FaultError makes the site return an *InjectedError.
	FaultError FaultMode = iota
	// FaultPanic makes the site panic (exercising the recovery guards).
	FaultPanic
	// FaultStall makes the site sleep for the rule's stall duration
	// (exercising deadlines), honoring context cancellation in FireCtx.
	FaultStall
)

func (m FaultMode) String() string {
	switch m {
	case FaultError:
		return "error"
	case FaultPanic:
		return "panic"
	case FaultStall:
		return "stall"
	}
	return fmt.Sprintf("FaultMode(%d)", int(m))
}

// InjectedError is the error a FaultError rule produces. Chaos assertions
// distinguish injected failures from real ones with IsInjected.
type InjectedError struct {
	Site string
	Hit  int64 // 1-based hit count at the site when the rule fired
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("resilience: injected fault at %s (hit %d)", e.Site, e.Hit)
}

// IsInjected reports whether err (anywhere in its chain) is an injected
// fault.
func IsInjected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}

// rule is one site's fault configuration. Exactly one trigger is active:
// probability p, one-shot hit index at, or modulus every.
type rule struct {
	mode  FaultMode
	p     float64
	at    int64
	every int64
	stall time.Duration

	hits  atomic.Int64
	fired atomic.Int64
}

// Injector decides, per instrumented site, whether to fail, panic or stall
// a call. Rules are parsed from a compact spec (flag or environment); the
// seed makes probabilistic rules reproducible. A nil *Injector never fires,
// so call sites need no nil checks beyond the method call itself.
type Injector struct {
	seed  int64
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[string]*rule
}

// Parse builds an Injector from a spec: comma-separated entries of
//
//	seed=N                      deterministic seed for probabilistic rules
//	<site>=<mode>:<trigger>     e.g. bad.predict=error:0.1
//	<site>=stall:<trigger>:<dur> e.g. serve.job=stall:@2:150ms
//
// where <mode> is error, panic or stall; <trigger> is a probability in
// (0,1], "@N" (fire exactly on the Nth hit) or "/N" (fire on every Nth
// hit); and <dur> is a Go duration (stall only, default 50ms). Sites are
// free-form strings; the wired ones are bad.predict, core.trial, serve.job,
// sink.write and checkpoint.save. An empty spec yields a nil Injector.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	inj := &Injector{seed: 1, rules: make(map[string]*rule)}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, val, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("resilience: bad inject entry %q (want site=mode:trigger)", entry)
		}
		site, val = strings.TrimSpace(site), strings.TrimSpace(val)
		if site == "seed" {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("resilience: bad seed %q: %w", val, err)
			}
			inj.seed = n
			continue
		}
		parts := strings.Split(val, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("resilience: bad inject rule %q (want mode:trigger)", entry)
		}
		r := &rule{stall: 50 * time.Millisecond}
		switch parts[0] {
		case "error":
			r.mode = FaultError
		case "panic":
			r.mode = FaultPanic
		case "stall":
			r.mode = FaultStall
		default:
			return nil, fmt.Errorf("resilience: unknown fault mode %q in %q", parts[0], entry)
		}
		trig := parts[1]
		switch {
		case strings.HasPrefix(trig, "@"):
			n, err := strconv.ParseInt(trig[1:], 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("resilience: bad one-shot trigger %q in %q", trig, entry)
			}
			r.at = n
		case strings.HasPrefix(trig, "/"):
			n, err := strconv.ParseInt(trig[1:], 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("resilience: bad modulus trigger %q in %q", trig, entry)
			}
			r.every = n
		default:
			p, err := strconv.ParseFloat(trig, 64)
			if err != nil || p <= 0 || p > 1 {
				return nil, fmt.Errorf("resilience: bad probability %q in %q (want (0,1], @N or /N)", trig, entry)
			}
			r.p = p
		}
		if len(parts) >= 3 {
			if r.mode != FaultStall {
				return nil, fmt.Errorf("resilience: duration only applies to stall rules (%q)", entry)
			}
			d, err := time.ParseDuration(parts[2])
			if err != nil {
				return nil, fmt.Errorf("resilience: bad stall duration in %q: %w", entry, err)
			}
			r.stall = d
		}
		inj.rules[site] = r
	}
	if len(inj.rules) == 0 {
		return nil, nil
	}
	inj.rng = rand.New(rand.NewSource(inj.seed))
	return inj, nil
}

// MustParse is Parse for literals in tests; it panics on a malformed spec.
func MustParse(spec string) *Injector {
	inj, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return inj
}

// FromEnv parses the EnvFaultInject environment variable. Unset or empty
// yields a nil (inert) Injector; a parse error names the variable.
func FromEnv() (*Injector, error) {
	inj, err := Parse(os.Getenv(EnvFaultInject))
	if err != nil {
		return nil, fmt.Errorf("$%s: %w", EnvFaultInject, err)
	}
	return inj, nil
}

// FromFlagOrEnv is the commands' one fault-injection rule: a non-blank
// -inject flag wins, and a blank one falls back to EnvFaultInject, so
// chaos runs can inject without touching invocations.
func FromFlagOrEnv(flag string) (*Injector, error) {
	if strings.TrimSpace(flag) != "" {
		return Parse(flag)
	}
	return FromEnv()
}

// String renders the active sites for logs ("" for a nil injector).
func (i *Injector) String() string {
	if i == nil {
		return ""
	}
	sites := make([]string, 0, len(i.rules))
	for s, r := range i.rules {
		sites = append(sites, s+"="+r.mode.String())
	}
	sort.Strings(sites)
	return strings.Join(sites, ",")
}

// Fired returns how many times the site's rule has fired (0 for nil
// injectors or unconfigured sites) — chaos tests reconcile observed
// failures against it.
func (i *Injector) Fired(site string) int64 {
	if i == nil {
		return 0
	}
	r, ok := i.rules[site]
	if !ok {
		return 0
	}
	return r.fired.Load()
}

// Fire consults the site's rule: it returns an *InjectedError, panics, or
// stalls according to the rule's mode, and returns nil when the rule does
// not trigger (or the site has no rule, or the injector is nil). Stalls
// sleep the full duration; use FireCtx where cancellation must cut them
// short.
func (i *Injector) Fire(site string) error {
	return i.FireCtx(context.Background(), site)
}

// FireCtx is Fire with a context bounding stall faults.
func (i *Injector) FireCtx(ctx context.Context, site string) error {
	if i == nil {
		return nil
	}
	r, ok := i.rules[site]
	if !ok {
		return nil
	}
	n := r.hits.Add(1)
	trigger := false
	switch {
	case r.at > 0:
		trigger = n == r.at
	case r.every > 0:
		trigger = n%r.every == 0
	default:
		i.mu.Lock()
		trigger = i.rng.Float64() < r.p
		i.mu.Unlock()
	}
	if !trigger {
		return nil
	}
	r.fired.Add(1)
	switch r.mode {
	case FaultPanic:
		panic(fmt.Sprintf("resilience: injected panic at %s (hit %d)", site, n))
	case FaultStall:
		t := time.NewTimer(r.stall)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
		return nil
	default:
		return &InjectedError{Site: site, Hit: n}
	}
}

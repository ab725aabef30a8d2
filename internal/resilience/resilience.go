// Package resilience is CHOP's fault-tolerance layer: panic isolation,
// retries with capped exponential backoff, and a deterministic fault
// injector for chaos testing. Search checkpoints live in core (ShardLog),
// which retries its appends through Retry.
//
// The package is deliberately dependency-free (stdlib only) so every other
// layer — core's search workers, bad's predictor, the serve registry, obs
// sinks — can use it without import cycles. A nil *Injector never fires,
// so the happy path costs nothing when fault injection is not configured.
package resilience

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// PanicError is a recovered panic converted into a structured error: the
// site that recovered it, the panic value, and the goroutine stack captured
// at recovery time. It is the error a guarded worker or job returns instead
// of killing the process.
type PanicError struct {
	// Site names the recovery domain ("core.search", "serve.job").
	Site string
	// Value is the value passed to panic().
	Value any
	// Stack is the panicking goroutine's stack, captured by debug.Stack.
	Stack []byte
}

// Error renders the short form: site and panic value, without the stack
// (logs and run states stay readable; the stack is available on the field).
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic recovered at %s: %v", e.Site, e.Value)
}

// Guard runs fn and converts a panic into a *PanicError instead of letting
// it unwind: the offending unit of work fails, the process survives. Use it
// around every isolated work item — a search shard, a serve job — so one
// poisoned input cannot take down a long sweep or the service plane.
func Guard(site string, fn func() error) error {
	return GuardNotify(site, fn, nil)
}

// GuardNotify is Guard that also calls recovered (when non-nil) if, and
// only if, this guard itself recovered a panic. An error that merely wraps
// a panic some nested guard already recovered passes through without the
// call, so a panic crossing several guards is counted exactly once.
func GuardNotify(site string, fn func() error, recovered func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Site: site, Value: v, Stack: debug.Stack()}
			if recovered != nil {
				recovered()
			}
		}
	}()
	return fn()
}

// IsPanic reports whether err wraps a recovered panic, and returns it.
func IsPanic(err error) (*PanicError, bool) {
	var pe *PanicError
	ok := errors.As(err, &pe)
	return pe, ok
}

package resilience

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestGuardConvertsPanic(t *testing.T) {
	err := Guard("test.site", func() error { panic("boom") })
	if err == nil {
		t.Fatal("Guard swallowed the panic")
	}
	pe, ok := IsPanic(err)
	if !ok {
		t.Fatalf("IsPanic = false for %v", err)
	}
	if pe.Site != "test.site" || pe.Value != "boom" {
		t.Errorf("PanicError = %+v", pe)
	}
	if !strings.Contains(string(pe.Stack), "resilience") {
		t.Error("stack not captured")
	}
	if got := pe.Error(); !strings.Contains(got, "test.site") || !strings.Contains(got, "boom") {
		t.Errorf("Error() = %q", got)
	}
}

func TestGuardPassesThrough(t *testing.T) {
	if err := Guard("s", func() error { return nil }); err != nil {
		t.Fatalf("nil fn error became %v", err)
	}
	want := errors.New("real failure")
	err := Guard("s", func() error { return want })
	if !errors.Is(err, want) {
		t.Fatalf("error not passed through: %v", err)
	}
	if _, ok := IsPanic(err); ok {
		t.Error("plain error classified as panic")
	}
}

func TestGuardWrappedPanicError(t *testing.T) {
	inner := Guard("inner", func() error { panic(42) })
	wrapped := fmt.Errorf("shard 3: %w", inner)
	pe, ok := IsPanic(wrapped)
	if !ok || pe.Value != 42 {
		t.Fatalf("IsPanic through wrap = %v, %v", pe, ok)
	}
}

// TestIsPanicThroughMultiWrap: a panic joined with another error, or
// wrapped next to one by a two-%w Errorf, is still found.
func TestIsPanicThroughMultiWrap(t *testing.T) {
	inner := Guard("inner", func() error { panic(42) })
	other := errors.New("shard 2 failed")
	for _, err := range []error{
		errors.Join(other, inner),
		fmt.Errorf("search: %w; %w", other, inner),
	} {
		if pe, ok := IsPanic(err); !ok || pe.Value != 42 {
			t.Errorf("IsPanic(%v) = %v, %v", err, pe, ok)
		}
	}
}

package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestInjectorNilIsInert(t *testing.T) {
	var inj *Injector
	if err := inj.Fire("anything"); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
	if inj.Fired("anything") != 0 || inj.String() != "" {
		t.Error("nil injector not inert")
	}
	if got, err := Parse("  "); got != nil || err != nil {
		t.Fatalf("empty spec = %v, %v", got, err)
	}
}

func TestInjectorOneShot(t *testing.T) {
	inj := MustParse("site.a=error:@3")
	for i := 1; i <= 5; i++ {
		err := inj.Fire("site.a")
		if (i == 3) != (err != nil) {
			t.Fatalf("hit %d: err = %v", i, err)
		}
		if i == 3 {
			var ie *InjectedError
			if !errors.As(err, &ie) || ie.Site != "site.a" || ie.Hit != 3 {
				t.Fatalf("injected error = %+v", err)
			}
			if !IsInjected(err) {
				t.Error("IsInjected = false")
			}
		}
	}
	if inj.Fired("site.a") != 1 {
		t.Errorf("Fired = %d", inj.Fired("site.a"))
	}
	// Unconfigured sites never fire.
	if err := inj.Fire("site.other"); err != nil {
		t.Fatalf("unconfigured site fired: %v", err)
	}
}

// TestIsInjectedThroughMultiWrap: an injected fault joined with another
// error, or wrapped next to one by a two-%w Errorf, is still found.
func TestIsInjectedThroughMultiWrap(t *testing.T) {
	inj := MustParse("site.a=error:@1")
	fault := inj.Fire("site.a")
	other := errors.New("shard 2 failed")
	for _, err := range []error{
		errors.Join(other, fault),
		fmt.Errorf("search: %w; %w", other, fault),
	} {
		if !IsInjected(err) {
			t.Errorf("IsInjected(%v) = false", err)
		}
	}
}

func TestInjectorModulus(t *testing.T) {
	inj := MustParse("s=error:/3")
	fired := 0
	for i := 0; i < 9; i++ {
		if inj.Fire("s") != nil {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d of 9 with /3", fired)
	}
}

func TestInjectorPanicMode(t *testing.T) {
	inj := MustParse("s=panic:@1")
	err := Guard("test", func() error { return inj.Fire("s") })
	pe, ok := IsPanic(err)
	if !ok {
		t.Fatalf("no panic recovered: %v", err)
	}
	if got := pe.Error(); got == "" {
		t.Error("empty panic error")
	}
}

func TestInjectorStallHonorsContext(t *testing.T) {
	inj := MustParse("s=stall:@1:10s")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := inj.FireCtx(ctx, "s")
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stall ignored context (%v)", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestInjectorStallDuration(t *testing.T) {
	inj := MustParse("s=stall:@1:30ms")
	start := time.Now()
	if err := inj.Fire("s"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("stall too short: %v", elapsed)
	}
}

func TestInjectorProbabilityDeterministicWithSeed(t *testing.T) {
	run := func() []bool {
		inj := MustParse("seed=99,s=error:0.5")
		out := make([]bool, 20)
		for i := range out {
			out[i] = inj.Fire("s") != nil
		}
		return out
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different fault sequences")
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.5 fired %d/%d — suspicious", fired, len(a))
	}
}

func TestInjectorParseErrors(t *testing.T) {
	for _, spec := range []string{
		"nonsense",
		"s=explode:0.5",
		"s=error:2.0",
		"s=error:@0",
		"s=error:/0",
		"s=error:0.1:50ms", // duration on a non-stall rule
		"s=stall:@1:bogus",
		"seed=notanumber",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestInjectorString(t *testing.T) {
	inj := MustParse("b=panic:@1,a=error:0.1")
	if got := inj.String(); got != "a=error,b=panic" {
		t.Errorf("String() = %q", got)
	}
}

// TestFromFlagOrEnv pins the commands' one fault-injection rule: a
// non-blank flag wins over the environment variable, a blank or
// whitespace-only flag falls back to it, and a malformed variable fails
// with its name in the error.
func TestFromFlagOrEnv(t *testing.T) {
	t.Setenv(EnvFaultInject, "bad.predict=panic:@1")
	inj, err := FromFlagOrEnv("core.trial=error:@2")
	if err != nil || inj.String() != "core.trial=error" {
		t.Fatalf("flag: %q, %v; want the flag's core.trial rule", inj.String(), err)
	}
	for _, blank := range []string{"", " \t "} {
		inj, err := FromFlagOrEnv(blank)
		if err != nil || inj.String() != "bad.predict=panic" {
			t.Fatalf("flag %q: %q, %v; want the variable's bad.predict rule", blank, inj.String(), err)
		}
	}

	t.Setenv(EnvFaultInject, "core.trial=explode:@1")
	if _, err := FromFlagOrEnv(" "); err == nil || !strings.HasPrefix(err.Error(), "$"+EnvFaultInject+": ") {
		t.Fatalf("malformed variable: error %v, want it prefixed with $%s", err, EnvFaultInject)
	}
	if _, err := FromFlagOrEnv("core.trial=explode:@1"); err == nil || strings.Contains(err.Error(), EnvFaultInject) {
		t.Fatalf("malformed flag: error %v, want one that does not blame the variable", err)
	}
}

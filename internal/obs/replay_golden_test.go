package obs

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden rewrites the explain goldens under testdata/ instead of
// comparing against them: go test ./internal/obs -run TestExplainGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the explain golden files")

// TestExplainGolden pins both `chop explain` renderings of a committed
// single-tracer trace (a traced iterative Run of the three-partition AR
// filter with phase accounting on): the stage/rejection report and the
// -stats report with its phase rows and trial timeline.
func TestExplainGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "explain_fixture.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := Replay(f)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]string{
		"explain.golden":       rep.Format(),
		"explain_stats.golden": rep.FormatStats(),
	} {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if got != string(want) {
			t.Errorf("%s differs:\n--- got\n%s\n--- want\n%s", name, got, want)
		}
	}
}

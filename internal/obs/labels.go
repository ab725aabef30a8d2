package obs

import (
	"context"
	"runtime/pprof"
)

// DoLabeled runs f with the given pprof label key/value pairs attached to
// the current goroutine (and inherited by goroutines it starts), so CPU
// profiles slice by run, shard and phase. Empty values are skipped; a nil
// ctx falls back to context.Background. Labels appear in CPU profiles
// only: heap profiles do not carry labels.
func DoLabeled(ctx context.Context, f func(ctx context.Context), kv ...string) {
	if ctx == nil {
		ctx = context.Background()
	}
	pairs := make([]string, 0, len(kv))
	for i := 0; i+1 < len(kv); i += 2 {
		if kv[i] == "" || kv[i+1] == "" {
			continue
		}
		pairs = append(pairs, kv[i], kv[i+1])
	}
	if len(pairs) == 0 {
		f(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels(pairs...), f)
}

package bad

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"chop/internal/dfg"
	"chop/internal/lib"
)

func cacheTestGraph(name string) *dfg.Graph {
	g := dfg.New(name)
	in1 := g.AddNode("a", dfg.OpInput, 16)
	in2 := g.AddNode("b", dfg.OpInput, 16)
	mul := g.AddNode("m", dfg.OpMul, 16)
	add := g.AddNode("s", dfg.OpAdd, 16)
	out := g.AddNode("y", dfg.OpOutput, 16)
	g.MustConnect(in1, mul)
	g.MustConnect(in2, mul)
	g.MustConnect(mul, add)
	g.MustConnect(in2, add)
	g.MustConnect(add, out)
	return g
}

func TestPredictCacheLRUEviction(t *testing.T) {
	c := NewPredictCache(3)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), Result{Total: i})
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	// Touch k0 so k1 becomes least recently used, then overflow.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Put("k3", Result{Total: 3})
	if c.Len() != 3 {
		t.Fatalf("Len after eviction = %d, want 3", c.Len())
	}
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 survived eviction despite being LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted, want k1 only", k)
		}
	}
	// Refreshing an existing key must update the value without growing.
	c.Put("k2", Result{Total: 42})
	if r, _ := c.Get("k2"); r.Total != 42 {
		t.Fatalf("refreshed k2 = %d, want 42", r.Total)
	}
	if c.Len() != 3 {
		t.Fatalf("Len after refresh = %d, want 3", c.Len())
	}
}

func TestPredictCacheStats(t *testing.T) {
	c := NewPredictCache(2)
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 || s.HitRate() != 0 {
		t.Fatalf("fresh cache stats %+v rate %v", s, s.HitRate())
	}
	c.Get("absent")
	c.Put("k", Result{})
	c.Get("k")
	c.Get("k")
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss", s)
	}
	if got := s.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("HitRate = %v, want 2/3", got)
	}
}

func TestPredictCacheNilSafe(t *testing.T) {
	var c *PredictCache
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	c.Put("k", Result{}) // must not panic
	if c.Len() != 0 {
		t.Fatal("nil cache has entries")
	}
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("nil cache stats %+v", s)
	}
}

func TestPredictCacheDefaultCapacity(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		c := NewPredictCache(capacity)
		for i := 0; i < defaultCacheCapacity+10; i++ {
			c.Put(fmt.Sprintf("k%d", i), Result{})
		}
		if c.Len() != defaultCacheCapacity {
			t.Fatalf("capacity %d: Len = %d, want default %d",
				capacity, c.Len(), defaultCacheCapacity)
		}
	}
}

// TestCacheKeySensitivity: the key must change with every prediction-
// relevant input and must NOT change under node renaming.
func TestCacheKeySensitivity(t *testing.T) {
	g := cacheTestGraph("base")
	cfg := exp1Config()
	base := CacheKey(g, cfg)

	if CacheKey(g, cfg) != base {
		t.Fatal("key not deterministic")
	}

	// Renaming nodes (and the graph) cannot change a prediction.
	renamed := cacheTestGraph("other-name")
	for i := range renamed.Nodes {
		renamed.Nodes[i].Name = fmt.Sprintf("renamed%d", i)
	}
	if CacheKey(renamed, cfg) != base {
		t.Fatal("node renaming changed the key")
	}

	mutations := map[string]func() string{
		"node op": func() string {
			m := cacheTestGraph("base")
			m.Nodes[3].Op = dfg.OpSub
			return CacheKey(m, cfg)
		},
		"node width": func() string {
			m := cacheTestGraph("base")
			m.Nodes[2].Width = 8
			return CacheKey(m, cfg)
		},
		"extra edge": func() string {
			m := cacheTestGraph("base")
			m.MustConnect(0, 3)
			return CacheKey(m, cfg)
		},
		"library": func() string {
			c := cfg
			c.Lib = lib.ExtendedLibrary()
			return CacheKey(g, c)
		},
		"module area": func() string {
			c := cfg
			l := *cfg.Lib
			l.Modules = append([]lib.Module(nil), cfg.Lib.Modules...)
			l.Modules[0].Area *= 2
			c.Lib = &l
			return CacheKey(g, c)
		},
		"style": func() string {
			c := cfg
			c.Style.MultiCycle = !c.Style.MultiCycle
			return CacheKey(g, c)
		},
		"clocks": func() string {
			c := cfg
			c.Clocks.DatapathMult++
			return CacheKey(g, c)
		},
		"area bound": func() string {
			c := cfg
			c.MaxArea *= 2
			return CacheKey(g, c)
		},
		"perf bound": func() string {
			c := cfg
			c.Perf.Bound += 1000
			return CacheKey(g, c)
		},
		"keepall": func() string {
			c := cfg
			c.KeepAll = !c.KeepAll
			return CacheKey(g, c)
		},
		"max ii": func() string {
			c := cfg
			c.MaxII = 12
			return CacheKey(g, c)
		},
	}
	seen := map[string]string{base: "base"}
	for name, mutate := range mutations {
		key := mutate()
		if prev, dup := seen[key]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[key] = name
	}
}

// TestPredictWithCacheIdentical: Predict must return byte-identical
// results with and without a cache attached, and the second cached call
// must be a hit that still returns the same Result.
func TestPredictWithCacheIdentical(t *testing.T) {
	g := cacheTestGraph("base")
	for name, cfg := range map[string]Config{"exp1": exp1Config(), "exp2": exp2Config()} {
		plain, err := Predict(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cached := cfg
		cached.Cache = NewPredictCache(8)
		first, err := Predict(g, cached)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(plain, first) {
			t.Fatalf("%s: cache-miss result differs from uncached", name)
		}
		second, err := Predict(g, cached)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(plain, second) {
			t.Fatalf("%s: cache-hit result differs from uncached", name)
		}
		if s := cached.Cache.Stats(); s.Hits != 1 || s.Misses != 1 {
			t.Fatalf("%s: stats = %+v, want 1 hit / 1 miss", name, s)
		}
	}
}

// TestPredictCacheConcurrent hammers one cache from many goroutines mixing
// hits, misses and evictions; run under -race this is the cache's
// thread-safety proof.
func TestPredictCacheConcurrent(t *testing.T) {
	c := NewPredictCache(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (w*7+i)%40) // > capacity: forces evictions
				if r, ok := c.Get(key); ok {
					if r.Total != (w*7+i)%40 {
						t.Errorf("key %s returned foreign result %d", key, r.Total)
						return
					}
				} else {
					c.Put(key, Result{Total: (w*7 + i) % 40})
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("cache grew past capacity: %d", c.Len())
	}
	s := c.Stats()
	if s.Hits+s.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}

package serve

import (
	"bytes"
	"fmt"
	"testing"

	"cnnrev/internal/core"
)

// TestResultCacheLRUEviction pins the byte-budget LRU contract: least
// recently used entries fall out first, a get refreshes recency, and the
// byte accounting tracks keys plus bodies.
func TestResultCacheLRUEviction(t *testing.T) {
	entry := func(i int) (string, []byte) {
		return fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 97) // 3 + 97 = 100 bytes
	}
	c := newResultCache(300) // exactly three entries
	for i := 0; i < 3; i++ {
		k, b := entry(i)
		if ev := c.put(k, b); ev != 0 {
			t.Fatalf("put %d evicted %d entries under budget", i, ev)
		}
	}
	if n, e := c.stats(); n != 300 || e != 3 {
		t.Fatalf("stats = %d bytes %d entries, want 300/3", n, e)
	}
	// Touch k00 so k01 becomes the LRU victim.
	if _, ok := c.get("k00"); !ok {
		t.Fatal("k00 missing before eviction")
	}
	k3, b3 := entry(3)
	if ev := c.put(k3, b3); ev != 1 {
		t.Fatalf("put over budget evicted %d entries, want 1", ev)
	}
	if _, ok := c.get("k01"); ok {
		t.Fatal("LRU entry k01 survived eviction")
	}
	for _, k := range []string{"k00", "k02", "k03"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
}

// TestResultCacheReplaceAndOversize: replacing a key updates bytes in
// place, and an entry larger than the whole budget is refused rather than
// flushing the cache to make room for something that cannot fit.
func TestResultCacheReplaceAndOversize(t *testing.T) {
	c := newResultCache(100)
	c.put("a", make([]byte, 10))
	c.put("a", make([]byte, 50))
	if n, e := c.stats(); n != 51 || e != 1 {
		t.Fatalf("after replace: %d bytes %d entries, want 51/1", n, e)
	}
	got, ok := c.get("a")
	if !ok || len(got) != 50 {
		t.Fatalf("replaced body len %d, want 50", len(got))
	}
	if ev := c.put("huge", make([]byte, 200)); ev != 0 {
		t.Fatalf("oversized put evicted %d entries", ev)
	}
	if _, ok := c.get("huge"); ok {
		t.Fatal("entry over the whole budget was stored")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("oversized put flushed an existing entry")
	}
}

// TestCacheKeyDistinguishesParams walks every leaf field of Request,
// including the nested defense, corrupt and rank objects, and asserts that
// perturbing it changes the cache key — except the fields cacheKey clears,
// which must not. A field added to Request is covered without editing this
// test.
func TestCacheKeyDistinguishesParams(t *testing.T) {
	excluded := map[string]bool{"timeout_ms": true, "cache_bypass": true}
	base := func() *Request { return &Request{Mode: "trace", Rank: &core.RankConfig{}} }
	k0 := base().cacheKey()
	if k0 == "" || k0 != base().cacheKey() {
		t.Fatalf("identical requests produced keys %q and %q", k0, base().cacheKey())
	}
	seen := map[string]string{k0: "base"}
	leaves := requestLeaves()
	for _, l := range leaves {
		r := base()
		perturb(l.get(r))
		k := r.cacheKey()
		if excluded[l.path] {
			if k != k0 {
				t.Errorf("%s leaked into the cache key", l.path)
			}
			delete(excluded, l.path)
			continue
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("perturbing %s collides with %s on key %s", l.path, prev, k)
		}
		seen[k] = l.path
	}
	if len(excluded) != 0 || len(leaves) < 40 {
		t.Fatalf("walked %d leaves; exclusions never visited: %v", len(leaves), excluded)
	}
	// Requesting a default-parameter ranking is itself a different job.
	noRank := base()
	noRank.Rank = nil
	if noRank.cacheKey() == k0 {
		t.Fatal("rank presence does not change the key")
	}
}

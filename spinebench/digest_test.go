package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestDigestIsCanonical(t *testing.T) {
	type ab struct{ A, B int }
	type ba struct{ B, A int }
	d1, err := digest(ab{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := digest(ba{B: 2, A: 1})
	d3, _ := digestJSON([]byte(" {\n \"B\": 2, \"A\" : 1 }"))
	d4, _ := digest(map[string]int{"B": 2, "A": 1})
	if d1 != d2 || d1 != d3 || d1 != d4 {
		t.Errorf("equal documents digest differently: %s %s %s %s", d1, d2, d3, d4)
	}
	if d5, _ := digest(ab{1, 3}); d5 == d1 {
		t.Error("different documents digest the same")
	}
	if _, err := digestJSON([]byte(`{"A":1}x`)); err == nil {
		t.Error("trailing data was accepted")
	}
}

func TestGoldenRecordAndCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.json")
	g := golden{}
	key := goldenKey("w", "tiny", 7)
	g.record(key, map[string]string{"u/10": strings.Repeat("a", 64), "u/9": strings.Repeat("c", 64), "u/0": strings.Repeat("b", 64)}, 2)
	if err := g.save(path); err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(g[key]) != 2 || g[key]["u/9"] == "" {
		t.Fatalf("recorded %v, want u/0 and u/9 (natural order, limit 2)", g[key])
	}
	if ok, err := g.check(key, "u/0", strings.Repeat("b", 64)); !ok || err != nil {
		t.Errorf("matching digest: recorded=%v err=%v", ok, err)
	}
	if ok, err := g.check(key, "u/0", strings.Repeat("c", 64)); !ok || err == nil {
		t.Errorf("mismatching digest: recorded=%v err=%v", ok, err)
	}
	if ok, err := g.check(key, "u/10", strings.Repeat("c", 64)); ok || err != nil {
		t.Errorf("unrecorded unit: recorded=%v err=%v", ok, err)
	}
	if ok, _ := g.check(goldenKey("w", "tiny", 8), "u/0", "x"); ok {
		t.Error("another seed's digest was used")
	}
}

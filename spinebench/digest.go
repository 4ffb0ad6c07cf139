package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"spineless/internal/store"
)

// digest is the SHA-256 of v's canonical JSON (keys sorted, no
// insignificant whitespace; the same canonicalization the result store
// hashes specs with), so field order and map iteration cannot move it.
func digest(v any) (string, error) {
	b, err := store.Canonical(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return digestBytes(b), nil
}

// digestJSON digests an existing JSON document after canonicalizing it.
func digestJSON(raw []byte) (string, error) {
	b, err := store.CanonicalBytes(raw)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return digestBytes(b), nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// golden maps "<workload>/<size>/seed=<n>" to the recorded digest of each
// unit key. Digests are stored truncated to goldenHex hex digits, enough
// to catch any change while keeping the file small.
type golden map[string]map[string]string

const goldenHex = 16

func goldenKey(workload, size string, seed int64) string {
	return fmt.Sprintf("%s/%s/seed=%d", workload, size, seed)
}

func loadGolden(path string) (golden, error) {
	g := golden{}
	if path == "" {
		return g, nil
	}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", path, err)
	}
	return g, nil
}

// check compares a unit's digest to the recorded one, if any. It reports
// whether a record existed.
func (g golden) check(key, unit, d string) (recorded bool, err error) {
	want, ok := g[key][unit]
	if !ok {
		return false, nil
	}
	if len(d) < len(want) || d[:len(want)] != want {
		return true, fmt.Errorf("unit %s: digest %.16s, recorded %s", unit, d, want)
	}
	return true, nil
}

// save writes g with sorted keys, one workload/seed per line group.
func (g golden) save(path string) error {
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// record stores up to limit unit digests for key, taking units in
// natural order (shorter keys first, so "fresh/9" precedes "fresh/10" and
// the recorded units are the ones even a one-round run produces).
func (g golden) record(key string, digests map[string]string, limit int) {
	units := make([]string, 0, len(digests))
	for u := range digests {
		units = append(units, u)
	}
	sort.Slice(units, func(i, j int) bool {
		if len(units[i]) != len(units[j]) {
			return len(units[i]) < len(units[j])
		}
		return units[i] < units[j]
	})
	if len(units) > limit {
		units = units[:limit]
	}
	m := map[string]string{}
	for _, u := range units {
		m[u] = digests[u][:goldenHex]
	}
	g[key] = m
}

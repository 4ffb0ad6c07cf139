package jobs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestSpecHashPinned pins literal store keys for fct and live specs. Keys
// are durable — every result already in a store is filed under one — so a
// schema edit may move them only deliberately, by bumping SpecVersion and
// re-recording these values. The telemetry flag is hash-exempt, so each
// spec pins the same key observed and unobserved.
func TestSpecHashPinned(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"fct-tiny", tinySpec(), "1aabbb3e37ada7b02f50fd92ee6b9d222180bedaf03e4dbbb875d7935116b8bd"},
		{"fct-default", Spec{Seed: 5}, "c000aad4a315fbbae2e3adb6e1163d5951df4531a5de6459f69fbdcf1cf8ac24"},
		{"fct-paper", Spec{Kind: "fct", Topo: TopoSpec{Paper: true}, Fabric: "leafspine", Scheme: "ecmp", TM: "R2R",
			Util: 0.3, WindowSec: 0.005, Seed: 42, Trials: 3, MaxFlows: 1000},
			"4fcad7551d9490118619ff1efed0ea246fdd7293e0c7cc76ff59a10460076c00"},
		{"live", Spec{Kind: "live", Fabric: "dring", Seed: 3,
			Faults: &FaultSpec{Fraction: 0.05, FlapLinks: 1, GrayLinks: 2, Flows: 120, PreserveConnectivity: true}},
			"e56658a34643ff9b4cf87b01947ce423b31f5d61b36bfce2493ae19450e35e3f"},
		{"live-rrg", Spec{Kind: "live", Fabric: "rrg", Topo: TopoSpec{Supernodes: 6, Tors: 2, Ports: 20}, Seed: 1,
			Faults: &FaultSpec{K: 3, Fraction: 0.1}},
			"37fccebc57c9f0b15e06d86eb1b45763fd68c966388b9ac2556ceb074de2b8eb"},
	}
	for _, c := range cases {
		for _, tel := range []bool{false, true} {
			sp := c.spec
			sp.Telemetry = tel
			got, err := sp.Hash()
			if err != nil {
				t.Fatalf("%s telemetry=%v: %v", c.name, tel, err)
			}
			if got != c.want {
				t.Errorf("%s telemetry=%v: key %s, pinned %s", c.name, tel, got, c.want)
			}
		}
	}
}

// FuzzSpec drives arbitrary bytes down the spinelessd submit path: strict
// JSON decode, Normalized, Validate, Hash. Nothing may panic, normalizing
// must be idempotent, and a spec must hash to the same key as its
// normalized form. Legacy or unknown fields fail the strict decode. The
// seed corpus lives in testdata/fuzz/FuzzSpec.
func FuzzSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var sp Spec
		if err := dec.Decode(&sp); err != nil {
			return
		}
		n := sp.Normalized()
		if nn := n.Normalized(); !reflect.DeepEqual(nn, n) {
			t.Fatalf("Normalized is not idempotent:\nonce  %+v\ntwice %+v", n, nn)
		}
		_ = n.Validate()
		h, err := sp.Hash()
		hn, errn := n.Hash()
		if (err == nil) != (errn == nil) || h != hn {
			t.Fatalf("spec and its normalized form hash apart: %q (%v) vs %q (%v)", h, err, hn, errn)
		}
	})
}

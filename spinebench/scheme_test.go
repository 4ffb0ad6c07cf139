package main

import (
	"math/rand"
	"reflect"
	"testing"

	"spineless/internal/core"
	"spineless/internal/routing"
)

func TestWrapSchemeForwardsOptionalInterfaces(t *testing.T) {
	fs, err := core.ScaledFabrics(8, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	g := fs.DRing
	ksp, err := routing.NewKSP(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ecmp := routing.NewECMP(g)
	to := &foldTarget{tr: newTracer(), span: -1}

	wk, err := wrapScheme(ksp, to)
	if err != nil {
		t.Fatal(err)
	}
	pw, ok := wk.(routing.Prewarmer)
	if !ok {
		t.Fatal("wrapped KSP lost routing.Prewarmer")
	}
	pw.Prewarm() // must reach the KSP's own cache
	we, err := wrapScheme(ecmp, to)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := we.(routing.Prewarmer); ok {
		t.Error("wrapped ECMP claims routing.Prewarmer")
	}
	if _, ok := we.(routing.TimeScheme); ok {
		t.Error("wrapped ECMP claims routing.TimeScheme")
	}

	racks := g.Racks()
	src, dst := racks[0], racks[len(racks)-1]
	for _, c := range []struct{ raw, wrapped routing.Scheme }{{ksp, wk}, {ecmp, we}} {
		if c.wrapped.Name() != c.raw.Name() {
			t.Errorf("name %q, want %q", c.wrapped.Name(), c.raw.Name())
		}
		for id := uint64(0); id < 8; id++ {
			if !reflect.DeepEqual(c.wrapped.Path(src, dst, id), c.raw.Path(src, dst, id)) {
				t.Fatalf("%s: wrapped path differs", c.raw.Name())
			}
		}
		if !reflect.DeepEqual(c.wrapped.PathSet(src, dst, 4), c.raw.PathSet(src, dst, 4)) {
			t.Fatalf("%s: wrapped path set differs", c.raw.Name())
		}
	}
	_, counters := to.tr.snapshot()
	if counters["routing.path.calls"] != 16 || counters["routing.pathset.calls"] != 2 {
		t.Errorf("counted %v path and %v path-set calls, want 16 and 2",
			counters["routing.path.calls"], counters["routing.pathset.calls"])
	}

	tv, err := routing.NewTimeVarying(routing.Phase{Scheme: ecmp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrapScheme(tv, to); err == nil {
		t.Error("a TimeScheme was wrapped, hiding it from netsim")
	}
}

package main

import (
	"fmt"
	"time"

	"spineless/internal/routing"
)

// foldTarget is where a timed scheme folds its calls: the current round's
// tracer and the span (a netsim run, flowsim cell or diversity comparison)
// that is calling the scheme. The bench updates it before each call.
type foldTarget struct {
	tr   *tracer
	span int32
}

// timedScheme times every Path and PathSet call of the scheme it wraps and
// folds the time into the target span, so that span's self time excludes
// routing.
type timedScheme struct {
	s  routing.Scheme
	to *foldTarget
}

func (t timedScheme) Name() string { return t.s.Name() }

func (t timedScheme) Path(src, dst int, flowID uint64) []int {
	t0 := time.Now()
	p := t.s.Path(src, dst, flowID)
	t.to.tr.fold(t.to.span, "routing.path", time.Since(t0).Nanoseconds())
	return p
}

func (t timedScheme) PathSet(src, dst, maxPaths int) [][]int {
	t0 := time.Now()
	p := t.s.PathSet(src, dst, maxPaths)
	t.to.tr.fold(t.to.span, "routing.pathset", time.Since(t0).Nanoseconds())
	return p
}

// timedPrewarmScheme keeps routing.Prewarmer visible through the wrapper,
// so callers that prewarm lazily built state before fanning out still do.
type timedPrewarmScheme struct {
	timedScheme
	p routing.Prewarmer
}

func (t timedPrewarmScheme) Prewarm() { t.p.Prewarm() }

// wrapScheme returns s timed into to. Every optional interface the
// program type-asserts on a Scheme must survive wrapping: Prewarmer is
// forwarded; a TimeScheme is refused, because no workload routes with one
// and a wrapper that hid it would silently change netsim's behaviour.
func wrapScheme(s routing.Scheme, to *foldTarget) (routing.Scheme, error) {
	if _, ok := s.(routing.TimeScheme); ok {
		return nil, fmt.Errorf("wrapScheme: %s is a TimeScheme, which the wrapper does not forward", s.Name())
	}
	t := timedScheme{s: s, to: to}
	if p, ok := s.(routing.Prewarmer); ok {
		return timedPrewarmScheme{t, p}, nil
	}
	return t, nil
}

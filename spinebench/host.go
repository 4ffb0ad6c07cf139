package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostRecord describes the machine and toolchain a run measured on.
type hostRecord struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func host() hostRecord {
	return hostRecord{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// procField returns the trimmed value of the first "key: value" line of a
// /proc file whose key matches, or "" if there is none.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// rssSampler reads the process's resident set size every rssPeriod and
// keeps the largest value seen since the last take. The runner takes one
// peak per timed round and reports their median, so a single transient
// overshoot of the heap (which the whole-run high-water mark keeps) does
// not decide the metric.
type rssSampler struct {
	mu   sync.Mutex
	peak float64
	stop chan struct{}
	done chan struct{}
}

const rssPeriod = 2 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			v := rssMB()
			s.mu.Lock()
			s.peak = max(s.peak, v)
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// take returns the peak since the previous take and starts a new one.
func (s *rssSampler) take() float64 {
	v := rssMB()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := max(s.peak, v)
	s.peak = 0
	return p
}

// close stops the sampling goroutine and waits for it to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// rssMB is the current resident set size in MiB, or 0 where /proc is
// unavailable.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

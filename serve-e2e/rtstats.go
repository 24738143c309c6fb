package main

import (
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// Runtime counters read at the edges of the measured window; deltas over
// the window become the per-request process costs.
var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// rtSnapshot is one reading of the process counters.
type rtSnapshot struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU              float64
	gc                           debug.GCStats // exact recent pause durations
	cpu                          time.Duration // user+sys from getrusage
}

func readRuntime() rtSnapshot {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var snap rtSnapshot
	snap.allocs = s[0].Value.Uint64()
	snap.allocBytes = s[1].Value.Uint64()
	snap.gcCycles = s[2].Value.Uint64()
	snap.gcCPU = s[3].Value.Float64()
	snap.totalCPU = s[4].Value.Float64()
	debug.ReadGCStats(&snap.gc)
	snap.cpu = processCPU()
	return snap
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mark is one instant of the measured window with the process CPU time
// used by then.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// markWindows splits the next d into k equal sub-windows, reading the
// process CPU time at each of the k+1 boundaries. The returned function
// waits for the last boundary and returns the marks.
func markWindows(d time.Duration, k int) func() []mark {
	start := time.Now()
	marks := make([]mark, 0, k+1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i <= k; i++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(i) / time.Duration(k))))
			marks = append(marks, mark{time.Now(), processCPU()})
		}
	}()
	return func() []mark {
		<-done
		return marks
	}
}

// rtDelta is what the process spent between two snapshots.
type rtDelta struct {
	allocs, allocBytes, gcCycles float64
	gcCPUShare                   float64 // GC CPU over all CPU, by the runtime's estimate
	gcPauseP95MS                 float64
	cpuMS                        float64
}

func runtimeDelta(a, b rtSnapshot) rtDelta {
	d := rtDelta{
		allocs:       float64(b.allocs - a.allocs),
		allocBytes:   float64(b.allocBytes - a.allocBytes),
		gcCycles:     float64(b.gcCycles - a.gcCycles),
		gcPauseP95MS: pauseQuantileMS(a.gc, b.gc, 0.95),
		cpuMS:        float64(b.cpu-a.cpu) / float64(time.Millisecond),
	}
	if total := b.totalCPU - a.totalCPU; total > 0 {
		d.gcCPUShare = (b.gcCPU - a.gcCPU) / total
	}
	return d
}

// pauseQuantileMS is the q-quantile, in milliseconds, of the GC pauses
// between two readings: the newest NumGC(b)-NumGC(a) entries of b's pause
// history (the runtime keeps the last 256). 0 with no pauses.
func pauseQuantileMS(a, b debug.GCStats, q float64) float64 {
	n := int(b.NumGC - a.NumGC)
	n = min(n, len(b.Pause))
	if n <= 0 {
		return 0
	}
	ms := make([]float64, n)
	for i, p := range b.Pause[:n] {
		ms[i] = float64(p) / float64(time.Millisecond)
	}
	return quantile(sortedCopy(ms), q)
}

// heapSampler records the peak live heap (bytes marked live by the last
// GC) while it runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// dist is a sample set; durations are kept in milliseconds.
type dist struct{ v []float64 }

func (d *dist) add(t time.Duration) { d.v = append(d.v, float64(t)/float64(time.Millisecond)) }

func (d *dist) addMs(v float64) { d.v = append(d.v, v) }

func (d *dist) n() int { return len(d.v) }

// quantile interpolates linearly between order statistics (numpy's default),
// which moves smoothly with the sample instead of jumping between neighbours.
func (d *dist) quantile(q float64) float64 {
	if len(d.v) == 0 {
		return 0
	}
	s := append([]float64(nil), d.v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail returns the highest of the usual percentiles that still has at least
// ten samples beyond it, or ok=false when the sample is too small for p50.
func (d *dist) tail() (pct float64, v float64, ok bool) {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(d.n())*(1-p/100) >= 10 {
			return p, d.quantile(p / 100), true
		}
	}
	return 0, 0, false
}

// metric is one named, unit-carrying figure. One that summarises a
// distribution prints its sample count and supported tail with it.
type metric struct {
	name  string
	unit  string
	value float64
	d     *dist   // the distribution the value summarises (nil for scalars)
	scale float64 // the unit per sample unit of d, for printing the tail
}

func scalar(name, unit string, v float64) metric { return metric{name: name, unit: unit, value: v} }

// pct summarises d at quantile q in the given unit (scale = unit per ms).
func pct(name, unit string, d *dist, q, scale float64) metric {
	return metric{name: name, unit: unit, value: d.quantile(q) * scale, d: d, scale: scale}
}

func (m metric) String() string {
	s := fmt.Sprintf("  %-28s %14.4f %-6s", m.name, m.value, m.unit)
	if m.d != nil {
		if p, v, ok := m.d.tail(); ok {
			s += fmt.Sprintf("  n=%d, p%g=%.4f %s", m.d.n(), p, v*m.scale, m.unit)
		} else {
			s += fmt.Sprintf("  n=%d (too few for a tail)", m.d.n())
		}
	}
	return s
}

// rt reads the runtime counters a phase is judged by.
type rt struct {
	allocBytes, allocObjs uint64
	gcCPU, totalCPU       float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRT() rt {
	metrics.Read(rtSamples)
	return rt{
		allocBytes: rtSamples[0].Value.Uint64(),
		allocObjs:  rtSamples[1].Value.Uint64(),
		gcCPU:      rtSamples[2].Value.Float64(),
		totalCPU:   rtSamples[3].Value.Float64(),
	}
}

// gcFrac is the GC share of CPU time between two readings.
func gcFrac(a, b rt) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// liveHeapMB forces a collection and returns the heap it marked live.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// timeSetup runs build reps times, each from a collected heap, and returns
// their wall times. The state of the last rep is kept.
func timeSetup(reps int, build func() error) (*dist, error) {
	d := &dist{}
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		d.add(time.Since(t0))
	}
	return d, nil
}

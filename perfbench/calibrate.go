package main

// The machines this benchmark runs on are shared: measured here, the
// speed of a fixed 0.1 s computation varies by a third or more from one
// run of it to the next as other tenants' load comes and goes, and drifts
// by as much within a minute, beyond any regression bound. Every run
// therefore also times a fixed reference workload that shares no code
// with bddkit — hash-table traffic over a few MB, like a manager's unique
// table and computed cache, plus SHA-256 hashing — about every
// calibrateEvery between the requests it measures, untimed, and reports
// its end-to-end times at the reference speed: each measured time is
// multiplied by refCalibration / the mean of the calibrations taken while
// it was measured, together with the last one before it and the first one
// after it. A single calibration is as noisy as the machine, but the mean
// of those around a pass follows the machine's speed during the pass. A
// workload on two BDD workers runs the reference workload on both cores
// at once, as it loads them itself.
// Each calibration starts from a collected Go heap, so the garbage bddkit
// left behind is not swept while the reference workload allocates. A
// change to bddkit then moves the raw times and leaves the calibrations
// alone, so it moves the reported times by the same factor; a change in
// machine speed moves both and cancels. The raw values and the
// calibrations are printed beside the reported ones.

import (
	"crypto/sha256"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// refCalibration is about calibrate()'s median time on a 2-vCPU Intel Xeon
// virtual machine; the end-to-end times are reported at the speed it
// stands for.
const refCalibration = 135 * time.Millisecond

// calibrateEvery is the time between two calibrations during the passes.
const calibrateEvery = time.Second

var calibrationSink uint64

// calibrate runs the reference workload once and returns its wall time.
func calibrate() time.Duration {
	t0 := time.Now()
	m := make(map[uint64]uint32, 1<<17)
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < 1_500_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x & (1<<18 - 1)
		if v, ok := m[k]; ok {
			acc += uint64(v)
		} else {
			m[k] = uint32(i)
		}
	}
	buf := make([]byte, 1<<20)
	for j := 0; j < 40; j++ {
		s := sha256.Sum256(buf)
		buf[0] = s[0]
		acc += uint64(s[1])
	}
	atomic.StoreUint64(&calibrationSink, acc)
	return time.Since(t0)
}

// timeCalibration collects the garbage the measured work left behind,
// untimed, and times the reference workload.
func timeCalibration() float64 {
	runtime.GC()
	return seconds(calibrate())
}

// calibration is one timing of the reference workload, in seconds, and
// when it ended.
type calibration struct {
	at   time.Time
	secs float64
}

// calibrate times the reference workload, on one goroutine per BDD worker
// of the workload, after collecting the garbage the measured work left
// behind, untimed. The calibration is the goroutines' mean time.
func (o *outcome) calibrate() {
	runtime.GC()
	n := max(o.workers, 1)
	times := make([]float64, n)
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[i] = seconds(calibrate())
		}()
	}
	wg.Wait()
	secs := mean(times)
	o.lastCalibration = time.Now()
	o.calibrations = append(o.calibrations, calibration{o.lastCalibration, secs})
}

// calibrateDue calibrates when calibrateEvery has passed since the last
// calibration. Workloads call it between requests.
func (o *outcome) calibrateDue() {
	if time.Since(o.lastCalibration) >= calibrateEvery {
		o.calibrate()
	}
}

// scale converts a value measured over m's interval to the reference
// speed, by the calibrations taken in the interval and the nearest one on
// each side of it.
func (o *outcome) scale(m measure) float64 {
	var sum float64
	n := 0
	before, after := -1, -1
	for i, c := range o.calibrations {
		switch {
		case c.at.Before(m.from):
			before = i
		case c.at.After(m.to):
			if after < 0 {
				after = i
			}
		default:
			sum += c.secs
			n++
		}
	}
	for _, i := range []int{before, after} {
		if i >= 0 {
			sum += o.calibrations[i].secs
			n++
		}
	}
	return refCalibration.Seconds() * float64(n) / sum
}

// calibrationTimes lists the calibrations in seconds.
func (o *outcome) calibrationTimes() []float64 {
	xs := make([]float64, len(o.calibrations))
	for i, c := range o.calibrations {
		xs[i] = c.secs
	}
	return xs
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

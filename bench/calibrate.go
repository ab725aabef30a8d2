package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host's speed drifts: on a shared virtual machine the same serial work
// can take 40% longer for minutes at a time, because a neighbour shares the
// physical core. A run therefore interleaves a fixed calibration kernel with
// its ops and reports its timings in reference time: the wall time scaled by
// how fast the kernel ran, measured across the same run.
const (
	// calRefMS is the kernel's reference time: at machine_speed 1 one
	// calibration rep takes 5 ms.
	calRefMS = 5.0
	// calDuty is the calibration time as a share of the measured op time.
	// The kernel's mean is noisier the less time it runs, and so is the
	// ops'; at 0.5 a third of the run calibrates.
	calDuty = 0.5
	// calWorkers kernels run side by side, one per CPU of the 2-vCPU
	// machine README.md reports on, so every CPU the workload may use is
	// sampled.
	calWorkers = 2
)

// calNode is a heap object of the kernel's linked list.
type calNode struct {
	next *calNode
	v    [4]int
}

var calSink int

// calKernel is one unit of fixed work shaped like the program's: map
// updates, slice growth, small heap objects, pointer chasing and a sort.
func calKernel(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m := make(map[int]int)
	var xs []int
	var head *calNode
	for i := 0; i < 20000; i++ {
		k := rng.Intn(1 << 20)
		m[k] += i
		xs = append(xs, k)
		head = &calNode{next: head, v: [4]int{k, i}}
	}
	sort.Ints(xs)
	s := xs[len(xs)/2]
	for n := head; n != nil; n = n.next {
		s += n.v[0] ^ m[n.v[0]]
	}
	calSink += s
}

// calClock accumulates a run's calibration.
type calClock struct {
	total time.Duration
	reps  int
}

// after runs the kernel for about calDuty of d, the time just measured. It
// starts from a fresh collection, so the kernel's own collections do not
// depend on how much heap the op left behind.
func (c *calClock) after(d time.Duration) {
	reps := int(calDuty * float64(d.Microseconds()) / (1000 * calRefMS))
	if reps < 1 {
		reps = 1
	}
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < calWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				calKernel(int64(w*7919 + i))
			}
		}(w)
	}
	wg.Wait()
	c.total += time.Since(t0)
	c.reps += reps
}

// speed is the machine's speed over the run relative to the reference: 1
// when a rep took calRefMS, 0.5 when it took twice as long.
func (c *calClock) speed() float64 {
	return calRefMS * float64(c.reps) / ms(c.total)
}

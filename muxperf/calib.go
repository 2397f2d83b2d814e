package main

import (
	"container/heap"
	"math/rand/v2"
	"time"
)

// Host times on a shared machine drift by tens of percent over minutes
// as neighbours contend for caches and memory bandwidth, far more than
// the bounds the benchmark gates on. Every host time is therefore
// reported in reference milliseconds: the measured time scaled by
// calNominal over the time a fixed calibration kernel took next to it.
// The kernel is a small discrete-event loop of its own — a binary heap
// of freshly allocated events plus a map — so it stalls on the same
// resources the simulator does, and it shares no code with the
// simulator, so no change to the simulator can move it.

// calNominal is the calibration kernel's time on the reference host (a
// quiet 2-core x86 VM); a reference millisecond is a millisecond there.
const calNominal = 5 * time.Millisecond

// calEvents is the calibration kernel's size.
const calEvents = 20_000

type calEvent struct {
	at  float64
	key int
}

type calHeap []*calEvent

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(*calEvent)) }
func (h *calHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// calSink keeps the kernel's result alive.
var calSink int

// calibrate times one run of the calibration kernel.
func calibrate() time.Duration {
	start := time.Now()
	rng := rand.New(rand.NewPCG(1, 2))
	h := make(calHeap, 0, 2048)
	for i := 0; i < 2048; i++ {
		h = append(h, &calEvent{at: rng.Float64(), key: i})
	}
	heap.Init(&h)
	sums := map[int]float64{}
	for i := 0; i < calEvents; i++ {
		ev := heap.Pop(&h).(*calEvent)
		sums[ev.key%4096] += ev.at
		heap.Push(&h, &calEvent{at: ev.at + rng.Float64(), key: ev.key + i})
	}
	calSink += len(sums)
	return time.Since(start)
}

// refScale converts host time measured next to a calibration run of
// duration cal into reference time.
func refScale(cal time.Duration) float64 {
	if cal <= 0 {
		return 1
	}
	return float64(calNominal) / float64(cal)
}

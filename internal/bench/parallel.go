package bench

import (
	"runtime"
	"sync"
)

// sweepWorkers bounds how many independent sweep points run at once.
// Sequential by default: parallelism is opt-in via qpipbench -parallel.
var sweepWorkers = 1

// SetParallelism sets how many independent sweep points run concurrently.
// Every sweep point builds its own Engine and Cluster, so points share
// nothing but the process — results are written into per-point slots and
// row order is independent of goroutine scheduling, keeping the reports
// byte-identical to a sequential run. n <= 0 selects GOMAXPROCS.
func SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	sweepWorkers = n
}

// Parallelism reports the configured sweep concurrency.
func Parallelism() int { return sweepWorkers }

// sweep runs job(0..n-1), each exactly once, using at most sweepWorkers
// goroutines. With sweepWorkers == 1 it degrades to a plain loop.
func sweep(n int, job func(i int)) {
	if sweepWorkers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, sweepWorkers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			job(i)
		}(i)
	}
	wg.Wait()
}

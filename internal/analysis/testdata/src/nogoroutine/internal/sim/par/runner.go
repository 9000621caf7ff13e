// Package par stands in for the conservative parallel shard runner: its
// import path ends in internal/sim/par. The runner has no exemption, so
// every go statement and sync reference here is flagged like any other
// simulated package's.
package par

import "sync"

type worker struct {
	cmd  chan int
	done chan struct{}
}

func (w *worker) loop() {
	for range w.cmd {
		w.done <- struct{}{}
	}
}

func runEpochs(n int) {
	var wg sync.WaitGroup // want `sync.WaitGroup in simulated package`
	workers := make([]*worker, n)
	for i := range workers {
		w := &worker{cmd: make(chan int), done: make(chan struct{})}
		workers[i] = w
		wg.Add(1)   // want `sync.Add in simulated package`
		go func() { // want `go statement in simulated package`
			defer wg.Done() // want `sync.Done in simulated package`
			w.loop()
		}()
	}
	for _, w := range workers {
		close(w.cmd)
	}
	wg.Wait() // want `sync.Wait in simulated package`
}

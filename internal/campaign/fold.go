package campaign

import (
	"context"
	"runtime"
	"sync"
)

// foldAhead bounds how many results the pool may compute past the one the
// fold waits on, per worker: enough slack that one slow entry (a long
// shrink) does not idle the pool, few enough that pending results stay a
// small, bounded part of the heap.
const foldAhead = 4

// foldInOrder runs work(i) for every i in [0, n) on a pool of workers
// goroutines (<= 0 means GOMAXPROCS) and hands each result to fold on the
// calling goroutine in ascending i, so whatever fold does — corpus
// writes, report lines, events — happens in the same order at any pool
// size. work must not depend on what fold has done. At most
// foldAhead·workers results are held at once.
//
// When ctx is done, foldInOrder folds nothing more (a result that was
// computed after cancellation is never folded), waits for every worker
// to finish its current item, and returns ctx.Err().
func foldInOrder[R any](ctx context.Context, n, workers int, work func(i int) R, fold func(i int, r R)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))
	// Item i's result goes to slots[i%ahead], and i is handed out only
	// after the fold has taken item i-ahead's result from that slot (a
	// token in free), so a worker's send never blocks.
	ahead := foldAhead * workers
	slots := make([]chan R, ahead)
	free := make(chan struct{}, ahead)
	for k := range slots {
		slots[k] = make(chan R, 1)
		free <- struct{}{}
	}
	next := make(chan int)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(1 + workers)
	go func() {
		defer wg.Done()
		defer close(next)
		for i := 0; i < n; i++ {
			select {
			case <-free:
			case <-stop:
				return
			}
			select {
			case next <- i:
			case <-stop:
				return
			}
		}
	}()
	for range workers {
		go func() {
			defer wg.Done()
			for i := range next {
				slots[i%ahead] <- work(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		var r R
		select {
		case r = <-slots[i%ahead]:
		case <-ctx.Done():
			return ctx.Err()
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		fold(i, r)
		free <- struct{}{}
	}
	return nil
}

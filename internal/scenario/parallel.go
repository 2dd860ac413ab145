package scenario

import (
	"runtime"
	"sync"
)

// Sweep runs are embarrassingly parallel: every run owns fresh
// Deployments — engine, medium, RNGs, stores — and seeds are a pure
// function of the base seed and the run index. parMap exploits that:
// Figure.Run hands it a figure's runs, and it runs the bodies
// concurrently on a worker pool and slots each result by index, so
// output order (and therefore every printed metric row) is identical to
// a sequential loop. Determinism is untouched because no simulation
// state crosses goroutines; only the finished samples do.

// parTokens caps concurrently running simulation bodies across all
// parMap calls at GOMAXPROCS, so concurrent or nested calls do not
// oversubscribe the machine. Tokens are held only while a body runs,
// never while waiting on other goroutines, so nesting cannot deadlock.
var parTokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// parMap evaluates fn(0) … fn(n-1) concurrently and returns the results
// ordered by index.
func parMap[T any](n int, fn func(int) T) []T {
	out := make([]T, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			parTokens <- struct{}{}
			defer func() { <-parTokens }()
			out[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return out
}

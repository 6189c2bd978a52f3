package spark

import (
	"fmt"
	"sync"
)

// Persist returns an RDD that memoizes computed partitions in driver-side
// memory, Spark's MEMORY_ONLY cache: downstream jobs (or retries of
// downstream tasks) skip recomputing the lineage above this point. Cached
// partitions are copied out on access, so tasks cannot corrupt the cache.
func Persist[T any](r *RDD[T]) *RDD[T] {
	var (
		mu    sync.Mutex
		cache = make(map[int][]T)
	)
	return &RDD[T]{
		ctx:           r.ctx,
		name:          fmt.Sprintf("persist(%s)", r.name),
		numPartitions: r.numPartitions,
		compute: func(p int) ([]T, error) {
			mu.Lock()
			if v, ok := cache[p]; ok {
				mu.Unlock()
				out := make([]T, len(v))
				copy(out, v)
				return out, nil
			}
			mu.Unlock()
			v, err := r.compute(p)
			if err != nil {
				return nil, err
			}
			stored := make([]T, len(v))
			copy(stored, v)
			mu.Lock()
			cache[p] = stored
			mu.Unlock()
			return v, nil
		},
	}
}

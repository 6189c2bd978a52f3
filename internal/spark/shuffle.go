package spark

import (
	"fmt"
	"hash/maphash"
	"sort"
)

// KV is a key-value pair, the element type of shuffled RDDs.
type KV[K comparable, V any] struct {
	Key   K
	Value V
}

// shuffleSeed makes hash partitioning stable within a process run while
// remaining adversarial-input resistant across runs.
var shuffleSeed = maphash.MakeSeed()

// hashPartition assigns a key to one of n buckets.
func hashPartition[K comparable](k K, n int) int {
	h := maphash.Comparable(shuffleSeed, k)
	return int(h % uint64(n))
}

// ReduceByKey combines all values sharing a key with the associative,
// commutative op, producing an RDD with numPartitions hash partitions.
//
// The shuffle is driver-mediated, mirroring this engine's centralized
// collect architecture (the OmpCloud driver is already the rendezvous for
// all task outputs): a first job map-side-combines each partition, the
// driver groups the partial results into hash buckets, and the resulting
// RDD serves those buckets. Keys within a partition are ordered
// deterministically so downstream runs are reproducible.
func ReduceByKey[K comparable, V any](r *RDD[KV[K, V]], numPartitions int, op func(a, b V) V) (*RDD[KV[K, V]], error) {
	if numPartitions < 1 {
		return nil, fmt.Errorf("spark: reduceByKey needs >= 1 partition, got %d", numPartitions)
	}
	// Stage 1: map-side combine, the classic shuffle-write optimization —
	// each task emits at most one pair per distinct key.
	combined := MapPartitions(r, func(_ int, items []KV[K, V]) ([]KV[K, V], error) {
		acc := make(map[K]V, len(items))
		order := make([]K, 0, len(items))
		for _, kv := range items {
			if prev, ok := acc[kv.Key]; ok {
				acc[kv.Key] = op(prev, kv.Value)
			} else {
				acc[kv.Key] = kv.Value
				order = append(order, kv.Key)
			}
		}
		out := make([]KV[K, V], 0, len(acc))
		for _, k := range order {
			out = append(out, KV[K, V]{Key: k, Value: acc[k]})
		}
		return out, nil
	})
	parts, _, err := runJob(combined, nil)
	if err != nil {
		return nil, fmt.Errorf("spark: reduceByKey shuffle: %w", err)
	}
	// Driver-side merge into hash buckets.
	buckets := make([]map[K]V, numPartitions)
	for i := range buckets {
		buckets[i] = make(map[K]V)
	}
	for _, part := range parts {
		for _, kv := range part {
			b := buckets[hashPartition(kv.Key, numPartitions)]
			if prev, ok := b[kv.Key]; ok {
				b[kv.Key] = op(prev, kv.Value)
			} else {
				b[kv.Key] = kv.Value
			}
		}
	}
	snapshot := freezeBuckets(buckets)
	return &RDD[KV[K, V]]{
		ctx:           r.ctx,
		name:          fmt.Sprintf("reduceByKey(%s, %d parts)", r.name, numPartitions),
		numPartitions: numPartitions,
		compute: func(p int) ([]KV[K, V], error) {
			out := make([]KV[K, V], len(snapshot[p]))
			copy(out, snapshot[p])
			return out, nil
		},
	}, nil
}

// freezeBuckets turns per-partition maps into deterministic slices, sorted
// by the formatted key so replays and retries see identical data.
func freezeBuckets[K comparable, V any](buckets []map[K]V) [][]KV[K, V] {
	out := make([][]KV[K, V], len(buckets))
	for p, b := range buckets {
		part := make([]KV[K, V], 0, len(b))
		for k, v := range b {
			part = append(part, KV[K, V]{Key: k, Value: v})
		}
		sort.Slice(part, func(i, j int) bool {
			return fmt.Sprint(part[i].Key) < fmt.Sprint(part[j].Key)
		})
		out[p] = part
	}
	return out
}

package spark_test

import (
	"fmt"
	"log"

	"ompcloud/internal/faults"
	"ompcloud/internal/spark"
)

// The engine in one screen: build a context for a simulated 4x4-core
// cluster, derive an RDD pipeline, and run distributed actions.
func Example() {
	ctx, err := spark.NewContext(spark.ClusterSpec{Workers: 4, CoresPerWorker: 4})
	if err != nil {
		log.Fatal(err)
	}
	nums, err := spark.Range(ctx, 1000, 16) // {0..999} in 16 partitions
	if err != nil {
		log.Fatal(err)
	}
	squares := spark.Map(nums, func(v int64) (int64, error) { return v * v, nil })
	even := spark.Filter(squares, func(v int64) bool { return v%2 == 0 })

	count, _, err := even.Count()
	if err != nil {
		log.Fatal(err)
	}
	sum, _, err := even.Reduce(func(a, b int64) int64 { return a + b })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(count, sum)
	// Output: 500 166167000
}

// Broadcast variables replicate read-only data to every worker, the
// mechanism behind the paper's unpartitioned inputs.
func ExampleNewBroadcast() {
	ctx, _ := spark.NewContext(spark.ClusterSpec{Workers: 2, CoresPerWorker: 2})
	lookup := spark.NewBroadcast(ctx, map[int64]string{0: "zero", 1: "one"}, 16)
	nums, _ := spark.Range(ctx, 4, 2)
	names, _, err := spark.Map(nums, func(v int64) (string, error) {
		if name, ok := lookup.Value()[v%2]; ok {
			return name, nil
		}
		return "?", nil
	}).Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(names)
	// Output: [zero one zero one]
}

// ReduceByKey shuffles key-value pairs into hash partitions and combines
// values per key — word count in four lines.
func ExampleReduceByKey() {
	ctx, _ := spark.NewContext(spark.ClusterSpec{Workers: 2, CoresPerWorker: 2})
	words, _ := spark.Parallelize(ctx,
		[]string{"cloud", "omp", "cloud", "spark", "omp", "cloud"}, 3)
	pairs := spark.Map(words, func(w string) (spark.KV[string, int64], error) {
		return spark.KV[string, int64]{Key: w, Value: 1}, nil
	})
	counts, err := spark.ReduceByKey(pairs, 2, func(a, b int64) int64 { return a + b })
	if err != nil {
		log.Fatal(err)
	}
	items, _, _ := counts.Collect()
	total, cloud := int64(0), int64(0)
	for _, kv := range items {
		total += kv.Value
		if kv.Key == "cloud" {
			cloud = kv.Value
		}
	}
	fmt.Println(total, cloud)
	// Output: 6 3
}

// Lineage-based fault tolerance: injected task failures are retried by
// recomputing the partition, and results stay correct.
func ExampleWithFaults() {
	// Partition 1's first two attempts fail, on any worker.
	sched := faults.New(1).Add(faults.Entry{Layer: faults.Before, Partition: 1, Worker: faults.Any, To: 2})
	ctx, _ := spark.NewContext(spark.ClusterSpec{Workers: 2, CoresPerWorker: 2}, spark.WithFaults(sched))
	nums, _ := spark.Range(ctx, 100, 4)
	sum, jm, err := nums.Reduce(func(a, b int64) int64 { return a + b })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sum, jm.Failures)
	// Output: 4950 2
}

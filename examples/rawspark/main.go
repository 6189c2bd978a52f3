// Raw Spark: the OmpCloud substrate used directly. The paper builds its
// offloading on a Spark-like engine (RDDs, lineage, broadcast, fault
// tolerance); this example exercises that engine as a library — a
// sensor-fleet anomaly scan expressed as transformations — including
// surviving an injected worker failure mid-job.
//
//	go run ./examples/rawspark
package main

import (
	"fmt"
	"log"
	"math"

	"ompcloud/internal/faults"
	"ompcloud/internal/spark"
)

// reading is one telemetry sample.
type reading struct {
	Sensor int
	Value  float64
}

func main() {
	// A 4-worker x 4-core simulated cluster with a flaky executor: every
	// 40th task attempt fails and is retried through lineage.
	flaky := faults.Entry{Layer: faults.Before, Partition: faults.Any, Worker: faults.Any, Every: 40}
	ctx, err := spark.NewContext(
		spark.ClusterSpec{Workers: 4, CoresPerWorker: 4},
		spark.WithFaults(faults.New(1).Add(flaky)),
		spark.WithLogger(func(format string, args ...any) {
			// Forward engine events, as the paper's runtime can.
			log.Printf(format, args...)
		}),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Synthesize 100k readings from 64 sensors; sensor 13 drifts.
	const nReadings = 100_000
	ids, err := spark.Range(ctx, nReadings, 32)
	if err != nil {
		log.Fatal(err)
	}
	readings := spark.Map(ids, func(i int64) (reading, error) {
		sensor := int(i % 64)
		v := math.Sin(float64(i)/1000) + 0.05*math.Mod(float64(i), 7)
		if sensor == 13 {
			v += 3.5 // the anomaly
		}
		return reading{Sensor: sensor, Value: v}, nil
	})
	// Persist: both jobs below reuse the generated data without
	// recomputing the lineage.
	cached := spark.Persist(readings)

	// Job 1: global mean via reduce.
	type acc struct {
		Sum float64
		N   int64
	}
	sum, jm1, err := spark.Map(cached, func(r reading) (acc, error) {
		return acc{Sum: r.Value, N: 1}, nil
	}).Reduce(func(a, b acc) acc { return acc{a.Sum + b.Sum, a.N + b.N} })
	if err != nil {
		log.Fatal(err)
	}
	mean := sum.Sum / float64(sum.N)
	fmt.Printf("job 1: global mean %.4f over %d readings (%d task failures retried)\n",
		mean, sum.N, jm1.Failures)

	// Job 2: per-sensor anomaly counts via a shuffled reduceByKey.
	flagged := spark.Filter(cached, func(r reading) bool {
		return math.Abs(r.Value-mean) > 3.0
	})
	keyed := spark.Map(flagged, func(r reading) (spark.KV[int, int64], error) {
		return spark.KV[int, int64]{Key: r.Sensor, Value: 1}, nil
	})
	perSensor, err := spark.ReduceByKey(keyed, 4, func(a, b int64) int64 { return a + b })
	if err != nil {
		log.Fatal(err)
	}
	suspects, jm2, err := perSensor.Collect()
	if err != nil {
		log.Fatal(err)
	}
	var anomalous int64
	for _, kv := range suspects {
		anomalous += kv.Value
	}
	fmt.Printf("job 2: %d anomalous readings across %d sensors (failures retried: %d)\n",
		anomalous, len(suspects), jm2.Failures)
	for _, kv := range suspects {
		fmt.Printf("  sensor %d: %d anomalous readings\n", kv.Key, kv.Value)
	}

	m := ctx.Metrics()
	fmt.Printf("engine totals: %d jobs, %d tasks, %d failed attempts, %v compute\n",
		m.JobsRun, m.TasksRun, m.AttemptsFailed, m.ComputeTotal.Real())
}

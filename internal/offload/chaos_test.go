package offload

import (
	"fmt"
	"sync"
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/faults"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
)

// TestChaosSoak drives one cloud device through a hostile session: flaky
// task attempts throughout, a worker killed and revived mid-sequence, the
// upload cache in play, and several concurrent offloads — every region must
// still produce serial-exact results.
func TestChaosSoak(t *testing.T) {
	// Every seventh task attempt fails.
	flaky := faults.Entry{Layer: faults.Before, Partition: faults.Any, Worker: faults.Any, Every: 7}
	p, err := NewCloudPlugin(CloudConfig{
		Spec:        spark.ClusterSpec{Workers: 4, CoresPerWorker: 2},
		Store:       storage.NewMemStore(),
		Faults:      faults.New(1).Add(flaky),
		EnableCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	run := func(seed int64) error {
		n := int64(200 + seed%64)
		in := data.Generate(1, int(n), data.Dense, seed)
		out := make([]byte, 4*n)
		if _, err := p.Run(scale2Region(n, in.Bytes(), out)); err != nil {
			return err
		}
		for i := range in.V {
			if data.GetFloat(out, i) != 2*in.V[i] {
				return fmt.Errorf("seed %d: wrong at %d", seed, i)
			}
		}
		return nil
	}

	// Phase 1: sequential jobs under flakiness.
	for seed := int64(1); seed <= 4; seed++ {
		if err := run(seed); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 2: kill a worker mid-session; jobs reassign its tiles.
	p.SparkContext().KillWorker(2)
	for seed := int64(5); seed <= 7; seed++ {
		if err := run(seed); err != nil {
			t.Fatal(err)
		}
	}
	p.SparkContext().ReviveWorker(2)

	// Phase 3: concurrent offloads (distinct and repeated inputs, so the
	// cache sees hits under contention).
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errCh <- run(int64(1 + i%3)) // seeds 1..3 repeat -> cache hits
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	em := p.SparkContext().Metrics()
	t.Logf("%d failed attempts, %d cache hits", em.AttemptsFailed, p.CacheStats().Hits)
	if em.AttemptsFailed == 0 {
		t.Fatal("chaos produced no failures; the soak proved nothing")
	}
	if st := p.CacheStats(); st.Hits == 0 {
		t.Fatal("repeated inputs should have hit the cache")
	}
}

// TestChaosWorkerLossDuringEnv exercises worker loss inside an open data
// environment: the next loop reassigns and completes.
func TestChaosWorkerLossDuringEnv(t *testing.T) {
	p, err := NewCloudPlugin(CloudConfig{
		Spec:  spark.ClusterSpec{Workers: 3, CoresPerWorker: 1},
		Store: storage.NewMemStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(90)
	in := data.Generate(1, int(n), data.Dense, 80)
	out := make([]byte, 4*n)
	env, _, err := p.OpenEnv([]EnvBuffer{
		{Name: "A", Data: in.Bytes(), Upload: true},
		{Name: "B", Data: out, Download: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	p.SparkContext().KillWorker(0)
	if _, err := env.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range in.V {
		if data.GetFloat(out, i) != 2*in.V[i] {
			t.Fatalf("env survived worker loss but result wrong at %d", i)
		}
	}
}

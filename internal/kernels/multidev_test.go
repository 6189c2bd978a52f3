package kernels_test

import (
	"fmt"
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/faults"
	"ompcloud/internal/kernels"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
)

// multiSet builds the acceptance device set: an 8-thread host plus two
// asymmetric cloud clusters, each with its own in-memory store and the given
// dataflow mode. chaos optionally wraps the second cloud's store so every
// job-object PUT fails — the member trips on first upload and its slice is
// re-absorbed on the host.
func multiSet(t *testing.T, overlap int, chaos bool) *offload.MultiDevice {
	t.Helper()
	host, err := offload.NewHostPlugin(8)
	if err != nil {
		t.Fatal(err)
	}
	members := []offload.Plugin{host}
	for i, spec := range []spark.ClusterSpec{
		{Workers: 2, CoresPerWorker: 2},
		{Workers: 4, CoresPerWorker: 4},
	} {
		var store storage.Store = storage.NewMemStore()
		retryMax := 0
		if chaos && i == 1 {
			store = storage.WithFaults(store, faults.New(1).Add(faults.Entry{Op: "put", Key: "jobs/"}))
			retryMax = -1
		}
		p, err := offload.NewCloudPlugin(offload.CloudConfig{
			Spec:       spec,
			Store:      store,
			DeviceName: fmt.Sprintf("cloud%d", i),
			Overlap:    overlap,
			RetryMax:   retryMax,
			RetryBase:  -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, p)
	}
	md, err := offload.NewMultiDevice(offload.MultiDeviceConfig{
		Members:     members,
		NoRebalance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return md
}

func snapshotOutputs(outs [][]float32) [][]float32 {
	cp := make([][]float32, len(outs))
	for i, o := range outs {
		cp[i] = append([]float32(nil), o...)
	}
	return cp
}

// runAllOnMultiDevice drives all eight paper benchmarks through a
// multi-device split and checks each against the serial reference, then bit
// for bit against a single host-device run. collinear-list's scalar count is
// a float sum whose fold shape follows the split, so it is held to the
// serial tolerance rather than bit equality.
func runAllOnMultiDevice(t *testing.T, overlap int, chaos bool) {
	t.Helper()
	const n, seed = 48, 7
	for _, b := range kernels.All {
		rt, err := omp.NewRuntime(8)
		if err != nil {
			t.Fatal(err)
		}
		dev := rt.RegisterDevice(multiSet(t, overlap, chaos))

		w := b.Prepare(n, data.Dense, seed)
		if _, err := w.Run(rt, dev); err != nil {
			t.Fatalf("%s: multi-device run: %v", b.Name, err)
		}
		if err := w.Verify(); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		got := snapshotOutputs(w.Outputs())

		if _, err := w.Run(rt, rt.HostDevice()); err != nil {
			t.Fatalf("%s: host run: %v", b.Name, err)
		}
		want := w.Outputs()
		if b.Name == "collinear-list" {
			continue
		}
		for k := range want {
			for j := range want[k] {
				if got[k][j] != want[k][j] {
					t.Fatalf("%s: output %d diverges from host run at %d: %v != %v",
						b.Name, k, j, got[k][j], want[k][j])
				}
			}
		}
	}
}

func TestKernelsOnMultiDeviceStreaming(t *testing.T) {
	runAllOnMultiDevice(t, 0, false)
}

func TestKernelsOnMultiDeviceBarriered(t *testing.T) {
	runAllOnMultiDevice(t, -1, false)
}

// TestKernelsOnMultiDeviceChaos runs the full suite with a fault schedule
// tripping one cloud member: every kernel must still verify, with the
// tripped slice re-absorbed on the host instead of failing the region.
func TestKernelsOnMultiDeviceChaos(t *testing.T) {
	runAllOnMultiDevice(t, 0, true)
}

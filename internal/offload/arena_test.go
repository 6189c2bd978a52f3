package offload

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ompcloud/internal/arena"
	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
	"ompcloud/internal/faults"
	"ompcloud/internal/resilience"
	"ompcloud/internal/storage"
)

// TestMain runs every test of the package with the arena poisoning each
// buffer given back: a reader or writer that outlives its buffer then works
// on NaNs, which show in the outputs every test compares, and under -race as
// a race with the poisoning write.
func TestMain(m *testing.M) {
	arena.Poison(true)
	os.Exit(m.Run())
}

// arenaSettles returns a check that fails t unless every arena buffer drawn
// since the call has gone back.
func arenaSettles(t *testing.T) func() {
	before := arena.Held()
	return func() {
		t.Helper()
		if held := arena.Held() - before; held != 0 {
			t.Errorf("%d arena bytes were drawn and never given back", held)
		}
	}
}

// holdStore parks the first PUT of an output part until release closes,
// holding the part's bytes, and reports through poisoned whether they had
// turned into the arena's poison by the time it read them.
type holdStore struct {
	storage.Store
	started, release chan struct{}
	once             sync.Once
	mu               sync.Mutex
	poisoned         bool
}

func (s *holdStore) PutParts(key string, head, body []byte) error {
	if strings.Contains(key, "/out/") {
		first := false
		s.once.Do(func() { first = true })
		if first {
			close(s.started)
			<-s.release
			if len(body) > 0 && bytes.Count(body, []byte{0xFF}) == len(body) {
				s.mu.Lock()
				s.poisoned = true
				s.mu.Unlock()
			}
		}
	}
	return storage.PutParts(s.Store, key, head, body)
}

// TestArenaLifecycle drives the exits a plan's driver memory can leave by and
// checks that every buffer goes back to the arena, and only after its last
// reader: the outputs stay bit-identical although every buffer given back
// is poisoned. TestWindowOwnership covers a speculative copy that loses its
// window and retries after a fault schedule's Before and After entries.
func TestArenaLifecycle(t *testing.T) {
	const n = int64(4096)
	in := data.Generate(1, int(n), data.Dense, 81).Bytes()
	want := make([]byte, len(in))
	for i, v := range data.Floats(in) {
		data.PutFloat(want, i, 2*v)
	}

	// An output stream aborted while one of its chunks is still being
	// stored: the chunk reads its window of final after the job has failed,
	// so final goes back only once Abort has drained it.
	t.Run("outstream-aborted-mid-stream", func(t *testing.T) {
		settled := arenaSettles(t)
		st := &holdStore{Store: storage.NewMemStore(), started: make(chan struct{}), release: make(chan struct{})}
		const tiles, failing = 8, 7
		failLo, _ := TileRange(n, tiles, failing)
		var releaseOnce sync.Once
		reg := fatbin.NewRegistry()
		reg.Register("scale2-or-fail", func(lo, hi int64, s []int64, in, out [][]byte) error {
			if lo == failLo {
				<-st.started
				releaseOnce.Do(func() { time.AfterFunc(200*time.Millisecond, func() { close(st.release) }) })
				return resilience.MarkPermanent(errors.New("tile failed"))
			}
			return testRegistry.Invoke("scale2", lo, hi, s, in, out)
		})
		cfg := resilientConfig(st)
		cfg.RealParallelism, cfg.Fallback = 4, FallbackFail
		p, err := NewCloudPlugin(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		r := scale2Region(n, in, make([]byte, len(in)))
		r.Kernel, r.Registry, r.Tiles = "scale2-or-fail", reg, tiles
		if _, err := p.Run(r); err == nil {
			t.Fatal("a region with a failing tile succeeded")
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.poisoned {
			t.Fatal("an aborted stream stored a chunk of final after final went back to the arena")
		}
		settled()
	})

	// The device fails mid-flight after part of a tofrom output has landed
	// in the host buffer, and the breaker trips: the manager restores the
	// snapshot it drew from the arena and runs on the host; the next region
	// finds the device unavailable and runs on the host at once.
	t.Run("breaker-tripped-host-fallback", func(t *testing.T) {
		settled := arenaSettles(t)
		cfg, _ := faultyConfig(faults.Entry{Op: "get", Key: "/out/", Skip: 2})
		cfg.RetryMax, cfg.BreakerFailures = -1, 1
		p, err := NewCloudPlugin(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		host, _ := NewHostPlugin(2)
		m, _ := NewManager(host)
		id := m.Register(p)
		for run := range 2 {
			y := bytes.Clone(in)
			rep, err := m.Run(id, scale2Region(n, y, y))
			if err != nil || !rep.FellBack {
				t.Fatalf("run %d: rep %+v, err %v; want a host fallback", run, rep, err)
			}
			if !bytes.Equal(y, want) {
				t.Fatalf("run %d: the fallback's output differs from the serial reference", run)
			}
		}
		if s := p.Breaker().State(); s != resilience.BreakerOpen {
			t.Fatalf("breaker %v after a mid-flight failure, want open", s)
		}
		settled()
	})

	// A device set splits the region between the host and two cloud
	// members. One member's uploads fail, so the host re-absorbs its slice
	// into the same staging. The members' staging comes from the arena
	// dirty — poisoned by the run before — and goes back after the merge.
	t.Run("multidev-member-reabsorbed", func(t *testing.T) {
		settled := arenaSettles(t)
		member := func(name string, sched *faults.Schedule) Plugin {
			cfg := resilientConfig(storage.NewMemStore())
			cfg.DeviceName, cfg.Faults, cfg.RetryMax = name, sched, -1
			p, err := NewCloudPlugin(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			return p
		}
		host, _ := NewHostPlugin(2)
		trip := faults.New(1).Add(faults.Entry{Op: "put", Key: "jobs/"})
		md, err := NewMultiDevice(MultiDeviceConfig{Members: []Plugin{host, member("ok", nil), member("trip", trip)}, NoRebalance: true})
		if err != nil {
			t.Fatal(err)
		}
		for run := range 2 {
			out := make([]byte, len(in))
			rep, err := md.Run(scale2Region(n, in, out))
			if err != nil || !rep.FellBack || !strings.Contains(rep.FallbackReason, "trip") {
				t.Fatalf("run %d: rep %+v, err %v; want the trip member's slice re-absorbed", run, rep, err)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("run %d: the merged output differs from the serial reference", run)
			}
		}
		if shares := md.LastShares(); shares[2] == 0 {
			t.Fatalf("shares %v: the failing member was given no slice", shares)
		}
		settled()
	})

	// Loops that rewrite an environment's buffers swap new bytes in and give
	// the old ones back; a tofrom loop reads the buffer it replaces. A close
	// whose download fails still ends the environment and gives its
	// buffers back.
	t.Run("env-loops-and-failed-close", func(t *testing.T) {
		settled := arenaSettles(t)
		cfg, _ := faultyConfig(faults.Entry{Op: "put", Key: "/out/"})
		cfg.RetryMax = -1
		p, err := NewCloudPlugin(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		out := make([]byte, len(in))
		env, _, err := p.OpenEnv([]EnvBuffer{
			{Name: "A", Data: in, Upload: true},
			{Name: "B", Data: out, Download: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		for loop := range 3 {
			r := scale2Region(n, in, out)
			if loop > 0 {
				r.Ins[0].Name = "B" // tofrom: B = 2*B
			}
			if _, err := env.Run(r); err != nil {
				t.Fatal(err)
			}
		}
		got, err := env.Buffer("B")
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range data.Floats(want) {
			if g := data.GetFloat(got, i); g != 4*v {
				t.Fatalf("B[%d] = %v after three loops, want %v", i, g, 4*v)
			}
		}
		if _, err := env.Close(); err == nil || err == errUnavailable {
			t.Fatalf("close against failing output puts: %v, want a failed download", err)
		}
		if _, err := env.Buffer("B"); err == nil {
			t.Fatal("a failed close left the environment's buffers reachable")
		}
		settled()
	})
}

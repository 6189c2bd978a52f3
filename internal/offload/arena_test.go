package offload

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

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
	arenaPoison.Store(true)
	os.Exit(m.Run())
}

// arenaSettles returns a check that fails t unless every arena buffer drawn
// since the call has gone back.
func arenaSettles(t *testing.T) func() {
	before := arenaHeld.Load()
	return func() {
		t.Helper()
		if held := arenaHeld.Load() - before; held != 0 {
			t.Errorf("%d arena bytes were drawn and never given back", held)
		}
	}
}

func TestArenaClasses(t *testing.T) {
	seen := make(map[int]int) // class -> capacity
	for n := arenaMin; n <= 1<<20; n++ {
		class, size := arenaClass(n)
		if size < n || (size-n)*8 >= n {
			t.Fatalf("%d bytes: class capacity %d, want at least n and under n/8 more", n, size)
		}
		if c, again := arenaClass(size); c != class || again != size {
			t.Fatalf("%d bytes: capacity %d maps to class %d (%d), not back to %d", n, size, c, again, class)
		}
		if prev, ok := seen[class]; ok && prev != size {
			t.Fatalf("class %d has capacities %d and %d", class, prev, size)
		}
		seen[class] = size
	}
	for _, n := range []int{1 << 30, 1<<40 + 1, 1 << 62} {
		if class, size := arenaClass(n); class < 0 || class >= len(arena.class) || size < n {
			t.Fatalf("%d bytes: class %d of %d, capacity %d", n, class, len(arena.class), size)
		}
	}
}

// A Get or a Put on the arena allocates nothing once a class has been used:
// drawing driver memory must not cost the daemon's small jobs what it saves
// the stream regions.
func TestArenaGetPutAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	putBuf(getBuf(40 << 10))
	if allocs := testing.AllocsPerRun(100, func() { putBuf(getBuf(40 << 10)) }); allocs != 0 {
		t.Fatalf("getBuf + putBuf: %v allocations, want 0", allocs)
	}
}

// A buffer given back is handed out again, dirty, and counted as a hit.
func TestArenaRecyclesDirty(t *testing.T) {
	arenaPoison.Store(false)
	defer arenaPoison.Store(true)
	b := getBuf(100 << 10)
	for i := range b {
		b[i] = 7
	}
	putBuf(b)
	again := getBuf(99 << 10)
	defer putBuf(again)
	if &again[0] != &b[0] || again[0] != 7 {
		t.Fatal("a buffer of the same class was not reused as it was left")
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

// An idle buffer outlives the collection that may be running when it goes
// back and one whole collection after it, and is dropped with the second.
func TestArenaDropsAfterTwoWholeCollections(t *testing.T) {
	var a idleBuffers
	a.class[0] = []idleBuf{{new(byte), 10}, {new(byte), 12}}
	for _, step := range []struct {
		done uint64
		want int
	}{{12, 2}, {13, 1}, {14, 1}, {15, 0}} {
		a.dropIdle(step.done)
		if got := len(a.class[0]); got != step.want {
			t.Fatalf("after %d collections: %d idle buffers, want %d", step.done, got, step.want)
		}
	}
	if a.class[0][:1][0].p != nil {
		t.Fatal("a dropped buffer is still referenced")
	}
}

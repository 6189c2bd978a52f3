package offload

import (
	"errors"
	"testing"

	"ompcloud/internal/data"
)

func TestHostEnvLifecycle(t *testing.T) {
	h, _ := NewHostPlugin(2)
	n := int64(32)
	in := data.Generate(1, int(n), data.Dense, 90)
	out := make([]byte, 4*n)
	env, openRep, err := h.OpenEnv([]EnvBuffer{
		{Name: "A", Data: in.Bytes(), Upload: true},
		{Name: "B", Data: out, Download: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if openRep.Total() != 0 {
		t.Fatal("host env open must be free")
	}
	buf, err := env.Buffer("A")
	if err != nil || len(buf) != len(in.Bytes()) {
		t.Fatalf("Buffer = %d bytes, %v", len(buf), err)
	}
	if _, err := env.Buffer("missing"); err == nil {
		t.Fatal("unknown buffer should error")
	}
	if _, err := env.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	// Host env shares memory: results land directly in the host buffer.
	if data.GetFloat(out, 3) != 2*in.V[3] {
		t.Fatal("host env result wrong")
	}
	if _, err := env.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Close(); err == nil {
		t.Fatal("double close should error")
	}
	if _, err := env.Run(scale2Region(n, in.Bytes(), out)); err == nil {
		t.Fatal("run after close should error")
	}
}

func TestHostEnvValidation(t *testing.T) {
	h, _ := NewHostPlugin(1)
	if _, _, err := h.OpenEnv([]EnvBuffer{{Name: ""}}); err == nil {
		t.Fatal("unnamed buffer should error")
	}
	if _, _, err := h.OpenEnv([]EnvBuffer{{Name: "A"}, {Name: "A"}}); err == nil {
		t.Fatal("duplicate buffer should error")
	}
}

func TestRegionByteTotals(t *testing.T) {
	r := scale2Region(8, make([]byte, 32), make([]byte, 32))
	if r.Ins[0].Len() != 32 || r.OutBytesRaw() != 32 {
		t.Fatalf("byte totals: %d / %d", r.Ins[0].Len(), r.OutBytesRaw())
	}
}

func TestUnreachableStoreAllOpsFail(t *testing.T) {
	u := unreachableStore{addr: "x:1", err: errors.New("dial refused")}
	if err := u.Put("k", nil); err == nil {
		t.Fatal("Put should fail")
	}
	if _, err := u.Get("k"); err == nil {
		t.Fatal("Get should fail")
	}
	if err := u.Delete("k"); err == nil {
		t.Fatal("Delete should fail")
	}
	if _, err := u.List(""); err == nil {
		t.Fatal("List should fail")
	}
	if _, err := u.Stat("k"); err == nil {
		t.Fatal("Stat should fail")
	}
}

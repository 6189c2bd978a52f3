package storage

import (
	"testing"
)

func TestGetAppendFallbackAndNative(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   Store
	}{
		{"mem", NewMemStore()},
		{"metered", NewMetered(NewMemStore())},
	} {
		data := []byte("hello chunk payload")
		if err := tc.st.Put("k", data); err != nil {
			t.Fatal(err)
		}
		dst := append(make([]byte, 0, 64), "prefix:"...)
		out, err := GetAppend(tc.st, "k", dst)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(out) != "prefix:"+string(data) {
			t.Fatalf("%s: got %q", tc.name, out)
		}
		if _, err := GetAppend(tc.st, "missing", dst); err == nil {
			t.Fatalf("%s: missing key must error", tc.name)
		}
	}
}

func TestDiskStoreGetAppend(t *testing.T) {
	st, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 10_000)
	for i := range data {
		data[i] = byte(i)
	}
	if err := st.Put("dir/obj", data); err != nil {
		t.Fatal(err)
	}
	out, err := st.GetAppend("dir/obj", make([]byte, 0, 16_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(data) {
		t.Fatalf("got %d bytes, want %d", len(out), len(data))
	}
	for i := range out {
		if out[i] != byte(i) {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	if _, err := st.GetAppend("missing", nil); err == nil {
		t.Fatal("missing key must error")
	}
}

func TestMemStoreGetAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gates are meaningless under -race instrumentation")
	}
	st := NewMemStore()
	if err := st.Put("k", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 1<<21)
	allocs := testing.AllocsPerRun(10, func() {
		out, err := st.GetAppend("k", dst[:0])
		if err != nil || len(out) != 1<<20 {
			t.Fatal("GetAppend failed")
		}
	})
	if allocs > 0 {
		t.Errorf("MemStore.GetAppend: %v allocs/run, want 0", allocs)
	}
}

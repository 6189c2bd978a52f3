package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// scanList is List by brute force over a model of the store's keys.
func scanList(model map[string]bool, prefix string) []string {
	var keys []string
	for k := range model {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestListMatchesScan runs random Put / overwrite / Delete sequences and
// compares List with a brute-force scan after the steps, for prefixes that
// end in a slash and that do not, that are themselves keys, that name a
// directory and a key with no slash at all, and the empty prefix. A file
// cannot also be a directory on disk, so the disk store's leaf names are
// never directory names; the memory store also gets keys such as "d" beside
// "d/x". Prefixes that climb out of the store ("../") or start at the file
// system's root list nothing, though the disk store's root has a sibling file
// such a walk would find.
func TestListMatchesScan(t *testing.T) {
	dirs := []string{"", "d/", "dd/", "d/e/", "d/e/f/", "dd/e/"}
	// "d/x/z/w" and "x/z/" name directories below what may be a key.
	prefixes := []string{"", "d", "d/", "dd", "dd/", "d/e", "d/e/", "d/e/f/", "d/x", "d/xy", "x", "xy", "e", "d/e/f/y", "q/", "q", "d/x/z/w", "x/z/",
		"..", "../", "../../../../", "d/../", "d/../..", "/", "/d/"}
	base := t.TempDir()
	if err := os.WriteFile(filepath.Join(base, "outside"), []byte{1}, 0o644); err != nil {
		t.Fatal(err)
	}
	disk, err := NewDiskStore(filepath.Join(base, "store"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		st     Store
		leaves []string
		every  int // compare after every every-th step
	}{
		{"mem", NewMemStore(), []string{"x", "xy", "y", "d", "dd", "e"}, 1},
		{"disk", disk, []string{"x", "xy", "y"}, 25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			model := make(map[string]bool)
			check := func(step int) {
				t.Helper()
				for _, p := range append(prefixes, scanList(model, "")...) {
					got, err := tc.st.List(p)
					if err != nil {
						t.Fatalf("step %d: List(%q): %v", step, p, err)
					}
					for _, k := range got {
						if strings.Contains(k, "..") {
							t.Fatalf("step %d: List(%q) returned %q, outside the store", step, p, k)
						}
					}
					if want := scanList(model, p); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
						t.Fatalf("step %d: List(%q) = %q, want %q", step, p, got, want)
					}
				}
			}
			for step := 0; step < 600; step++ {
				key := dirs[rng.Intn(len(dirs))] + tc.leaves[rng.Intn(len(tc.leaves))]
				if rng.Intn(5) < 3 {
					if err := tc.st.Put(key, []byte{byte(step)}); err != nil {
						t.Fatal(err)
					}
					model[key] = true
				} else {
					if err := tc.st.Delete(key); err != nil {
						t.Fatal(err)
					}
					delete(model, key)
				}
				if step%tc.every == 0 {
					check(step)
				}
			}
			check(600)
			for k := range model {
				if err := tc.st.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
			}
			check(601)
			if m, ok := tc.st.(*MemStore); ok && len(m.dirs) > 1 {
				t.Fatalf("an empty store's index still holds %d directories", len(m.dirs))
			}
		})
	}
}

// TestMemStoreListConcurrent lists while other goroutines put and delete,
// beside and below the listed prefix: each List is exact and sorted for the
// keys nobody touches, and every key it returns lies under its prefix. Run
// it with -race.
func TestMemStoreListConcurrent(t *testing.T) {
	s := NewMemStore()
	var stable []string
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("jobs/1/in/%02d", i)
		stable = append(stable, k)
		if err := s.Put(k, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// A sibling job (jobs/10 lies under the prefix "jobs/1"),
				// a subdirectory of the stable one, and an unrelated tree.
				for _, k := range []string{
					fmt.Sprintf("jobs/1%d/in/%d", w, i%7),
					fmt.Sprintf("jobs/1/in/w%d/%d", w, i%5),
					fmt.Sprintf("cache/c/%d-%d", w, i%11),
				} {
					if err := s.Put(k, []byte{2}); err != nil {
						t.Error(err)
						return
					}
					if i%2 == 1 {
						if err := s.Delete(k); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(w)
	}
	for i := 0; i < 2000; i++ {
		keys, err := s.List("jobs/1/in/")
		if err != nil {
			t.Fatal(err)
		}
		var own []string
		for _, k := range keys {
			if !strings.Contains(k, "/w") {
				own = append(own, k)
			}
		}
		if !reflect.DeepEqual(own, stable) || !sort.StringsAreSorted(keys) {
			t.Fatalf("List(jobs/1/in/) = %q", keys)
		}
		wide, err := s.List("jobs/1")
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range wide {
			if !strings.HasPrefix(k, "jobs/1") {
				t.Fatalf("List(jobs/1) returned %q", k)
			}
		}
		if !sort.StringsAreSorted(wide) || len(wide) < len(stable) {
			t.Fatalf("List(jobs/1) = %d keys, sorted %v", len(wide), sort.StringsAreSorted(wide))
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkMemStoreList lists one job's objects, the way offload's cleanup
// does (a job prefix without its trailing slash), in a store that also holds
// 1k or 100k unrelated keys: the cross-job content cache a long-lived daemon
// accumulates. The two sizes should cost about the same.
func BenchmarkMemStoreList(b *testing.B) {
	for _, unrelated := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("unrelated=%d", unrelated), func(b *testing.B) {
			s := NewMemStore()
			for i := 0; i < unrelated; i++ {
				dir := "tenants/t0/cache/"
				if i%2 == 0 {
					dir += "c/"
				}
				if err := s.Put(fmt.Sprintf("%s%064x", dir, i), nil); err != nil {
					b.Fatal(err)
				}
			}
			for _, name := range []string{"A", "B", "C"} {
				for part := 0; part < 9; part++ {
					if err := s.Put(fmt.Sprintf("tenants/t0/jobs/42/in/%s.%05d.part", name, part), nil); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				keys, err := s.List("tenants/t0/jobs/42")
				if err != nil || len(keys) != 27 {
					b.Fatalf("List = %d keys, %v", len(keys), err)
				}
			}
		})
	}
}

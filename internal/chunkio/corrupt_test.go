package chunkio

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"ompcloud/internal/faults"
	"ompcloud/internal/resilience"
	"ompcloud/internal/storage"
	"ompcloud/internal/xcompress"
)

// chunkedFixture uploads compressible data that spans several chunks and
// returns the backing store plus the pristine payload.
func chunkedFixture(t *testing.T, o Options) (*storage.MemStore, []byte) {
	t.Helper()
	st := storage.NewMemStore()
	data := compressible(4*o.ChunkSize+321, 11)
	if _, err := Upload(st, "obj", data, o); err != nil {
		t.Fatalf("Upload: %v", err)
	}
	return st, data
}

func TestDownloadTruncatedManifest(t *testing.T) {
	o := Options{Codec: xcompress.Codec{MinSize: 1}, ChunkSize: 4 << 10, Parallel: 2}
	st, data := chunkedFixture(t, o)
	obj, err := st.Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	if len(obj) == 0 || obj[0] != xcompress.TagChunked {
		t.Fatal("fixture did not produce a chunked manifest")
	}
	// Cut the manifest mid-JSON: the tag byte survives, the body does not.
	if err := st.Put("obj", obj[:10]); err != nil {
		t.Fatal(err)
	}
	got, _, err := download(st, "obj", len(data), o)
	if err == nil {
		t.Fatalf("truncated manifest returned %d bytes without error", len(got))
	}
	if !resilience.IsTransient(err) {
		t.Fatalf("truncated manifest should classify transient (re-fetch may heal), got %v: %v",
			resilience.ClassOf(err), err)
	}
}

func TestDownloadMissingPartClassifiedPermanent(t *testing.T) {
	o := Options{Codec: xcompress.Codec{MinSize: 1}, ChunkSize: 4 << 10, Parallel: 2}
	st, data := chunkedFixture(t, o)
	if err := st.Delete(partKey("obj", 1)); err != nil {
		t.Fatal(err)
	}
	got, _, err := download(st, "obj", len(data), o)
	if err == nil {
		t.Fatalf("missing part returned %d bytes without error", len(got))
	}
	if !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("missing part should surface ErrNotFound, got %v", err)
	}
	if !resilience.IsPermanent(err) {
		t.Fatalf("missing object is not retriable; classified %v: %v", resilience.ClassOf(err), err)
	}
}

func TestDownloadBitFlippedChunkFails(t *testing.T) {
	o := Options{Codec: xcompress.Codec{MinSize: 1}, ChunkSize: 4 << 10, Parallel: 2}
	st, data := chunkedFixture(t, o)
	key := partKey("obj", 2)
	enc, err := st.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	// Compressible fixture data ⇒ gzip-framed parts, whose CRC catches rot.
	enc[len(enc)/2] ^= 0x10
	if err := st.Put(key, enc); err != nil {
		t.Fatal(err)
	}
	got, _, err := download(st, "obj", len(data), o)
	if err == nil {
		if bytes.Equal(got, data) {
			t.Fatal("bit flip silently vanished")
		}
		t.Fatal("bit-flipped chunk returned corrupt data without error")
	}
	if !resilience.IsTransient(err) {
		t.Fatalf("corrupt payload should classify transient, got %v: %v", resilience.ClassOf(err), err)
	}
}

func TestDownloadManifestVersionMismatchPermanent(t *testing.T) {
	o := Options{Codec: xcompress.Codec{MinSize: 1}, ChunkSize: 4 << 10}
	st, _ := chunkedFixture(t, o)
	frame := append([]byte{xcompress.TagChunked},
		[]byte(fmt.Sprintf(`{"version":%d,"chunk_size":1,"raw_size":0,"chunks":[]}`, manifestVersion+1))...)
	if err := st.Put("obj", frame); err != nil {
		t.Fatal(err)
	}
	_, _, err := download(st, "obj", 0, o)
	if err == nil || !resilience.IsPermanent(err) {
		t.Fatalf("future manifest version must fail permanently, got %v", err)
	}
}

func TestDownloadRetriesHealCorruption(t *testing.T) {
	o := Options{Codec: xcompress.Codec{MinSize: 1}, ChunkSize: 4 << 10, Parallel: 2}
	inner, data := chunkedFixture(t, o)
	// One truncated part read and one failed part request, both one-shot
	// and armed for different Gets: the retry loop must heal each and
	// return byte-identical data.
	sched := faults.New(1).Add(
		faults.Entry{Op: "get", Key: ".part", Count: 1, Do: faults.Truncate, Keep: 3},
		faults.Entry{Op: "get", Key: ".part", Skip: 1, Count: 1, Err: errors.New("injected get flake")})
	fs := storage.WithFaults(inner, sched)
	o.Retry = resilience.Policy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		Sleep:       func(time.Duration) {},
	}
	got, res, err := download(fs, "obj", len(data), o)
	if err != nil {
		t.Fatalf("retries did not heal injected corruption: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("healed download is not byte-identical")
	}
	if res.Retries < 2 {
		t.Fatalf("Retries = %d, want >= 2 (one per injected fault)", res.Retries)
	}
	if n := sched.Fired(faults.Store); n != 2 {
		t.Fatalf("schedule fired %d faults, want 2", n)
	}
}

func TestUploadRetriesHealPutFaults(t *testing.T) {
	o := Options{Codec: xcompress.Codec{MinSize: 1}, ChunkSize: 4 << 10, Parallel: 2}
	data := compressible(4*o.ChunkSize+99, 12)
	fs := storage.WithFaults(storage.NewMemStore(), faults.New(1).Add(faults.Entry{Op: "put", Count: 2}))
	o.Retry = resilience.Policy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		Sleep:       func(time.Duration) {},
	}
	up, err := Upload(fs, "obj", data, o)
	if err != nil {
		t.Fatalf("retries did not heal injected put faults: %v", err)
	}
	if up.Retries < 2 {
		t.Fatalf("upload Retries = %d, want >= 2", up.Retries)
	}
	got, _, err := download(fs, "obj", len(data), o)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip after healed upload: %v", err)
	}
}

func TestDownloadNoRetryFailsFastOnExhaustedBudget(t *testing.T) {
	o := Options{Codec: xcompress.Codec{MinSize: 1}, ChunkSize: 4 << 10, Parallel: 2}
	inner, data := chunkedFixture(t, o)
	fs := storage.WithFaults(inner, faults.New(1).Add(faults.Entry{Op: "get", Key: ".part"})) // dead forever
	o.Retry = resilience.Policy{MaxAttempts: 2, Sleep: func(time.Duration) {}}
	_, _, err := download(fs, "obj", len(data), o)
	if err == nil {
		t.Fatal("permanently failing part reads must surface an error")
	}
	if !resilience.IsTransient(err) {
		t.Fatalf("injected fault lost its class: %v", err)
	}
}

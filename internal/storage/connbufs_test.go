package storage

import (
	"bytes"
	"testing"
)

// TestServedConnectionAllocBudget: the 64 KiB reader and writer a server
// frames a connection's traffic through are recycled across connections, so
// once warm a connection — dialled, one PUT and one GET, closed — allocates
// a few KiB on the two sides together: sockets, goroutines, the client's
// header scratch and the GET's body. A fresh pair per connection shows as
// 128 KiB a connection.
func TestServedConnectionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gates are meaningless under -race instrumentation")
	}
	srv, err := Serve("127.0.0.1:0", NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body := bytes.Repeat([]byte("ompcloud"), 128)
	connect := func() {
		cli, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if err := cli.Put("k", body); err != nil {
			t.Fatal(err)
		}
		got, err := cli.Get("k")
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("GET returned %d bytes, %v; want the %d put", len(got), err, len(body))
		}
	}
	for range 10 {
		connect() // warm-up: the pool, and a second pair for a server still closing the last connection
	}
	const conns, budget = 50, 32 << 10
	per := totalAlloc(func() {
		for range conns {
			connect()
		}
	}) / conns
	t.Logf("bytes per connection: %d", per)
	if per > budget {
		t.Errorf("a served connection allocated %d bytes, want <= %d: its buffers are not recycled", per, budget)
	}
}

package chunkio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"

	"ompcloud/internal/storage"
)

// storagedEnv turns the test binary into a storage daemon. The alloc gates
// count every allocation in the process, so the server half of a loopback
// store has to live in another one — as ompcloud-storaged does in a
// deployment — for a count of zero to be the client's.
const storagedEnv = "CHUNKIO_TEST_STORAGED"

func TestMain(m *testing.M) {
	if os.Getenv(storagedEnv) == "" {
		os.Exit(m.Run())
	}
	// What ompcloud-storaged serves: a metered in-memory store. Announce the
	// address, then live until the parent closes our stdin.
	srv, err := storage.Serve("127.0.0.1:0", storage.NewMetered(storage.NewMemStore()))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(srv.Addr())
	io.Copy(io.Discard, os.Stdin)
	srv.Close()
}

// dialStoraged starts a storage daemon in a child process and returns a
// metered client of it: storage.Serve + storage.Dial + storage.Metered, the
// stack every remote deployment and the benchmark run on.
func dialStoraged(t *testing.T) storage.Store {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), storagedEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stdin.Close()
		cmd.Wait()
	})
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("storage daemon did not announce its address: %v", err)
	}
	cli, err := storage.Dial(strings.TrimSpace(addr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return storage.NewMetered(cli)
}

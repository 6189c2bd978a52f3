package config

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func mustParse(t *testing.T, text string) *File {
	t.Helper()
	f, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestReaderTypedReads(t *testing.T) {
	f := mustParse(t, `
[s]
n = 7
x = 2.5
on = yes
ms = 1.5
mode = fast
addrs = a:1 , ,b:2
`)
	r := f.Reader("")
	if got := r.Int("s", "n", 1, Positive); got != 7 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Float("s", "x", 1); got != 2.5 {
		t.Fatalf("Float = %v", got)
	}
	if !r.Bool("s", "on", false) {
		t.Fatal("Bool")
	}
	if got := r.Millis("s", "ms", time.Second); got != 1500*time.Microsecond {
		t.Fatalf("Millis = %v", got)
	}
	if got := r.Enum("s", "mode", "slow", "slow", "fast"); got != "fast" {
		t.Fatalf("Enum = %q", got)
	}
	if got := r.List("s", "addrs"); !reflect.DeepEqual(got, []string{"a:1", "b:2"}) {
		t.Fatalf("List = %q", got)
	}
	if got := r.Str("s", "mode", ""); got != "fast" {
		t.Fatalf("Str = %q", got)
	}
	// Absent keys take the default, and no check looks at a default: 0 may
	// mean "use the built-in" where a written-out 0 is rejected.
	if r.Int("s", "absent", 0, Positive) != 0 || r.Millis("s", "absent-ms", 40*time.Millisecond, Positive) != 40*time.Millisecond ||
		r.Enum("s", "absent-mode", "slow", "slow", "fast") != "slow" || r.List("s", "absent-list") != nil || r.Has("s", "absent-has") {
		t.Fatal("absent key did not take its default")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	// A nil file reads as an empty one.
	var none *File
	if r := none.Reader(""); r.Int("s", "n", 3) != 3 || r.Done() != nil {
		t.Fatal("nil file")
	}
}

func TestReaderFirstErrorSticks(t *testing.T) {
	f := mustParse(t, "[s]\na = 0\nb = many\nc = maybe\nd = tape\n")
	for name, tc := range map[string]struct {
		read func(r *Reader)
		want string
	}{
		"out of range": {func(r *Reader) { r.Int("s", "a", 1, Positive); r.Int("s", "b", 1) }, "s.a must be positive, got 0"},
		"malformed":    {func(r *Reader) { r.Int("s", "b", 1); r.Int("s", "a", 1, Positive) }, `s.b: "many" is not an integer`},
		"bool":         {func(r *Reader) { r.Bool("s", "c", false); r.Float("s", "b", 1) }, `s.c: "maybe" is not a boolean`},
		"enum":         {func(r *Reader) { r.Enum("s", "d", "memory", "memory", "disk"); r.Int("s", "b", 1) }, `s.d: unknown value "tape" (want memory|disk)`},
		"millis":       {func(r *Reader) { r.Millis("s", "a", 0, Positive) }, "s.a must be positive, got 0"},
		"caller's own": {func(r *Reader) { r.Fail(os.ErrInvalid); r.Int("s", "b", 1) }, os.ErrInvalid.Error()},
		"second check": {func(r *Reader) { r.Float("s", "a", 1, NonNegative, Positive) }, "s.a must be positive, got 0"},
	} {
		r := f.Reader("")
		tc.read(r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Err = %v, want it to contain %q", name, err, tc.want)
		}
		// Done reports the value error even though unread keys remain.
		if r.Done() != r.Err() {
			t.Errorf("%s: Done = %v, want Err", name, r.Done())
		}
	}
}

func TestReaderOverlay(t *testing.T) {
	f := mustParse(t, `
[cluster]
workers = 8
cores-per-worker = 4

[device "eu"]
cluster.workers = 2
weight = 2.5
`)
	r := f.Reader(`device "eu"`)
	if got := r.Int("cluster", "workers", 16); got != 2 {
		t.Fatalf("block value should win, got %d", got)
	}
	if got := r.Int("cluster", "cores-per-worker", 16); got != 4 {
		t.Fatalf("flat section should fill in, got %d", got)
	}
	if got := r.Int("cluster", "lease-misses", 3); got != 3 {
		t.Fatalf("default should fill in, got %d", got)
	}
	if got := r.Float(`device "eu"`, "weight", 0, Positive); got != 2.5 {
		t.Fatalf("block-local key = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	want := []string{"cluster.cores-per-worker", "cluster.lease-misses", "cluster.workers", `device "eu".weight`}
	if got := r.Asked(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Asked = %q, want %q", got, want)
	}
	// A bad overlay value is reported where it was found.
	f.Set(`device "eu"`, "cluster.workers", "many")
	r = f.Reader(`device "eu"`)
	r.Int("cluster", "workers", 16)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), `device "eu".cluster.workers`) {
		t.Fatalf("Err = %v", err)
	}
}

// The read functions below stand in for the three parsers: what matters to
// Unknown is which keys a reader was asked for, not what became of the
// values.
func TestReaderUnknown(t *testing.T) {
	offload := func(r *Reader, f *File) {
		r.Int("cluster", "workers", 16)
		r.Enum("cluster", "provider", "none", "sim", "none")
		r.Float("cluster", "boot-seconds", 45)
		r.Str("credentials", "access-key", "")
		r.Enum("storage", "type", "memory", "memory", "disk", "remote")
		r.Str("storage", "path", "")
		r.Str("storage", "address", "")
		r.Int("offload", "retry-max", 0)
	}
	device := func(section string) func(*Reader, *File) {
		return func(r *Reader, f *File) {
			offload(r, f)
			r.Float(section, "weight", 0, Positive)
		}
	}
	host := func(r *Reader, f *File) {
		r.Int("host", "threads", 16)
		r.Float("host", "weight", 0)
	}
	service := func(r *Reader, f *File) {
		r.Int("service", "max-queue", 0)
		blocks, err := f.Named("tenant")
		r.Fail(err)
		for _, b := range blocks {
			r.Float(b.Section, "rate", 0)
		}
	}
	autoscale := func(r *Reader, f *File) { r.Int("autoscale", "min-workers", 0) }

	for name, tc := range map[string]struct {
		text    string
		overlay string
		read    func(*Reader, *File)
		want    []string
	}{
		"clean flat file": {text: "[cluster]\nworkers = 4\n[offload]\nretry-max = 1\n", read: offload},
		"misspelt flat key": {text: "[offload]\nretry-maxx = 1\n", read: offload,
			want: []string{"offload.retry-maxx"}},
		"key of the wrong section": {text: "[cluster]\nretry-max = 1\n", read: offload,
			want: []string{"cluster.retry-max"}},
		"several, sorted": {text: "[storage]\ntyp = disk\n[cluster]\nwokers = 4\n", read: offload,
			want: []string{"cluster.wokers", "storage.typ"}},
		"conditional keys are declared": {
			text: "[cluster]\nprovider = none\nboot-seconds = 45\n[credentials]\naccess-key = AK\n[storage]\ntype = memory\npath = /x\naddress = h:1\n",
			read: offload},
		"another program's sections are not this reader's business": {
			text: "[cluster]\nworkers = 4\n[service]\nmax-queu = 1\n[autoscale]\nbogus = 1\n", read: offload},
		"device block: misspelt overlay key": {text: "[device \"eu\"]\ncluster.wokers = 4\n",
			overlay: `device "eu"`, read: device(`device "eu"`), want: []string{`device "eu".cluster.wokers`}},
		"device block: key without its section prefix": {text: "[device \"eu\"]\nworkers = 4\n",
			overlay: `device "eu"`, read: device(`device "eu"`), want: []string{`device "eu".workers`}},
		"device block: flat sections are still checked": {text: "[cluster]\nwokers = 4\n[device \"eu\"]\ncluster.workers = 4\nweight = 1\n",
			overlay: `device "eu"`, read: device(`device "eu"`), want: []string{"cluster.wokers"}},
		"device block: empty block is read": {text: "[device \"eu\"]\n", overlay: `device "eu"`, read: device(`device "eu"`)},
		"host":                              {text: "[host]\nthreads = 2\nwieght = 4\n", read: host, want: []string{"host.wieght"}},
		"service":                           {text: "[service]\nmax-queue = 8\nmax-queu = 8\n[cluster]\nwokers = 1\n", read: service, want: []string{"service.max-queu"}},
		"tenant":                            {text: "[tenant \"x\"]\nrate = 1\nrat = 2\n", read: service, want: []string{`tenant "x".rat`}},
		"autoscale":                         {text: "[autoscale]\nmin-workers = 1\nmin-wokers = 1\n", read: autoscale, want: []string{"autoscale.min-wokers"}},
		"empty file":                        {text: "", read: offload},
		"only others":                       {text: "[service]\nmax-queue = 8\n", read: autoscale},
	} {
		f := mustParse(t, tc.text)
		r := f.Reader(tc.overlay)
		tc.read(r, f)
		if err := r.Err(); err != nil {
			t.Errorf("%s: Err = %v", name, err)
		}
		if got := r.Unknown(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Unknown = %q, want %q", name, got, tc.want)
		}
		err := r.Done()
		if (err != nil) != (len(tc.want) > 0) {
			t.Errorf("%s: Done = %v", name, err)
		}
		for _, k := range tc.want {
			if !strings.Contains(err.Error(), k) {
				t.Errorf("%s: Done = %v does not name %s", name, err, k)
			}
		}
	}
}

func TestNamed(t *testing.T) {
	f := mustParse(t, "[device us-east]\n[cluster]\n[device \"eu\"]\n[devices]\n[tenant \"eu\"]\n")
	got, err := f.Named("device")
	if err != nil {
		t.Fatal(err)
	}
	want := []Block{{Name: "eu", Section: `device "eu"`}, {Name: "us-east", Section: "device us-east"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Named = %+v, want %+v", got, want)
	}
	if got, err := (*File)(nil).Named("device"); got != nil || err != nil {
		t.Fatalf("nil file: %v, %v", got, err)
	}
	for name, text := range map[string]string{
		"duplicate header":              "[tenant \"a\"]\nrate = 1\n[tenant \"a\"]\nrate = 2\n",
		"duplicate name across quoting": "[tenant \"a\"]\n[tenant a]\n",
		"empty quoted name":             "[tenant \"\"]\n",
	} {
		if _, err := mustParse(t, text).Named("tenant"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzParse: Parse never panics, and whatever it accepts survives
// WriteTo → Parse with the same sections, keys and values.
func FuzzParse(f *testing.F) {
	example, err := os.ReadFile("../../ompcloud.conf.example")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	f.Add([]byte("[cluster]\nworkers = 8\n[device \"eu\"]\ncluster.workers = 2\nweight = 2.5\n[device us-east]\n"))
	f.Add([]byte("[unterminated\nk = v\n"))
	f.Add([]byte("[]\n[ ]\n]\n[a]b]\n[a\n"))
	f.Add([]byte("[s]\nnokeyvalue\n"))
	f.Add([]byte("[s]\n= v\nk =\nk = = =\n"))
	f.Add([]byte("[s]\nk=#v\nj = a #b\ni =;x\nh = \t# only a comment\n"))
	f.Add([]byte("k = v\n"))
	f.Add([]byte("[s]\r\nk = v\r\n\r\n"))
	f.Add(append([]byte("[s]\nk = "), bytes.Repeat([]byte("x"), 1<<20)...))
	f.Add(append(bytes.Repeat([]byte("["), 1<<20), '\n'))
	f.Fuzz(func(t *testing.T, text []byte) {
		parsed, err := Parse(bytes.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := parsed.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("WriteTo produced text Parse rejects: %v\n%q", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back.sections, parsed.sections) {
			t.Fatalf("round trip changed the file:\n%q\nwas %q\nnow %q", buf.Bytes(), parsed.sections, back.sections)
		}
	})
}

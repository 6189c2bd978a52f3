// Package config parses the OmpCloud runtime configuration file. The paper
// (§III.A) makes the configuration file a first-class mechanism: because a
// cloud device "cannot be detected automatically", the plugin reads at
// runtime a file carrying the login/credential information, the address of
// the Spark driver and the address of the cloud file storage, "to properly
// set up the cloud device and to avoid the need to recompile the binary".
//
// The format is an INI subset: [section] headers, key = value pairs,
// comments starting with '#' or ';', blank lines ignored. Keys are
// case-sensitive and scoped to their section.
//
// File is the parsed text; Reader is the one checked way to turn it into
// settings (typed reads, range checks, unknown-key detection), shared by
// every package that has a section of its own.
package config

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// EnvConfigPath is the environment variable consulted by LoadDefault, the
// analog of pointing libomptarget's cloud plugin at a credentials file.
const EnvConfigPath = "OMPCLOUD_CONF"

// File is a parsed configuration file.
type File struct {
	sections map[string]map[string]string
	dups     map[string]bool
	path     string
}

// New returns an empty configuration (useful as a base for Set).
func New() *File {
	return &File{
		sections: make(map[string]map[string]string),
		dups:     make(map[string]bool),
	}
}

// Parse reads a configuration from r.
func Parse(r io.Reader) (*File, error) {
	f := New()
	scanner := bufio.NewScanner(r)
	section := ""
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || line[0] == '#' || line[0] == ';' {
			continue
		}
		if line[0] == '[' {
			if line[len(line)-1] != ']' || len(line) < 3 {
				return nil, fmt.Errorf("config: line %d: malformed section %q", lineNo, line)
			}
			section = strings.TrimSpace(line[1 : len(line)-1])
			if section == "" {
				return nil, fmt.Errorf("config: line %d: empty section name", lineNo)
			}
			if _, ok := f.sections[section]; !ok {
				f.sections[section] = make(map[string]string)
			} else {
				// Re-opening a section merges keys (last value wins), the
				// historical behaviour; the duplicate is recorded so layers
				// for which a repeated header is a likely mistake — two
				// [device "a"] blocks configuring different clusters — can
				// reject it instead of silently running on the merge.
				f.dups[section] = true
			}
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return nil, fmt.Errorf("config: line %d: expected key = value, got %q", lineNo, line)
		}
		key := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(stripInlineComment(line[eq+1:]))
		if key == "" {
			return nil, fmt.Errorf("config: line %d: empty key", lineNo)
		}
		if section == "" {
			return nil, fmt.Errorf("config: line %d: key %q outside any section", lineNo, key)
		}
		f.sections[section][key] = val
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return f, nil
}

// stripInlineComment removes a trailing " # ..." or " ; ..." comment from a
// value. The comment marker must follow whitespace, so values containing a
// bare '#' (e.g. secrets) survive.
func stripInlineComment(v string) string {
	for i := 1; i < len(v); i++ {
		if (v[i] == '#' || v[i] == ';') && (v[i-1] == ' ' || v[i-1] == '\t') {
			return v[:i]
		}
	}
	return v
}

// Load reads a configuration file from disk.
func Load(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer fh.Close()
	f, err := Parse(fh)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	f.path = path
	return f, nil
}

// LoadDefault loads the file named by $OMPCLOUD_CONF, or returns (nil, nil)
// when the variable is unset — the caller then falls back to built-in
// defaults, mirroring the paper's "if the cloud is not available the
// computation is performed locally" behaviour.
func LoadDefault() (*File, error) {
	path := os.Getenv(EnvConfigPath)
	if path == "" {
		return nil, nil
	}
	return Load(path)
}

// Path reports where the file was loaded from ("" for Parse/New).
func (f *File) Path() string { return f.path }

// Set writes a value, creating the section if needed.
func (f *File) Set(section, key, value string) {
	if f.sections[section] == nil {
		f.sections[section] = make(map[string]string)
	}
	f.sections[section][key] = value
}

// Has reports whether section/key exists.
func (f *File) Has(section, key string) bool {
	_, ok := f.sections[section][key]
	return ok
}

// HasSection reports whether the section exists at all, with any keys.
// Feature sections ([autoscale], [fault], ...) use presence as the on
// switch, so "is the block there" is a distinct question from Has.
func (f *File) HasSection(section string) bool {
	_, ok := f.sections[section]
	return ok
}

// Duplicated reports whether the section header appeared more than once in
// the parsed input. Sections created or extended via Set never count.
func (f *File) Duplicated(section string) bool { return f.dups[section] }

// Sections lists the section names, sorted.
func (f *File) Sections() []string {
	out := make([]string, 0, len(f.sections))
	for s := range f.sections {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Keys lists the keys of a section, sorted.
func (f *File) Keys(section string) []string {
	out := make([]string, 0, len(f.sections[section]))
	for k := range f.sections[section] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Str returns section/key or def when absent.
func (f *File) Str(section, key, def string) string {
	if v, ok := f.sections[section][key]; ok {
		return v
	}
	return def
}

// Int returns section/key parsed as an int, or def when absent.
// A present-but-malformed value is an error: silently ignoring a typo in a
// credentials file is how offloading jobs end up on the wrong cluster.
func (f *File) Int(section, key string, def int) (int, error) {
	v, ok := f.sections[section][key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("config: %s.%s: %q is not an integer", section, key, v)
	}
	return n, nil
}

// Float returns section/key parsed as a float64, or def when absent.
func (f *File) Float(section, key string, def float64) (float64, error) {
	v, ok := f.sections[section][key]
	if !ok {
		return def, nil
	}
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("config: %s.%s: %q is not a number", section, key, v)
	}
	return x, nil
}

// Bool returns section/key parsed as a boolean, or def when absent.
func (f *File) Bool(section, key string, def bool) (bool, error) {
	v, ok := f.sections[section][key]
	if !ok {
		return def, nil
	}
	switch strings.ToLower(v) {
	case "true", "yes", "on", "1":
		return true, nil
	case "false", "no", "off", "0":
		return false, nil
	}
	return false, fmt.Errorf("config: %s.%s: %q is not a boolean", section, key, v)
}

// WriteTo serializes the file in a stable order; round-trips with Parse.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, s := range f.Sections() {
		n, err := fmt.Fprintf(w, "[%s]\n", s)
		total += int64(n)
		if err != nil {
			return total, err
		}
		for _, k := range f.Keys(s) {
			// A value that begins with a comment marker must touch the
			// '=': after whitespace Parse would strip it as a comment.
			sep, v := " = ", f.sections[s][k]
			if v != "" && (v[0] == '#' || v[0] == ';') {
				sep = " ="
			}
			n, err := fmt.Fprintf(w, "%s%s%s\n", k, sep, v)
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
		n, err = fmt.Fprintln(w)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Block is one [kind "name"] section: the device-table idiom, where a
// section kind repeats under different names.
type Block struct {
	Name    string // unquoted
	Section string // the raw section name, e.g. `device "eu"`
}

// Named lists the [kind "name"] blocks of the file in section order. The
// name may be quoted git-config style ([device "eu"]) or bare ([device
// eu]). An empty name, a header that appears twice and two spellings of one
// name are errors: each would silently merge or shadow a block. Which
// characters a name may hold is the caller's rule.
func (f *File) Named(kind string) ([]Block, error) {
	if f == nil {
		return nil, nil
	}
	var blocks []Block
	first := make(map[string]string) // name -> section that declared it
	for _, sec := range f.Sections() {
		rest, ok := strings.CutPrefix(sec, kind+" ")
		if !ok {
			continue
		}
		name := strings.TrimSpace(rest)
		if len(name) >= 2 && name[0] == '"' && name[len(name)-1] == '"' {
			name = name[1 : len(name)-1]
		}
		prev, dup := first[name]
		switch {
		case name == "":
			return nil, fmt.Errorf("config: [%s] has an empty name", sec)
		case f.Duplicated(sec):
			return nil, fmt.Errorf("config: [%s] is declared twice", sec)
		case dup:
			return nil, fmt.Errorf("config: %s %q is declared by both [%s] and [%s]", kind, name, prev, sec)
		}
		first[name] = sec
		blocks = append(blocks, Block{Name: name, Section: sec})
	}
	return blocks, nil
}

// A Check is a range rule for a numeric key. It applies only to a value the
// file holds — present means valid: an absent key keeps its default
// unchecked, so a default may be a sentinel (0 = "use the built-in") that
// the same key written out would be rejected for.
type Check struct {
	want string
	ok   func(x float64) bool
}

// Must builds a Check; want completes the message "<key> must be <want>".
func Must(want string, ok func(x float64) bool) Check { return Check{want: want, ok: ok} }

// The stock checks (literals, not Must calls: the package needs no init).
var (
	Positive    = Check{want: "positive", ok: func(x float64) bool { return x > 0 }}
	NonNegative = Check{want: ">= 0", ok: func(x float64) bool { return x >= 0 }}
)

// Reader reads settings out of a File and keeps the books that make a
// configuration mistake an error instead of a silent default: the first
// malformed or out-of-range value (Err) and every key that is present but
// that no read asked for (Unknown). Reads never stop early — after an error
// they keep returning values and recording keys — so a parser is a flat
// list of reads in file order with one Done at the end, and constructs
// nothing until Done is clean.
//
// With an overlay block, a read of section s, key k first consults the
// block's "s.k" ([device "eu"] cluster.workers), then [s] k, then the
// default.
type Reader struct {
	f       *File
	overlay string
	// asked holds every key a read named, by section; the value is false
	// for the overlay spelling of a flat key, which Asked leaves out.
	asked map[string]map[string]bool
	err   error
}

// Reader returns a reader over f; overlay is the raw section name of the
// block to overlay, or "". A nil file reads as an empty one.
func (f *File) Reader(overlay string) *Reader {
	if f == nil {
		f = New()
	}
	r := &Reader{f: f, overlay: overlay, asked: make(map[string]map[string]bool)}
	if overlay != "" {
		r.asked[overlay] = make(map[string]bool)
	}
	return r
}

func (r *Reader) ask(section, key string, direct bool) {
	if r.asked[section] == nil {
		r.asked[section] = make(map[string]bool)
	}
	r.asked[section][key] = r.asked[section][key] || direct
}

// locate records that section/key was asked for and reports where its
// value lives.
func (r *Reader) locate(section, key string) (sec, k string, ok bool) {
	r.ask(section, key, true)
	if r.overlay != "" && section != r.overlay {
		over := section + "." + key
		r.ask(r.overlay, over, false)
		if r.f.Has(r.overlay, over) {
			return r.overlay, over, true
		}
	}
	return section, key, r.f.Has(section, key)
}

// Fail records err as the reader's error unless an earlier read already
// failed: a parser's own checks (a codec name, a path that must accompany a
// storage type) keep their place in the order keys are read.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// settle records a typed read's outcome: the parse error, or the first
// check the value fails.
func (r *Reader) settle(sec, key string, x float64, err error, checks []Check) {
	for _, c := range checks {
		if err == nil && !c.ok(x) {
			err = fmt.Errorf("config: %s.%s must be %s, got %s", sec, key, c.want, r.f.sections[sec][key])
		}
	}
	r.Fail(err)
}

// Has reports whether the key is present (in the overlay block or flat).
func (r *Reader) Has(section, key string) bool {
	_, _, ok := r.locate(section, key)
	return ok
}

// Str returns the raw value, or def when absent.
func (r *Reader) Str(section, key, def string) string {
	if sec, k, ok := r.locate(section, key); ok {
		return r.f.sections[sec][k]
	}
	return def
}

// Int returns an integer key, or def when absent.
func (r *Reader) Int(section, key string, def int, checks ...Check) int {
	sec, k, ok := r.locate(section, key)
	if !ok {
		return def
	}
	n, err := r.f.Int(sec, k, def)
	r.settle(sec, k, float64(n), err, checks)
	return n
}

// Float returns a numeric key, or def when absent.
func (r *Reader) Float(section, key string, def float64, checks ...Check) float64 {
	sec, k, ok := r.locate(section, key)
	if !ok {
		return def
	}
	x, err := r.f.Float(sec, k, def)
	r.settle(sec, k, x, err, checks)
	return x
}

// Millis returns a key holding (possibly fractional) milliseconds, or def
// when absent; checks see the number of milliseconds.
func (r *Reader) Millis(section, key string, def time.Duration, checks ...Check) time.Duration {
	if !r.Has(section, key) {
		return def
	}
	return time.Duration(r.Float(section, key, 0, checks...) * float64(time.Millisecond))
}

// Bool returns a boolean key, or def when absent.
func (r *Reader) Bool(section, key string, def bool) bool {
	sec, k, ok := r.locate(section, key)
	if !ok {
		return def
	}
	b, err := r.f.Bool(sec, k, def)
	r.Fail(err)
	return b
}

// Enum returns a key that must be one of allowed, or def when absent.
func (r *Reader) Enum(section, key, def string, allowed ...string) string {
	sec, k, ok := r.locate(section, key)
	if !ok {
		return def
	}
	v := r.f.sections[sec][k]
	for _, a := range allowed {
		if v == a {
			return v
		}
	}
	r.Fail(fmt.Errorf("config: %s.%s: unknown value %q (want %s)", sec, k, v, strings.Join(allowed, "|")))
	return def
}

// List returns the non-empty, trimmed items of a comma-separated key.
func (r *Reader) List(section, key string) []string {
	var items []string
	for _, s := range strings.Split(r.Str(section, key, ""), ",") {
		if s = strings.TrimSpace(s); s != "" {
			items = append(items, s)
		}
	}
	return items
}

// Err reports the first malformed or out-of-range value read so far.
func (r *Reader) Err() error { return r.err }

// Asked lists every key a read named, as "section.key", sorted (a flat key
// once, not again in its overlay spelling).
func (r *Reader) Asked() []string {
	var out []string
	for sec, keys := range r.asked {
		for k, direct := range keys {
			if direct {
				out = append(out, sec+"."+k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Unknown lists, as "section.key", every key that is present in a section
// this reader read from (or in its overlay block) and that no read named: a
// misspelt knob, or one missing its "section." prefix inside a device
// block. Sections the reader never touched belong to another program and
// are not its business.
func (r *Reader) Unknown() []string {
	var out []string
	for sec, keys := range r.asked {
		for k := range r.f.sections[sec] {
			if _, named := keys[k]; !named {
				out = append(out, sec+"."+k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Done is the parser's last call: Err, else an error naming the Unknown
// keys, else nil.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if u := r.Unknown(); len(u) > 0 {
		return fmt.Errorf("config: unknown key %s (nothing reads it; ompcloud.conf.example lists every key)", strings.Join(u, ", "))
	}
	return nil
}

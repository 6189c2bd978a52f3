package storage

import (
	"fmt"
	"io"
	"strings"
)

// PrefixStore scopes every key of an inner Store under a fixed prefix. It is
// the tenant-isolation primitive of the multi-tenant service plane: each
// tenant's jobs see "their" store rooted at tenants/<tenant>/, so two
// tenants sharing one physical store can never read, overwrite, or list each
// other's objects — session journals, chunk caches, and dedup indices
// included, because those all address the store through the same interface.
type PrefixStore struct {
	inner  Store
	prefix string
}

// NewPrefix wraps inner so every key is transparently rooted at prefix.
// A trailing slash is appended when missing; the prefix itself must be a
// valid key fragment (no "..", no leading slash, no control bytes).
func NewPrefix(inner Store, prefix string) (*PrefixStore, error) {
	if !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	// Validate the prefix by the same rules as keys (the trailing slash is
	// legal inside keys, so probing with a dummy leaf suffices).
	if err := validKey(prefix + "x"); err != nil {
		return nil, fmt.Errorf("storage: invalid prefix %q", prefix)
	}
	return &PrefixStore{inner: inner, prefix: prefix}, nil
}

// Prefix reports the namespace root, with its trailing slash.
func (p *PrefixStore) Prefix() string { return p.prefix }

// Put implements Store.
func (p *PrefixStore) Put(key string, data []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	return p.inner.Put(p.prefix+key, data)
}

// Get implements Store.
func (p *PrefixStore) Get(key string) ([]byte, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	return p.inner.Get(p.prefix + key)
}

// GetAppend implements AppendGetter, preserving the inner store's
// zero-allocation read path when it has one.
func (p *PrefixStore) GetAppend(key string, dst []byte) ([]byte, error) {
	if err := validKey(key); err != nil {
		return dst, err
	}
	return GetAppend(p.inner, p.prefix+key, dst)
}

// PutParts implements PartsPutter, preserving the inner store's copy-free
// two-part write when it has one.
func (p *PrefixStore) PutParts(key string, head, body []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	return PutParts(p.inner, p.prefix+key, head, body)
}

// GetStream implements StreamGetter, preserving the inner store's stream
// when it has one.
func (p *PrefixStore) GetStream(key string, fn func(size int64, r io.Reader) error) (int64, error) {
	if err := validKey(key); err != nil {
		return 0, err
	}
	return GetStream(p.inner, p.prefix+key, fn)
}

// Delete implements Store.
func (p *PrefixStore) Delete(key string) error {
	if err := validKey(key); err != nil {
		return err
	}
	return p.inner.Delete(p.prefix + key)
}

// List implements Store: keys come back with the namespace root stripped,
// so callers see the same names they stored.
func (p *PrefixStore) List(prefix string) ([]string, error) {
	keys, err := p.inner.List(p.prefix + prefix)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, strings.TrimPrefix(k, p.prefix))
	}
	return out, nil
}

// Stat implements Store.
func (p *PrefixStore) Stat(key string) (int64, error) {
	if err := validKey(key); err != nil {
		return 0, err
	}
	return p.inner.Stat(p.prefix + key)
}

var (
	_ Store        = (*PrefixStore)(nil)
	_ AppendGetter = (*PrefixStore)(nil)
	_ PartsPutter  = (*PrefixStore)(nil)
	_ StreamGetter = (*PrefixStore)(nil)
)

// Package cache provides the content-addressed solution cache under the
// serving layer and the root WithCache solver option: canonical-instance
// hashing, a sharded LRU, a single-flight group that folds identical
// in-flight computations into one, and Store, the protocol over the two
// that every caller (both recurrence classes, root and server) shares.
//
// The package is deliberately generic — it stores any value type and
// knows nothing about instances or solutions — so it cannot create an
// import cycle with the root package. Correctness rests on the keying
// discipline of its callers: a Key must be derived (via Hasher) from the
// instance's canonical encoding plus every configuration field that can
// change the cached value.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// Key is a 256-bit content hash. Collision probability is negligible at
// any realistic cache size, so lookups compare keys only, never values.
type Key [sha256.Size]byte

// String returns the key as lowercase hex, for logs and metrics labels.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// shard maps the key onto one of n LRU shards. The hash bytes are
// uniformly distributed, so the first word is as good as any.
func (k Key) shard(n int) int {
	return int(binary.BigEndian.Uint64(k[:8]) % uint64(n))
}

// Hasher accumulates labeled fields into a Key. Every field write is
// length-prefixed and label-tagged, so distinct field sequences cannot
// collide by concatenation ("ab"+"c" vs "a"+"bc").
type Hasher struct {
	h hash.Hash
}

// NewHasher returns an empty Hasher.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

func (h *Hasher) writeLen(n int) {
	var buf [binary.MaxVarintLen64]byte
	h.h.Write(buf[:binary.PutUvarint(buf[:], uint64(n))])
}

// Bytes adds a labeled byte field.
func (h *Hasher) Bytes(label string, b []byte) *Hasher {
	h.writeLen(len(label))
	h.h.Write([]byte(label))
	h.writeLen(len(b))
	h.h.Write(b)
	return h
}

// String adds a labeled string field.
func (h *Hasher) String(label, s string) *Hasher { return h.Bytes(label, []byte(s)) }

// Int64 adds a labeled integer field.
func (h *Hasher) Int64(label string, v int64) *Hasher {
	var buf [binary.MaxVarintLen64]byte
	return h.Bytes(label, buf[:binary.PutVarint(buf[:], v)])
}

// Bool adds a labeled boolean field.
func (h *Hasher) Bool(label string, v bool) *Hasher {
	b := int64(0)
	if v {
		b = 1
	}
	return h.Int64(label, b)
}

// Sum finalises the accumulated fields into a Key. The Hasher must not
// be used again afterwards.
func (h *Hasher) Sum() Key {
	var k Key
	h.h.Sum(k[:0])
	return k
}

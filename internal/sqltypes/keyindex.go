package sqltypes

import "math/bits"

// KeyIndex gives each distinct key a dense int32 id, in first-seen order.
// It is the one key-equality structure of the engine: the hash join's build
// side, the group table, DISTINCT, column indexes and column statistics all
// number their keys through it. A key is the tuple of values at one
// position p of the key vectors (vecs[k][p] is key column k), and two keys
// are equal when their EncodeKey encodings are. While every key is a single
// integer value (an int, or a float equal to one) the ids come from an
// integer index and no key is encoded; the first key of another kind moves
// the index to encoded keys for good. 1 and 1.0 share an id either way. The
// zero value is an empty index. Get writes nothing, so any number of
// readers may share an index no writer is adding to.
type KeyIndex struct {
	ints intIndex         // ids of integer keys, until the first other key
	enc  map[string]int32 // ids by key encoding; non-nil once in use
}

// Len returns the number of distinct keys, which is the next id.
func (x *KeyIndex) Len() int {
	if x.enc != nil {
		return len(x.enc)
	}
	return x.ints.n
}

// Add returns the id of the key at position p, giving it the next id when
// it is new.
func (x *KeyIndex) Add(vecs [][]Value, p int) (id int32, added bool) {
	if x.enc == nil {
		if len(vecs) == 1 {
			if ik, ok := intKeyOf(&vecs[0][p]); ok {
				return x.ints.find(ik, int32(x.ints.n))
			}
		}
		x.encodeInts()
	}
	var buf [64]byte
	kb := appendKey(buf[:0], vecs, p)
	if id, ok := x.enc[string(kb)]; ok {
		return id, false
	}
	id = int32(len(x.enc))
	x.enc[string(kb)] = id
	return id, true
}

// Get returns the id of the key at position p, or false when the index has
// not seen it. It encodes into a stack buffer and writes nothing.
func (x *KeyIndex) Get(vecs [][]Value, p int) (int32, bool) {
	if x.enc == nil {
		if len(vecs) != 1 {
			return 0, false // no key added yet
		}
		ik, ok := intKeyOf(&vecs[0][p])
		if !ok {
			return 0, false // every key is an integer, so no other value equals one
		}
		return x.ints.get(ik)
	}
	var buf [64]byte
	id, ok := x.enc[string(appendKey(buf[:0], vecs, p))]
	return id, ok
}

// encodeInts moves the index from integer to encoded keys. An integer key's
// encoding is that of its int, which a float equal to it shares.
func (x *KeyIndex) encodeInts() {
	x.enc = make(map[string]int32, x.ints.n)
	var buf [16]byte
	for _, s := range x.ints.slots {
		if s.id != 0 {
			x.enc[string(EncodeKey(buf[:0], NewInt(s.key)))] = s.id - 1
		}
	}
	x.ints = intIndex{}
}

// KeyPart maps the key at position p of vecs to one of parts partitions.
// An integer key hashes its integer, which puts it in the same partition
// whether that partition's KeyIndex holds integer or encoded keys; any
// other key hashes its encoding (FNV-1a).
func KeyPart(vecs [][]Value, p, parts int) int {
	if len(vecs) == 1 {
		if ik, ok := intKeyOf(&vecs[0][p]); ok {
			return int((mix(ik) >> 33) % uint64(parts))
		}
	}
	var buf [64]byte
	h := uint64(14695981039346656037)
	for _, c := range appendKey(buf[:0], vecs, p) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return int(h % uint64(parts))
}

// appendKey appends the encoding of the key at position p to dst.
func appendKey(dst []byte, vecs [][]Value, p int) []byte {
	for _, vec := range vecs {
		dst = EncodeKey(dst, vec[p])
	}
	return dst
}

// intKeyOf returns the integer a key value equals: an int, or a float with
// an integral value in int64's range, whose key encoding is the same as
// that int's. It takes a pointer because a copy of the Value costs more
// than the rest.
func intKeyOf(v *Value) (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		if f := v.f; f >= -(1<<63) && f < 1<<63 && f == float64(int64(f)) {
			return int64(f), true
		}
	}
	return 0, false
}

// mix is a multiplicative hash of an integer key; its top bits spread
// sequential keys.
func mix(key int64) uint64 { return uint64(key) * 0x9E3779B97F4A7C15 }

// intIndex maps integer keys to ids: open addressing with linear probing
// over a power-of-two slot array that doubles at 3/4 full. It allocates
// once per doubling, where a Go map allocates for each of its internal
// tables as they grow (81 times for 9 000 int64 keys on go1.24), which
// would cost about one allocation per hundred keys.
type intIndex struct {
	slots []intSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

type intSlot struct {
	key int64
	id  int32 // id + 1; 0 marks an empty slot
}

// find returns key's id, inserting key with id next when absent.
func (x *intIndex) find(key int64, next int32) (id int32, added bool) {
	if 4*(x.n+1) > 3*len(x.slots) {
		x.grow()
	}
	mask := len(x.slots) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.id == 0 {
			s.key, s.id = key, next+1
			x.n++
			return next, true
		}
		if s.key == key {
			return s.id - 1, false
		}
	}
}

// get returns key's id, or false when key is absent.
func (x *intIndex) get(key int64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := len(x.slots) - 1
	for i := x.home(key); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.id == 0 {
			return 0, false
		}
		if s.key == key {
			return s.id - 1, true
		}
	}
}

// home is key's first probe slot.
func (x *intIndex) home(key int64) int { return int(mix(key) >> x.shift) }

func (x *intIndex) grow() {
	old := x.slots
	size := max(8, 2*len(old))
	x.slots = make([]intSlot, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		i := x.home(s.key)
		for x.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = s
	}
}

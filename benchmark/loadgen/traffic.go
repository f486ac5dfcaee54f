// Package loadgen is the benchmark's load: seeded request streams, a
// closed-loop memcached-binary client, a closed-loop HTTP/1.1 client and
// the origins both talk to. It imports only the standard library — never a
// flick/... package — so a change to the program under test cannot change
// the load it is measured with (deps_test.go pins this).
package loadgen

import (
	"bytes"
	"math/rand"
	"strconv"
)

// Proto selects the wire protocol of a traffic mix.
type Proto int

const (
	// Memcached is the memcached binary protocol (GET and SET).
	Memcached Proto = iota
	// HTTP is HTTP/1.1 GET with Content-Length responses.
	HTTP
)

// Traffic describes one workload's request mix. Everything a client sends
// is a function of a Traffic, a seed and a connection index.
type Traffic struct {
	Proto Proto
	// Keys is the key-space size; key k is "key-%06d" (memcached) or
	// "/obj/%d" (HTTP).
	Keys int
	// ValueSize is the value (memcached) or body (HTTP) size in bytes.
	ValueSize int
	// Window is the number of requests each connection keeps outstanding.
	Window int
	// SetPct is the share of SETs per 100 requests. A connection SETs only
	// keys of its own partition (k mod conns == conn), so the version a
	// later GET may legally return is known to the sender.
	SetPct int
	// HotPct is the share of requests per 100 aimed at key 0.
	HotPct int
	// ZipfS is the skew of the remaining requests (0: uniform).
	ZipfS float64
}

// Op is one generated request: which key, and whether it is a SET.
type Op struct {
	Key uint32
	Set bool
}

// Ops generates the n-request stream of connection conn (of conns) from
// seed. The same arguments always give the same stream.
func (t Traffic) Ops(seed int64, conn, conns, n int) []Op {
	r := rand.New(rand.NewSource(seed*1000003 + int64(conn)))
	lo := 0
	if t.HotPct > 0 {
		lo = 1 // key 0 is the hot key; the skewed rest starts at key 1
	}
	var z *rand.Zipf
	if t.ZipfS > 0 {
		z = rand.NewZipf(r, t.ZipfS, 1, uint64(t.Keys-lo-1))
	}
	ops := make([]Op, n)
	for i := range ops {
		var k int
		switch {
		case t.HotPct > 0 && r.Intn(100) < t.HotPct:
			k = 0
		case z != nil:
			k = lo + int(z.Uint64())
		default:
			k = lo + r.Intn(t.Keys-lo)
		}
		set := t.SetPct > 0 && r.Intn(100) < t.SetPct
		if set && k%conns != conn {
			k += conn - k%conns
			if k >= t.Keys {
				k -= conns
			}
		}
		ops[i] = Op{Key: uint32(k), Set: set}
	}
	return ops
}

// AppendKey appends key k's wire name to dst.
func (t Traffic) AppendKey(dst []byte, k uint32) []byte {
	if t.Proto == HTTP {
		return strconv.AppendUint(append(dst, "/obj/"...), uint64(k), 10)
	}
	dst = append(dst, "key-"...)
	for d := uint32(100000); d > 0; d /= 10 {
		dst = append(dst, byte('0'+k/d%10))
	}
	return dst
}

// KeyTable renders every key name once, so the send path copies bytes
// instead of formatting numbers.
func (t Traffic) KeyTable() [][]byte {
	flat := make([]byte, 0, t.Keys*12)
	keys := make([][]byte, t.Keys)
	for k := range keys {
		start := len(flat)
		flat = t.AppendKey(flat, uint32(k))
		keys[k] = flat[start:len(flat):len(flat)]
	}
	return keys
}

// Values are self-describing: "<key>#<version>#" followed by filler taken
// from a fixed pseudo-random pattern at a key-dependent offset. A reader
// that knows only the key can tell a wrong key from a wrong version from a
// corrupt byte. The pattern is longer than the largest value plus the
// largest offset, so every filler is one contiguous slice of it.
const (
	maxValue   = 1 << 16
	patOffsets = 1024
)

var pattern = func() []byte {
	p := make([]byte, maxValue+patOffsets)
	x := uint32(2463534242)
	for i := range p {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p[i] = byte(x >> 11)
	}
	return p
}()

func patOff(key []byte) int {
	h := uint32(2166136261)
	for _, c := range key {
		h = (h ^ uint32(c)) * 16777619
	}
	return int(h % patOffsets)
}

// AppendValue appends key's size-byte value at the given version.
func AppendValue(dst, key []byte, version uint32, size int) []byte {
	start := len(dst)
	dst = append(append(dst, key...), '#')
	dst = append(strconv.AppendUint(dst, uint64(version), 10), '#')
	off := patOff(key)
	return append(dst, pattern[off:off+size-(len(dst)-start)]...)
}

// FailKind classifies one failed request.
type FailKind int

// The failure classes every response is checked for.
const (
	FailNone FailKind = iota
	FailTransport
	FailTimeout
	FailUnknownOpaque
	FailWrongStatus
	FailWrongKey
	FailWrongValue
	FailWrongLength
	NumFailKinds
)

var failNames = [NumFailKinds]string{"none", "transport", "timeout", "unknown_opaque",
	"wrong_status", "wrong_key", "wrong_value", "wrong_length"}

func (k FailKind) String() string { return failNames[k] }

// CheckValue verifies val against what AppendValue(key, v, size) produces
// for some version v, and returns that version.
func CheckValue(val, key []byte, size int) (uint32, FailKind) {
	if len(val) != size {
		return 0, FailWrongLength
	}
	if !bytes.HasPrefix(val, key) || val[len(key)] != '#' {
		return 0, FailWrongKey
	}
	i := len(key) + 1
	var v uint64
	for ; i < len(val) && val[i] != '#'; i++ {
		if val[i] < '0' || val[i] > '9' || v > 1<<32 {
			return 0, FailWrongValue
		}
		v = v*10 + uint64(val[i]-'0')
	}
	if i == len(key)+1 || i == len(val) || v > 1<<32-1 {
		return 0, FailWrongValue
	}
	off := patOff(key)
	if !bytes.Equal(val[i+1:], pattern[off:off+size-i-1]) {
		return 0, FailWrongValue
	}
	return uint32(v), FailNone
}

// Result accumulates what one connection observed over one Run.
type Result struct {
	// Attempted counts requests sent; Verified counts responses that
	// passed every check; InWindow counts the verified responses that
	// completed before the Run's deadline (the throughput numerator).
	Attempted, Verified, InWindow uint64
	// Fail counts failed requests by kind.
	Fail [NumFailKinds]uint64
	// OwnReads counts GETs of keys only this connection writes;
	// StaleReads counts those that returned a version older than the last
	// SET this connection had seen acknowledged when it sent the GET.
	OwnReads, StaleReads uint64
	// Lat holds the send→full-response time of every verified response in
	// nanoseconds, appended up to the capacity the caller preallocated;
	// Dropped counts samples that did not fit.
	Lat     []uint32
	Dropped uint64
}

// Failed sums the failure counts.
func (r *Result) Failed() uint64 {
	var n uint64
	for _, c := range r.Fail {
		n += c
	}
	return n
}

func (r *Result) ok(latNs int64, inWindow bool) {
	r.Verified++
	if inWindow {
		r.InWindow++
	}
	if len(r.Lat) < cap(r.Lat) {
		r.Lat = append(r.Lat, uint32(min(latNs, 1<<32-1)))
	} else {
		r.Dropped++
	}
}

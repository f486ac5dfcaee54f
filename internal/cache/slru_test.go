package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"flick/internal/proto/memcache"
	"flick/internal/value"
)

// oentry is the oracle's picture of one entry: identity, size and the
// lazy-promotion hit bit.
type oentry struct {
	key  string
	size int64
	hit  bool
	seg  int
}

// slruOracle is an executable-specification model of the cache's
// segmented-LRU policy: plain slices for the two segment queues, a map for
// membership, and a verbatim transcription of the documented rules —
// install to probation's tail (an upstream 304 re-installs the key's entry
// at its old size), promote hit probation entries at scan time, demote
// protected overflow past 80% of the budget, evict unhit probation head. The real cache must agree with it on membership, resident bytes
// and protected bytes after every operation.
type slruOracle struct {
	index    map[string]*oentry
	prob     []*oentry
	prot     []*oentry
	resident int64
	protB    int64
	maxBytes int64
}

func newOracle(maxBytes int64) *slruOracle {
	return &slruOracle{index: map[string]*oentry{}, maxBytes: maxBytes}
}

func (o *slruOracle) get(key string) bool {
	e := o.index[key]
	if e == nil {
		return false
	}
	e.hit = true
	return true
}

func (o *slruOracle) install(key string, size int64) {
	if old := o.index[key]; old != nil {
		o.remove(old)
	}
	e := &oentry{key: key, size: size, seg: segProbation}
	o.index[key] = e
	o.prob = append(o.prob, e)
	o.resident += size
	o.evict(e)
}

// reval304 is an upstream 304 for key: a resident entry is re-installed
// under a new header — unhit, at probation's tail, bytes unchanged.
func (o *slruOracle) reval304(key string) {
	if e := o.index[key]; e != nil {
		o.install(key, e.size)
	}
}

func (o *slruOracle) evict(keep *oentry) {
	protCap := o.maxBytes - o.maxBytes/5
	for o.resident > o.maxBytes {
		var v *oentry
		if len(o.prob) > 0 {
			v = o.prob[0]
		} else if len(o.prot) > 0 {
			v = o.prot[0]
		}
		if v == nil || v == keep {
			return
		}
		if v.seg == segProbation && v.hit {
			v.hit = false
			o.prob = o.prob[1:]
			v.seg = segProtected
			o.prot = append(o.prot, v)
			o.protB += v.size
			for o.protB > protCap {
				d := o.prot[0]
				if d == keep {
					break
				}
				d.hit = false
				o.prot = o.prot[1:]
				d.seg = segProbation
				o.protB -= d.size
				o.prob = append(o.prob, d)
			}
			continue
		}
		o.remove(v)
	}
}

func (o *slruOracle) remove(e *oentry) {
	delete(o.index, e.key)
	lists := [2]*[]*oentry{&o.prob, &o.prot}
	for _, l := range lists {
		for i, x := range *l {
			if x == e {
				*l = append(append([]*oentry{}, (*l)[:i]...), (*l)[i+1:]...)
				break
			}
		}
	}
	if e.seg == segProtected {
		o.protB -= e.size
	}
	o.resident -= e.size
}

// snapshotSLRU captures the real cache's structural state under fmu:
// per-key segment membership plus the byte gauges.
func snapshotSLRU(c *Cache) (membership map[string]int, resident, protB int64) {
	membership = map[string]int{}
	c.fmu.Lock()
	for _, e := range c.shards[0].m {
		membership[e.skey] = int(e.seg)
	}
	resident, protB = c.resident, c.protBytes
	c.fmu.Unlock()
	return
}

// reval304 resolves a background refresh of skey with an upstream 304. The
// memcached adapter renders no refresh request, so the flight is registered
// by hand instead of being claimed by a stale lookup.
func reval304(c *Cache, skey string) {
	f := &Flight{c: c, skey: skey, base: skey, reval: true, req: value.Null}
	c.fmu.Lock()
	c.flights[skey] = f
	c.fmu.Unlock()
	f.Fill(nil, RespInfo{Match: true, NotModified: true})
}

// TestSegmentedLRUOracle drives the real cache and the oracle through the
// same randomized (but seeded — the policy is deterministic for a given op
// order) lookup/install/revalidate sequence and requires byte-for-byte agreement on
// membership, segment placement, resident bytes and protected bytes after
// every operation. Scan resistance falls out: a one-touch scan can never
// displace an entry the oracle keeps.
func TestSegmentedLRUOracle(t *testing.T) {
	const keys = 24
	unit := int64(len(respRaw(t, memcache.OpGetK, 0, key2(0), "val-00")))
	c := newTestCache(t, Config{Workers: 1, MaxBytes: 8 * unit, TTL: time.Hour})
	o := newOracle(8 * unit)

	skeyOf := func(i int) string {
		return string(appendSKey(nil, memcache.OpGetK, nil, []byte(key2(i))))
	}

	rng := rand.New(rand.NewSource(0xF11C))
	for op := 0; op < 4000; op++ {
		i := rng.Intn(keys)
		switch kind := rng.Intn(10); {
		case kind < 7:
			v, real, _ := c.Get(0, lookupInfo(memcache.OpGetK, key2(i), uint32(i)))
			if real {
				v.Release()
			}
			model := o.get(skeyOf(i))
			if real != model {
				t.Fatalf("op %d: get(%s) real=%v oracle=%v", op, key2(i), real, model)
			}
		case kind < 9:
			fill(t, c, memcache.OpGetK, key2(i), uint32(i), fmt.Sprintf("val-%02d", i))
			o.install(skeyOf(i), unit)
		default:
			reval304(c, skeyOf(i))
			o.reval304(skeyOf(i))
		}

		membership, resident, protB := snapshotSLRU(c)
		if len(membership) != len(o.index) {
			t.Fatalf("op %d: %d entries, oracle %d", op, len(membership), len(o.index))
		}
		for k, e := range o.index {
			seg, ok := membership[k]
			if !ok {
				t.Fatalf("op %d: oracle holds %q, cache does not", op, k)
			}
			if seg != e.seg {
				t.Fatalf("op %d: %q in segment %d, oracle %d", op, k, seg, e.seg)
			}
		}
		if resident != o.resident || protB != o.protB {
			t.Fatalf("op %d: resident/protected = %d/%d, oracle %d/%d",
				op, resident, protB, o.resident, o.protB)
		}
	}
	if ev := cval(c.Counters(), "evictions"); ev == 0 {
		t.Fatal("sequence exercised no evictions — budget too large to test the policy")
	}
	if rv := cval(c.Counters(), "revalidated"); rv == 0 {
		t.Fatal("sequence re-headered no resident entry")
	}
}

func key2(i int) string { return fmt.Sprintf("key-%02d", i) }

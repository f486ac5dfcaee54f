package loadgen

import (
	"reflect"
	"testing"
	"time"
)

var rw = Traffic{Proto: Memcached, Keys: 500, ValueSize: 64, Window: 8, SetPct: 10, ZipfS: 1.01}

func TestOpsAreAFunctionOfTheSeed(t *testing.T) {
	a, b := rw.Ops(7, 0, 2, 5000), rw.Ops(7, 0, 2, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different stream")
	}
	if reflect.DeepEqual(a, rw.Ops(8, 0, 2, 5000)) {
		t.Fatal("different seeds, same stream")
	}
	if reflect.DeepEqual(a, rw.Ops(7, 1, 2, 5000)) {
		t.Fatal("two connections share a stream")
	}
	sets := 0
	for conn := 0; conn < 2; conn++ {
		for _, op := range rw.Ops(7, conn, 2, 5000) {
			if int(op.Key) >= rw.Keys {
				t.Fatalf("key %d outside the key space", op.Key)
			}
			if op.Set {
				sets++
				if int(op.Key)%2 != conn {
					t.Fatalf("connection %d SETs key %d of the other partition", conn, op.Key)
				}
			}
		}
	}
	if sets < 700 || sets > 1300 {
		t.Fatalf("%d SETs in 10000 requests, want about 10%%", sets)
	}
}

func TestCheckValueTellsTheFailuresApart(t *testing.T) {
	key, other := []byte("key-000042"), []byte("key-000043")
	good := AppendValue(nil, key, 17, 64)
	if len(good) != 64 {
		t.Fatalf("value is %d bytes, want 64", len(good))
	}
	if v, fk := CheckValue(good, key, 64); fk != FailNone || v != 17 {
		t.Fatalf("good value: version %d, %v", v, fk)
	}
	cases := []struct {
		name string
		val  []byte
		want FailKind
	}{
		{"short", good[:63], FailWrongLength},
		{"other key", AppendValue(nil, other, 17, 64), FailWrongKey},
		{"flipped filler", append(append([]byte(nil), good[:63]...), good[63]^0xff), FailWrongValue},
		{"no version", append([]byte("key-000042##"), good[12:]...), FailWrongValue},
	}
	for _, c := range cases {
		if _, fk := CheckValue(c.val, key, 64); fk != c.want {
			t.Errorf("%s: %v, want %v", c.name, fk, c.want)
		}
	}
}

// run drives one client against one origin for a short while.
func run(t *testing.T, tr Traffic, corrupt bool) Result {
	t.Helper()
	o, err := StartOrigin(tr, corrupt)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	c, err := Dial(o.Addr(), tr, tr.KeyTable(), tr.Ops(1, 0, 2, 4096), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := Result{Lat: make([]uint32, 0, 1<<16)}
	c.Run(time.Now().Add(50*time.Millisecond), &r)
	if r.Attempted == 0 || r.Attempted != r.Verified+r.Failed() {
		t.Fatalf("attempted %d, verified %d, failed %d", r.Attempted, r.Verified, r.Failed())
	}
	if got := o.Requests(); got != r.Attempted {
		t.Fatalf("origin answered %d requests, client sent %d", got, r.Attempted)
	}
	return r
}

func TestClientsVerifyEveryResponse(t *testing.T) {
	for name, tr := range map[string]Traffic{
		"memcached rw": rw,
		"http":         {Proto: HTTP, Keys: 100, ValueSize: 137, Window: 1},
		"http large":   {Proto: HTTP, Keys: 100, ValueSize: 64 << 10, Window: 1},
	} {
		if r := run(t, tr, false); r.Failed() != 0 || len(r.Lat) != int(r.Verified) {
			t.Errorf("%s: %d failures %v, %d samples for %d verified", name, r.Failed(), r.Fail, len(r.Lat), r.Verified)
		}
		// One flipped byte per value must fail every GET, and only as a
		// wrong value.
		r := run(t, tr, true)
		if r.Fail[FailWrongValue] == 0 || r.Failed() != r.Fail[FailWrongValue] {
			t.Errorf("%s, corrupt origin: failures %v, want only wrong_value", name, r.Fail)
		}
	}
}

func TestOwnReadsSeeTheirOwnWrites(t *testing.T) {
	r := run(t, rw, false)
	if r.OwnReads == 0 {
		t.Fatal("no GET on the connection's own partition")
	}
	if r.StaleReads != 0 {
		t.Fatalf("%d stale reads straight from an origin", r.StaleReads)
	}
}

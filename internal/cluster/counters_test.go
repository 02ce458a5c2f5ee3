package cluster

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// statsFrom fills every field of a Stats from next — the table's counters,
// the identity, and shards entries in each per-shard slice — by walking the
// struct, so a field added to Stats is filled without this changing. A flag
// is set when its value is odd.
func statsFrom(shards int, next func() int64) Stats {
	var s Stats
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Int, reflect.Int64:
			v.SetInt(next())
		case reflect.Bool:
			v.SetBool(next()%2 != 0)
		case reflect.String:
			v.SetString(fmt.Sprint(next()))
		case reflect.Slice: // nil at no shards, as decodeStats leaves it
			if shards == 0 {
				return
			}
			v.Set(reflect.MakeSlice(v.Type(), shards, shards))
			for i := 0; i < shards; i++ {
				fill(v.Index(i))
			}
		default:
			panic(fmt.Sprintf("statsFrom: a Stats field of kind %v", v.Kind()))
		}
	}
	fill(reflect.ValueOf(&s).Elem())
	s.Shards = shards
	return s
}

// distinctStats is a Stats with every field distinct and non-zero, flags
// set, from x: each value is the last times three plus two, so from an odd
// x they stay odd and grow a varint byte every few fields.
func distinctStats(shards int, x int64) Stats {
	return statsFrom(shards, func() int64 { x = 3*x + 2; return x })
}

func roundTrip(t *testing.T, s Stats) {
	t.Helper()
	w := wire.NewWriter()
	appendStats(w, s)
	got, err := decodeStats(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("%+v: %v", s, err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("stats:\n got %+v\nwant %+v", got, s)
	}
}

func TestStatsBinaryRoundTrip(t *testing.T) {
	roundTrip(t, Stats{})
	roundTrip(t, distinctStats(1, 1))
	roundTrip(t, distinctStats(4, 1))

	// A per-shard count the frame cannot hold is refused before anything is
	// allocated for it.
	w := wire.NewWriter()
	appendStats(w, Stats{})
	b := w.Bytes()
	b = binary.AppendUvarint(b[:len(b)-4], 1<<40)
	if s, err := decodeStats(wire.NewReader(b)); err == nil {
		t.Fatalf("an implausible shard count decoded: %+v", s)
	}
}

// TestStatsAddSumsEveryCounter: Add sums every counter of the table but the
// ones that describe one node, and leaves those, the identity and the shard
// breakdown as they were.
func TestStatsAddSumsEveryCounter(t *testing.T) {
	a, b := distinctStats(2, 1), distinctStats(2, 2) // b's flags clear
	sum := a
	sum.Add(b)
	for i, c := range counters {
		switch {
		case c.flag != nil:
			if !c.oneNode || *c.flag(&sum) != *c.flag(&a) {
				t.Errorf("flag %d: %v after adding %v to %v; a flag describes one node", i, *c.flag(&sum), *c.flag(&b), *c.flag(&a))
			}
		case c.oneNode:
			if *c.field(&sum) != *c.field(&a) {
				t.Errorf("counter %d describes one node, but Add made %d of it into %d", i, *c.field(&a), *c.field(&sum))
			}
		default:
			if want := *c.field(&a) + *c.field(&b); *c.field(&sum) != want {
				t.Errorf("counter %d: %d, want the sum %d", i, *c.field(&sum), want)
			}
		}
	}
	alone := func(s Stats) Stats {
		return Stats{Node: s.Node, Store: s.Store, Options: s.Options, Shards: s.Shards,
			ShardOps: s.ShardOps, ShardSends: s.ShardSends, ShardReceives: s.ShardReceives, ShardEvents: s.ShardEvents}
	}
	if !reflect.DeepEqual(alone(sum), alone(a)) {
		t.Errorf("Add changed what describes one node: %+v, was %+v", alone(sum), alone(a))
	}
}

// FuzzStatsRoundTrip throws arbitrary bytes at decodeStats: it must never
// panic or accept a per-shard slice longer than the frame, and whatever it
// accepts must round-trip. Then a Stats filled from seed, every field, must
// round-trip whole.
func FuzzStatsRoundTrip(f *testing.F) {
	w := wire.NewWriter()
	appendStats(w, distinctStats(2, 1))
	f.Add(w.Bytes(), uint64(1))
	f.Add([]byte{}, uint64(2))
	f.Add(make([]byte, 40), uint64(3))
	f.Fuzz(func(t *testing.T, b []byte, seed uint64) {
		if s, err := decodeStats(wire.NewReader(b)); err == nil {
			for _, vs := range [][]int64{s.ShardOps, s.ShardSends, s.ShardReceives, s.ShardEvents} {
				if len(vs) > len(b) {
					t.Fatalf("%d per-shard counts decoded from %d bytes", len(vs), len(b))
				}
			}
			roundTrip(t, s)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		roundTrip(t, statsFrom(rng.Intn(9), func() int64 { return int64(rng.Uint64()) }))
	})
}

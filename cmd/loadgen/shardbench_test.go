package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunShardbenchDeterministic: the tracked BENCH_SHARD table is a pure
// function of its flags — the same seed prints the same bytes, as text and
// as JSON — with one row per distribution and power-of-two shard count, a
// speedup bound of exactly 1 at one shard, and a skewed keyspace bounding
// the speedup below a uniform one.
func TestRunShardbenchDeterministic(t *testing.T) {
	cfg := benchArgs{seed: 5, keys: 10000, ops: 20000, shards: 8}
	for _, jsonOut := range []bool{false, true} {
		cfg.jsonOut = jsonOut
		var a, b, other bytes.Buffer
		if err := runShardbench(&a, cfg); err != nil {
			t.Fatal(err)
		}
		if err := runShardbench(&b, cfg); err != nil {
			t.Fatal(err)
		}
		if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("json %v: same seed produced different shard tables:\n%s\n%s", jsonOut, a.String(), b.String())
		}
		reseeded := cfg
		reseeded.seed++
		if err := runShardbench(&other, reseeded); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.Bytes(), other.Bytes()) {
			t.Fatalf("json %v: the table does not depend on the seed:\n%s", jsonOut, a.String())
		}
		if !jsonOut {
			continue
		}
		var table struct {
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
		}
		if err := json.Unmarshal(a.Bytes(), &table); err != nil {
			t.Fatalf("shardbench JSON does not parse: %v\n%s", err, a.String())
		}
		col := map[string]int{}
		for i, c := range table.Columns {
			col[c] = i
		}
		if len(table.Rows) != 2*4 { // uniform and zipf at 1, 2, 4, 8 shards
			t.Fatalf("%d rows, want 8:\n%s", len(table.Rows), a.String())
		}
		bound := map[string]json.Number{}
		for _, row := range table.Rows {
			bound[row[col["dist"]]+"/"+row[col["shards"]]] = json.Number(row[col["speedup bound"]])
		}
		for _, dist := range []string{"uniform", "zipf"} {
			if one, _ := bound[dist+"/1"].Float64(); one != 1 {
				t.Errorf("%s: speedup bound at one shard is %v, want 1", dist, bound[dist+"/1"])
			}
		}
		uniform, _ := bound["uniform/8"].Float64()
		zipf, _ := bound["zipf/8"].Float64()
		if !(1 < zipf && zipf < uniform && uniform <= 8) {
			t.Errorf("speedup bounds at 8 shards: zipf %v, uniform %v; want 1 < zipf < uniform ≤ 8", zipf, uniform)
		}
	}
}

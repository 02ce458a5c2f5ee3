package fault

import (
	"reflect"
	"testing"
)

// TestLinksApply pins what each link directive does to the link state
// both engines read. want lists every link left not clean.
func TestLinksApply(t *testing.T) {
	cut := Link{Cut: true}
	cases := []struct {
		name string
		ds   []Directive
		want map[[2]int]Link
	}{
		{"partition cuts across groups", []Directive{
			{Kind: KindPartition, Groups: [][]int{{0, 2}, {1}}},
		}, map[[2]int]Link{{0, 1}: cut, {1, 0}: cut, {1, 2}: cut, {2, 1}: cut}},
		{"partition overwrites the cut set", []Directive{
			{Kind: KindLinkCut, From: 0, To: 2},
			{Kind: KindPartition, Groups: [][]int{{0, 2}, {1}}},
		}, map[[2]int]Link{{0, 1}: cut, {1, 0}: cut, {1, 2}: cut, {2, 1}: cut}},
		{"partition isolates the ungrouped", []Directive{
			{Kind: KindPartition, Groups: [][]int{{0, 1}}},
		}, map[[2]int]Link{{0, 2}: cut, {2, 0}: cut, {1, 2}: cut, {2, 1}: cut}},
		{"heal lifts cuts and keeps shaping", []Directive{
			{Kind: KindPartition, Groups: [][]int{{0}, {1, 2}}},
			{Kind: KindLinkCut, From: 1, To: 2},
			{Kind: KindLinkDelay, From: 0, To: 1, DelaySteps: 2, JitterSteps: 1},
			{Kind: KindHeal},
		}, map[[2]int]Link{{0, 1}: {Delay: 2, Jitter: 1}}},
		{"clear lifts shaping and keeps the cut", []Directive{
			{Kind: KindLinkCut, From: 0, To: 1},
			{Kind: KindLinkDup, From: 0, To: 1},
			{Kind: KindLinkReorder, From: 0, To: 1},
			{Kind: KindLinkRate, From: 0, To: 1, RateKBps: 8},
			{Kind: KindLinkDelay, From: 0, To: 1, DelaySteps: 1},
			{Kind: KindLinkDup, From: 1, To: 0},
			{Kind: KindLinkClear, From: 0, To: 1},
		}, map[[2]int]Link{{0, 1}: cut, {1, 0}: {Dup: true}}},
		{"restore lifts one cut", []Directive{
			{Kind: KindLinkCut, From: 0, To: 1},
			{Kind: KindLinkCut, From: 1, To: 0},
			{Kind: KindLinkRestore, From: 0, To: 1},
		}, map[[2]int]Link{{1, 0}: cut}},
		{"a rate of 0 is ignored", []Directive{
			{Kind: KindLinkRate, From: 0, To: 1, RateKBps: 8},
			{Kind: KindLinkRate, From: 0, To: 1},
			{Kind: KindLinkRate, From: 2, To: 1},
		}, map[[2]int]Link{{0, 1}: {RateKBps: 8}}},
		{"links outside the run and node directives are ignored", []Directive{
			{Kind: KindLinkCut, From: 0, To: 3},
			{Kind: KindLinkDup, From: -1, To: 0},
			{Kind: KindLinkClear, From: 3, To: 0},
			{Kind: KindPartition, Groups: [][]int{{0, 1, 2, 5}}},
			{Kind: KindCrash, Node: 1},
			{Kind: KindLeave, Node: 2},
		}, map[[2]int]Link{}},
	}
	for _, tc := range cases {
		l := NewLinks(3)
		for _, d := range tc.ds {
			l.Apply(d)
		}
		got := map[[2]int]Link{}
		for from := -1; from <= 3; from++ {
			for to := -1; to <= 3; to++ {
				if lk := l.At(from, to); lk != (Link{}) {
					got[[2]int{from, to}] = lk
				}
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: links = %v, want %v", tc.name, got, tc.want)
		}
	}
}

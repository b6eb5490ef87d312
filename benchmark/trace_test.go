package main

import (
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// client 0..100
	//   router 10..90
	//     leg 20..50, leg 40..70 (overlapping), leg 75..80
	stmt := []span{
		{Name: spanClient, Start: 0, End: 100},
		{Name: spanRouter, Parent: spanClient, Start: 10, End: 90},
		{Name: spanLeg, Parent: spanRouter, Start: 20, End: 50},
		{Name: spanLeg, Parent: spanRouter, Start: 40, End: 70},
		{Name: spanLeg, Parent: spanRouter, Start: 75, End: 80},
	}
	// client: 100 - 80; router: 80 - (50 + 5); legs have no children.
	want := []int64{20, 25, 30, 30, 5}
	if got := selfTimes(stmt); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfTimesClipsChildrenToParent(t *testing.T) {
	stmt := []span{
		{Name: "p", Start: 10, End: 20},
		{Name: "c", Parent: "p", Start: 5, End: 12},  // starts early
		{Name: "c", Parent: "p", Start: 18, End: 30}, // ends late
		{Name: "c", Parent: "p", Start: 40, End: 50}, // outside altogether
	}
	if got := selfTimes(stmt)[0]; got != 6 {
		t.Errorf("parent self time = %d, want 6", got)
	}
}

func TestUnionLength(t *testing.T) {
	if got := unionLength([][2]int64{{5, 7}, {0, 3}, {2, 4}, {6, 6}}); got != 6 {
		t.Errorf("unionLength = %d, want 6", got)
	}
	if got := unionLength(nil); got != 0 {
		t.Errorf("unionLength(nil) = %d", got)
	}
}

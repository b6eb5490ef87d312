package main

import (
	"bytes"
	"math/rand"
	"testing"
)

func build(sp *spec, seed int64) *schedule {
	return sp.build(rand.New(rand.NewSource(seed)), fullSize)
}

func TestScheduleDeterminism(t *testing.T) {
	for _, sp := range workloads {
		a, b, c := build(sp, 7).bytes(), build(sp, 7).bytes(), build(sp, 8).bytes()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different schedules", sp.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same schedule", sp.name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	for _, sp := range workloads {
		s := build(sp, 1)
		if len(s.clients) < 1 || len(s.clients) > 2 {
			t.Errorf("%s: %d clients, want 1 or 2", sp.name, len(s.clients))
		}
		for _, d := range s.distinct {
			if d.shape < 0 || d.shape >= len(sp.shapes) {
				t.Errorf("%s: statement out of range: %+v", sp.name, d)
			}
		}
		for _, order := range s.clients {
			for _, i := range order {
				if i != opWrite && i != opKV && (i < 0 || int(i) >= len(s.distinct)) {
					t.Fatalf("%s: schedule entry %d out of range", sp.name, i)
				}
			}
		}
	}
}

func TestHotPoolFitsThePlanCache(t *testing.T) {
	for _, name := range []string{"hot_statements", "mixed_rw_durable"} {
		s := build(findWorkload(name), 1)
		texts := map[string]bool{}
		for _, d := range s.distinct {
			texts[d.sql] = true
		}
		if len(texts) != hotPoolSize || len(texts) >= planCacheCapacity {
			t.Errorf("%s: %d distinct texts, want %d, below the cache's %d", name, len(texts), hotPoolSize, planCacheCapacity)
		}
	}
}

// TestColdReuseDistance replays the two clients' interleaved cycles, twice
// over, and checks that no text comes round again within 16 cache
// capacities.
func TestColdReuseDistance(t *testing.T) {
	for _, z := range []sizes{fullSize, smokeSize} {
		s := findWorkload("cold_statements").build(rand.New(rand.NewSource(1)), z)
		lastSeen := map[string]int{}
		pos := 0
		for round := 0; round < 2; round++ {
			for i := 0; i < len(s.clients[0]); i++ {
				for _, order := range s.clients {
					sql := s.distinct[order[i%len(order)]].sql
					if prev, ok := lastSeen[sql]; ok && pos-prev < 16*planCacheCapacity {
						t.Fatalf("%q reused after %d statements, want at least %d", sql, pos-prev, 16*planCacheCapacity)
					}
					lastSeen[sql] = pos
					pos++
				}
			}
		}
		if s.startAt*len(s.clients) < planCacheCapacity {
			t.Errorf("warm-up covers %d statements, fewer than the cache holds", s.startAt*len(s.clients))
		}
	}
}

func TestShardScheduleMix(t *testing.T) {
	s := build(findWorkload("shard_routes"), 1)
	counts := map[int]int{}
	for _, i := range s.clients[0] {
		counts[s.distinct[i].shape]++
	}
	n := len(s.clients[0])
	if counts[0]*10 != n*8 || counts[1]*10 != n || counts[2]*10 != n {
		t.Errorf("route mix %v of %d, want 80/10/10", counts, n)
	}
}

package core

import (
	"math/rand"
	"testing"
)

func TestDIPSetWidthBounds(t *testing.T) {
	for _, n := range []int{0, -1, maxDenseBits + 1} {
		if _, err := NewDIPSet(n); err == nil {
			t.Errorf("width %d accepted", n)
		}
	}
	s, err := NewDIPSet(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Universe() != 8 || s.NumWords() != 1 {
		t.Errorf("n=3: universe=%d words=%d", s.Universe(), s.NumWords())
	}
	s10, err := NewDIPSet(10)
	if err != nil {
		t.Fatal(err)
	}
	if s10.Universe() != 1024 || s10.NumWords() != 16 {
		t.Errorf("n=10: universe=%d words=%d", s10.Universe(), s10.NumWords())
	}
}

// TestDIPSetAgainstMap drives the bitset and a reference map with the
// same random inserts and checks every read-out surface agrees.
func TestDIPSetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 3, 6, 7, 12} {
		s, err := NewDIPSet(n)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[uint64]struct{}{}
		u := s.Universe()
		for i := 0; i < 200; i++ {
			p := rng.Uint64() % u
			s.Add(p)
			ref[p] = struct{}{}
		}
		if s.Count() != uint64(len(ref)) {
			t.Fatalf("n=%d: Count=%d, map has %d", n, s.Count(), len(ref))
		}
		for p := uint64(0); p < u; p++ {
			_, in := ref[p]
			if s.Contains(p) != in {
				t.Fatalf("n=%d: Contains(%d)=%v, map says %v", n, p, s.Contains(p), in)
			}
		}
		if s.Contains(u) || s.Contains(u+17) {
			t.Errorf("n=%d: out-of-universe pattern reported present", n)
		}
		// Elements is ascending and matches the map.
		prev := int64(-1)
		for _, p := range s.Elements() {
			if int64(p) <= prev {
				t.Fatalf("n=%d: Elements not ascending", n)
			}
			prev = int64(p)
			if _, in := ref[p]; !in {
				t.Fatalf("n=%d: Elements reported %d not in map", n, p)
			}
		}
		// Range walks and counts agree on random sub-ranges.
		for i := 0; i < 20; i++ {
			lo := rng.Uint64() % u
			hi := lo + rng.Uint64()%(u-lo) + 1
			var want uint64
			for p := range ref {
				if p >= lo && p < hi {
					want++
				}
			}
			if got := s.CountRange(lo, hi); got != want {
				t.Fatalf("n=%d: CountRange(%d,%d)=%d, want %d", n, lo, hi, got, want)
			}
			var walked uint64
			s.ForEachRange(lo, hi, func(p uint64) bool {
				if p < lo || p >= hi {
					t.Fatalf("n=%d: ForEachRange(%d,%d) visited %d", n, lo, hi, p)
				}
				walked++
				return true
			})
			if walked != want {
				t.Fatalf("n=%d: ForEachRange visited %d, want %d", n, walked, want)
			}
		}
	}
}

func TestDIPSetAddOutOfUniversePanics(t *testing.T) {
	s, err := NewDIPSet(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Add beyond the universe did not panic")
		}
	}()
	s.Add(8)
}

func TestDIPSetForEachEarlyStop(t *testing.T) {
	s, _ := NewDIPSet(8)
	for p := uint64(0); p < 256; p += 3 {
		s.Add(p)
	}
	visited := 0
	s.ForEach(func(p uint64) bool {
		visited++
		return visited < 5
	})
	if visited != 5 {
		t.Errorf("early stop visited %d patterns, want 5", visited)
	}
}

func TestDIPSetOrAndEqual(t *testing.T) {
	a, _ := NewDIPSet(9)
	b, _ := NewDIPSet(9)
	a.Add(1)
	a.Add(300)
	b.Add(300)
	b.Add(511)
	if a.Equal(b) {
		t.Error("distinct sets reported equal")
	}
	if err := a.Or(b); err != nil {
		t.Fatal(err)
	}
	for _, p := range []uint64{1, 300, 511} {
		if !a.Contains(p) {
			t.Errorf("after Or, %d missing", p)
		}
	}
	if a.Count() != 3 {
		t.Errorf("after Or, Count=%d", a.Count())
	}
	c, _ := NewDIPSet(8)
	if err := a.Or(c); err == nil {
		t.Error("width-mismatched Or accepted")
	}
	if a.Equal(c) {
		t.Error("width-mismatched sets reported equal")
	}
}

// TestDIPSetAddCubeMatchesPoints checks AddCube against one Add per
// cube point, for random overlapping cubes at widths on both sides of
// the 64-pattern word (free bits below 6 become a lane mask, higher
// ones select words), and that a cube outside the universe panics.
func TestDIPSetAddCubeMatchesPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 4, 6, 7, 12} {
		s, err := NewDIPSet(n)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := NewDIPSet(n)
		mask := s.Universe() - 1
		for i := 0; i < 40; i++ {
			pat := rng.Uint64() & mask
			free := rng.Uint64() & rng.Uint64() & mask
			s.AddCube(pat, free)
			for sub := free; ; sub = (sub - 1) & free {
				ref.Add(pat&^free | sub)
				if sub == 0 {
					break
				}
			}
			if !s.Equal(ref) {
				t.Fatalf("n=%d cube %b/%b: %d patterns, point-wise %d", n, pat, free, s.Count(), ref.Count())
			}
		}
	}
	s, _ := NewDIPSet(4)
	defer func() {
		if recover() == nil {
			t.Fatal("cube outside the universe accepted")
		}
	}()
	s.AddCube(0, 0b10000)
}

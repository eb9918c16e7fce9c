package compress

import "testing"

func TestGetBufCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 1 << 20, (1 << 22) + 1} {
		b := GetBuf(n)
		if len(b) != 0 {
			t.Errorf("GetBuf(%d) len = %d, want 0", n, len(b))
		}
		if cap(b) < n {
			t.Errorf("GetBuf(%d) cap = %d, want >= %d", n, cap(b), n)
		}
		PutBuf(b)
	}
}

func TestPutBufRoundTrips(t *testing.T) {
	// A put buffer of an exact class size should be served again with
	// its capacity intact (same class), even after growth via append.
	b := GetBuf(1000) // class 1024
	b = append(b, make([]byte, 900)...)
	if cap(b) != 1024 {
		t.Fatalf("cap = %d, want 1024", cap(b))
	}
	PutBuf(b)
	c := GetBuf(1024)
	if cap(c) < 1024 {
		t.Errorf("recycled cap = %d, want >= 1024", cap(c))
	}
	PutBuf(c)
}

func TestPutBufForeignSlices(t *testing.T) {
	// Off-class and oversized slices must be dropped, not pooled where
	// they could be handed out undersized.
	PutBuf(nil)
	PutBuf(make([]byte, 0, 777))   // not a class size
	PutBuf(make([]byte, 0, 1<<23)) // beyond the largest class
	if b := GetBuf(1 << 23); cap(b) < 1<<23 {
		t.Errorf("oversized GetBuf cap = %d", cap(b))
	}
}

func TestBufClass(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {512, 0}, {513, 1}, {1024, 1}, {1025, 2},
		{1 << 22, maxBufClass - minBufClass}, {(1 << 22) + 1, -1},
	}
	for _, c := range cases {
		if got := bufClass(c.n); got != c.class {
			t.Errorf("bufClass(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGrowCap(t *testing.T) {
	b := make([]byte, 3, 8)
	copy(b, "abc")
	if got := growCap(b, 5); cap(got) != 8 || len(got) != 3 {
		t.Errorf("no-grow case reallocated: len %d cap %d", len(got), cap(got))
	}
	grown := growCap(b, 100)
	if cap(grown)-len(grown) < 100 || string(grown) != "abc" {
		t.Errorf("grow lost prefix or capacity: %q cap %d", grown, cap(grown))
	}
}

func TestClampGrow(t *testing.T) {
	if got := clampGrow(10, 100); got != 10 {
		t.Errorf("clampGrow(10,100) = %d", got)
	}
	if got := clampGrow(1<<40, 100); got != 100 {
		t.Errorf("clampGrow(huge,100) = %d", got)
	}
	if got := clampGrow(5, -1); got != 0 {
		t.Errorf("clampGrow(5,-1) = %d", got)
	}
}

// TestBufPoolRoundTripAllocFree pins the pool's reason to exist: a
// GetBuf/PutBuf round trip, growth within the class included, allocates
// nothing once the pool is warm.
func TestBufPoolRoundTripAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled items at random")
	}
	roundTrip := func() {
		b := GetBuf(1000)
		b = append(b, make([]byte, 900)...)
		PutBuf(b)
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Errorf("GetBuf/PutBuf round trip allocates %v/op, want 0", allocs)
	}
}

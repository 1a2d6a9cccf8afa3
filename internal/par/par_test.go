package par

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, 64} {
		p := New(w)
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			hits := make([]int32, n)
			p.ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", w, n, i, h)
				}
			}
		}
	}
}

func TestWorkersBound(t *testing.T) {
	if got := New(0).Workers(); got < 1 {
		t.Fatalf("New(0).Workers() = %d", got)
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("New(5).Workers() = %d", got)
	}
	var nilPool *Pool
	if got := nilPool.Workers(); got != 1 {
		t.Fatalf("nil pool Workers() = %d", got)
	}
	// A nil pool must still run loops, serially.
	sum := 0
	nilPool.ForEach(10, func(i int) { sum += i })
	if sum != 45 {
		t.Fatalf("nil pool ForEach sum = %d", sum)
	}
}

func TestConcurrencyIsBounded(t *testing.T) {
	if peak := peakConcurrency(New(3), 100); peak > 3 {
		t.Fatalf("observed %d concurrent executions, bound 3", peak)
	}
}

func TestChunkGridIsWorkerIndependent(t *testing.T) {
	for _, n := range []int{1, 5, 31, 32, 33, 460, 10000} {
		c := ChunkSize(n)
		if c < 1 {
			t.Fatalf("ChunkSize(%d) = %d", n, c)
		}
		if NumChunks(n)*c < n || (NumChunks(n)-1)*c >= n {
			t.Fatalf("n=%d: %d chunks of %d do not tile [0,n)", n, NumChunks(n), c)
		}
	}
	// A chunked loop — one ForEach item per chunk — must tile [0, n) with
	// the same ranges on every pool.
	for _, n := range []int{17, 460} {
		for _, p := range []*Pool{Serial, New(8)} {
			got := make([][2]int, NumChunks(n))
			p.ForEach(len(got), func(ci int) {
				lo, hi := Chunk(n, ci)
				got[ci] = [2]int{lo, hi}
			})
			next := 0
			for ci, ch := range got {
				if ch[0] != next || ch[1] <= ch[0] || ch[1]-ch[0] > ChunkSize(n) {
					t.Fatalf("n=%d workers=%d: chunk %d = %v after %d", n, p.Workers(), ci, ch, next)
				}
				next = ch[1]
			}
			if next != n {
				t.Fatalf("n=%d workers=%d: chunks end at %d", n, p.Workers(), next)
			}
		}
	}
}

func TestPanicPropagatesLowestIndex(t *testing.T) {
	p := New(8)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if fmt.Sprint(r) != "boom 3" {
			t.Fatalf("expected lowest-index panic, got %v", r)
		}
	}()
	p.ForEach(100, func(i int) {
		if i == 3 || i == 60 {
			panic(fmt.Sprintf("boom %d", i))
		}
	})
}

// TestShardRanges pins the shard partitioner: exact cover of [0, n) in
// ascending order, balance within one item, clamping, and independence
// from anything but (n, shards).
func TestShardRanges(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 8, 9, 100, 1000} {
		for _, shards := range []int{-1, 0, 1, 2, 3, 7, 32, 5000} {
			ranges := ShardRanges(n, shards)
			if n <= 0 {
				if ranges != nil {
					t.Fatalf("n=%d shards=%d: want nil, got %v", n, shards, ranges)
				}
				continue
			}
			want := shards
			if want < 1 {
				want = 1
			}
			if want > n {
				want = n
			}
			if len(ranges) != want {
				t.Fatalf("n=%d shards=%d: %d ranges, want %d", n, shards, len(ranges), want)
			}
			next, min, max := 0, n, 0
			for _, r := range ranges {
				if r[0] != next || r[1] <= r[0] {
					t.Fatalf("n=%d shards=%d: bad range %v after %d", n, shards, r, next)
				}
				w := r[1] - r[0]
				if w < min {
					min = w
				}
				if w > max {
					max = w
				}
				next = r[1]
			}
			if next != n {
				t.Fatalf("n=%d shards=%d: ranges end at %d", n, shards, next)
			}
			if max-min > 1 {
				t.Fatalf("n=%d shards=%d: unbalanced (min %d, max %d)", n, shards, min, max)
			}
		}
	}
}

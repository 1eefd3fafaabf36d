package sampling

import (
	"math/rand"
	"testing"
)

// FuzzDrawState grows a Draw of a random N from a random initial sample
// through a random schedule of rounds, then takes the census. Each byte
// of the schedule is one round's size as a share of what is left, so a
// schedule crosses from rejection into the dense regime wherever its
// sizes take it. After every round no index is drawn twice, every index
// is below N, the draw's size matches the indices drawn, the bitset
// holds exactly the sample while the draw rejects and the listed tail
// exactly its complement once dense; the census leaves every index of
// [0, N) drawn exactly once.
func FuzzDrawState(f *testing.F) {
	f.Add(uint16(1), uint16(0), []byte{}, int64(1))
	f.Add(uint16(10), uint16(2), []byte{40, 200, 255}, int64(2))
	f.Add(uint16(130), uint16(5), []byte{3, 3, 3, 90, 17, 250}, int64(3))
	f.Add(uint16(1000), uint16(0), []byte{0, 1, 2, 128, 64, 32, 16, 8}, int64(4))
	f.Fuzz(func(t *testing.T, bigN, initial uint16, schedule []byte, seed int64) {
		N := int(bigN % 4096)
		if N == 0 || len(schedule) > 64 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		sample := WithoutReplacement(rng, N, int(initial)%(N+1))
		seen := make([]bool, N)
		for _, i := range sample {
			seen[i] = true
		}
		d := NewDraw(N, sample)
		n := len(sample)
		take := func(m int) {
			ids := d.Next(rng, m)
			if len(ids) != m {
				t.Fatalf("Next(%d) returned %d indices", m, len(ids))
			}
			for _, id := range ids {
				if id < 0 || int(id) >= N {
					t.Fatalf("index %d outside [0, %d)", id, N)
				}
				if seen[id] {
					t.Fatalf("index %d drawn twice", id)
				}
				seen[id] = true
			}
			n += m
			if d.Len() != n {
				t.Fatalf("draw reports %d sampled, %d drawn", d.Len(), n)
			}
			if d.rest == nil {
				for i := 0; i < N; i++ {
					if (d.taken[i>>6]>>(uint(i)&63)&1 == 1) != seen[i] {
						t.Fatalf("bitset disagrees on index %d", i)
					}
				}
				return
			}
			if len(d.rest)-d.k != N-n {
				t.Fatalf("%d indices listed as unsampled, %d are", len(d.rest)-d.k, N-n)
			}
			for _, id := range d.rest[d.k:] {
				if seen[id] {
					t.Fatalf("index %d listed as unsampled but drawn", id)
				}
			}
		}
		for _, b := range schedule {
			take((N - n) * int(b) / 255)
		}
		take(N - n)
		for i, s := range seen {
			if !s {
				t.Fatalf("census missed index %d", i)
			}
		}
	})
}

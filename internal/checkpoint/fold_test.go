package checkpoint

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// TestCarveIsAStableFilter drives the feed fold over generated record
// sequences: after Carve, every thread's feed is the stable filter of the
// records on that thread, in one capacity-limited run, and at each
// boundary the plan hands out the filter of the records before it.
func TestCarveIsAStableFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(n, threads int) []trace.ThreadID {
		tids := make([]trace.ThreadID, n)
		for i := range tids {
			tids[i] = trace.ThreadID(rng.Intn(threads))
		}
		return tids
	}
	roundRobin := make([]trace.ThreadID, 3000)
	for i := range roundRobin {
		roundRobin[i] = trace.ThreadID(i % 5)
	}
	// Thread 1's records are all first, thread 0's all last: every entry
	// moves.
	blocks := append(slices.Repeat([]trace.ThreadID{1}, 400), slices.Repeat([]trace.ThreadID{0}, 300)...)
	cases := []struct {
		name string
		tids []trace.ThreadID
	}{
		{"no records", nil},
		{"one record", []trace.ThreadID{0}},
		{"one thread", slices.Repeat([]trace.ThreadID{0}, 100)},
		{"a thread with no records", []trace.ThreadID{0, 2, 0, 2, 2, 3, 0, 3, 2}},
		{"thread spawned last", append(random(500, 3), 3)},
		{"blocks in reverse thread order", blocks},
		{"round robin", roundRobin},
		{"long interleaving", random(50_000, 9)},
		{"skewed interleaving", append(random(20_000, 2), random(20_000, 40)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.tids)
			threads := 0
			for _, tid := range tc.tids {
				threads = max(threads, int(tid)+1)
			}
			bounds := []uint64{0, uint64(n / 3), uint64(n / 2), uint64(n)}
			if n > 1 {
				bounds = append(bounds, 1, uint64(n-1))
			}
			slices.Sort(bounds)
			bounds = slices.Compact(bounds)
			entries := make([]vm.FeedEntry, n)
			for i := range entries {
				entries[i] = vm.FeedEntry{Val: trace.Int(int64(i)), Kind: trace.EvYield, OK: i%2 == 0, Taint: trace.Taint(i % 3)}
			}
			want := slices.Clone(entries)

			p := NewFeedPlan(bounds)
			for _, tid := range tc.tids {
				p.Count(tid)
			}
			p.Carve(entries, tc.tids)

			if len(p.full) != threads {
				t.Fatalf("%d feeds, want %d", len(p.full), threads)
			}
			for tid, feed := range p.full {
				if cap(feed) != len(feed) {
					t.Errorf("thread %d: feed has length %d, capacity %d", tid, len(feed), cap(feed))
				}
			}
			for _, b := range bounds {
				feeds, err := p.feeds(b, threads)
				if err != nil {
					t.Fatal(err)
				}
				for tid := range threads {
					if got, wantFeed := feeds[tid], filter(want[:b], tc.tids, trace.ThreadID(tid)); !slices.Equal(got, wantFeed) {
						t.Fatalf("boundary %d, thread %d: feed %s, want %s", b, tid, vals(got), vals(wantFeed))
					}
				}
			}
		})
	}
}

// filter is the entries whose record ran on tid, in record order.
func filter(entries []vm.FeedEntry, tids []trace.ThreadID, tid trace.ThreadID) []vm.FeedEntry {
	var out []vm.FeedEntry
	for i := range entries {
		if tids[i] == tid {
			out = append(out, entries[i])
		}
	}
	return out
}

// vals names entries by the record index each carries.
func vals(entries []vm.FeedEntry) string {
	if len(entries) > 12 {
		return fmt.Sprintf("%s ... (%d entries)", vals(entries[:12]), len(entries))
	}
	ids := make([]int64, len(entries))
	for i := range entries {
		ids[i] = entries[i].Val.Int
	}
	return fmt.Sprint(ids)
}

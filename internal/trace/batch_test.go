package trace

import (
	"fmt"
	"testing"

	"graphlocality/internal/gen"
	"graphlocality/internal/graph"
)

// Stream-equality tests: concatenating the blocks of every batched
// generator must reproduce, access for access, RunReference's stream for
// the same threads and interval. These are the other half of the
// bit-exactness contract — the differential suite in core compares
// end-to-end SimResults, these compare the raw streams so a generator bug
// is pinned to the generator.

func testGraph() *graph.Graph { return gen.SocialNetwork(8, 8, 5) }

// collectReference returns RunReference's full stream.
func collectReference(g *graph.Graph, dir Direction, threads, interval int) []Access {
	var out []Access
	RunReference(g, NewLayout(g), dir, threads, interval, func(a Access) bool {
		out = append(out, a)
		return true
	})
	return out
}

func assertSameStream(t *testing.T, name string, want, got []Access) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d accesses, want %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: access %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

func TestRunBatchedMatchesRun(t *testing.T) {
	// One thread: the stream arrives in whole DefaultBatchSize blocks,
	// only the last one short, whatever the interval.
	g := testGraph()
	l := NewLayout(g)
	for _, dir := range []Direction{Pull, Push, PushRead} {
		want := collectReference(g, dir, 1, 1)
		for _, interval := range []int{0, 1, 1024} {
			var got []Access
			short := 0
			done := RunBatched(g, l, dir, 1, interval, func(thread int, block []Access) bool {
				if thread != 0 {
					t.Fatalf("%s: block tagged thread %d", dir, thread)
				}
				if short > 0 {
					t.Fatalf("%s/iv=%d: block after a short block", dir, interval)
				}
				if len(block) < DefaultBatchSize {
					short++
				}
				got = append(got, block...)
				return true
			})
			if !done {
				t.Fatalf("%s: RunBatched reported early stop", dir)
			}
			assertSameStream(t, fmt.Sprintf("%s/iv=%d", dir, interval), want, got)
		}
	}
}

func TestStreamRunBatchedMatchesReference(t *testing.T) {
	g := testGraph()
	l := NewLayout(g)
	for _, dir := range []Direction{Pull, Push, PushRead} {
		for threads := 1; threads <= 5; threads++ {
			ranges := g.PartitionEdgeBalanced(dir == Pull, threads)
			for _, interval := range []int{1, 5, 1024} {
				want := collectReference(g, dir, threads, interval)
				// Block sizes that are tiny, misaligned with the
				// per-vertex pattern and the interval, and the default —
				// block cuts must never change content.
				for _, bs := range []int{1, 3, 7, DefaultBatchSize} {
					name := fmt.Sprintf("%s/t=%d/iv=%d/bs=%d", dir, threads, interval, bs)
					var got []Access
					done := runBatched(g, l, dir, threads, interval, bs, func(thread int, block []Access) bool {
						if len(block) == 0 || len(block) > bs {
							t.Fatalf("%s: block of %d accesses", name, len(block))
						}
						// A block never spans two threads, and its tag is
						// the partition that issued every access in it.
						r := ranges[thread]
						for _, a := range block {
							if a.Dest < r.Lo || a.Dest >= r.Hi {
								t.Fatalf("%s: thread %d block holds dest %d outside %+v", name, thread, a.Dest, r)
							}
						}
						got = append(got, block...)
						return true
					})
					if !done {
						t.Fatalf("%s: reported early stop", name)
					}
					assertSameStream(t, name, want, got)
				}
			}
		}
	}
}

func TestRunBatchedEarlyStop(t *testing.T) {
	g := testGraph()
	l := NewLayout(g)
	blocks := 0
	done := runBatched(g, l, Pull, 2, 10, 50, func(int, []Access) bool {
		blocks++
		return blocks < 3
	})
	if done {
		t.Fatal("RunBatched should report an early stop")
	}
	if blocks != 3 {
		t.Fatalf("sink saw %d blocks after stopping at 3", blocks)
	}
}

func TestRunColumnsMatchesRun(t *testing.T) {
	g := testGraph()
	l := NewLayout(g)
	for _, dir := range []Direction{Pull, Push, PushRead} {
		want := collectReference(g, dir, 1, 1)
		for _, bs := range []int{1, 2, 3, 101, 0} {
			var addrs []uint64
			var writes []bool
			edgeReads := 0
			done := RunColumns(g, l, dir, bs, func(a []uint64, w []bool, er int) bool {
				addrs = append(addrs, a...)
				writes = append(writes, w...)
				// Per-block edge-read counts must match the block content,
				// not just the total.
				n := 0
				for _, acc := range want[len(addrs)-len(a) : len(addrs)] {
					if acc.Kind == KindEdges {
						n++
					}
				}
				if er != n {
					t.Fatalf("%s/bs=%d: block edgeReads = %d, want %d", dir, bs, er, n)
				}
				edgeReads += er
				return true
			})
			if !done {
				t.Fatalf("%s/bs=%d: RunColumns reported early stop", dir, bs)
			}
			if len(addrs) != len(want) {
				t.Fatalf("%s/bs=%d: %d accesses, want %d", dir, bs, len(addrs), len(want))
			}
			totalEdges := 0
			for i, a := range want {
				if addrs[i] != a.Addr {
					t.Fatalf("%s/bs=%d: addr %d = %#x, want %#x", dir, bs, i, addrs[i], a.Addr)
				}
				if writes[i] != a.Write {
					t.Fatalf("%s/bs=%d: write %d = %v, want %v", dir, bs, i, writes[i], a.Write)
				}
				if a.Kind == KindEdges {
					totalEdges++
				}
			}
			if edgeReads != totalEdges {
				t.Fatalf("%s/bs=%d: edgeReads sum %d, want %d", dir, bs, edgeReads, totalEdges)
			}
		}
	}
}

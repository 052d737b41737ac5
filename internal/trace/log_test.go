package trace

import (
	"fmt"
	"testing"

	"graphlocality/internal/gen"
)

func TestCollectLogsCoverAllAccesses(t *testing.T) {
	g := gen.ErdosRenyi(400, 2500, 7)
	l := NewLayout(g)
	logs := CollectLogs(g, l, Pull, 4)
	if TotalAccesses(logs) != CountAccesses(g) {
		t.Fatalf("logs hold %d accesses, want %d", TotalAccesses(logs), CountAccesses(g))
	}
	// Threads must be distinct and ordered.
	for i, lg := range logs {
		if lg.Thread != i {
			t.Errorf("log %d labeled thread %d", i, lg.Thread)
		}
	}
}

// replayAll concatenates Replay's blocks.
func replayAll(logs []ThreadLog, interval int) []Access {
	var out []Access
	Replay(logs, interval, func(_ int, block []Access) bool {
		out = append(out, block...)
		return true
	})
	return out
}

func TestReplayEqualsRunParallel(t *testing.T) {
	// The paper's materialized two-phase method and the streaming
	// interleaver must produce the identical access sequence.
	g := gen.WebGraph(gen.DefaultWebGraph(1024, 6, 3))
	l := NewLayout(g)
	for _, dir := range []Direction{Pull, Push, PushRead} {
		for _, threads := range []int{1, 3} {
			logs := CollectLogs(g, l, dir, threads)
			for _, interval := range []int{1, 17, 1 << 20} {
				name := fmt.Sprintf("%s/t=%d/iv=%d", dir, threads, interval)
				assertSameStream(t, name, collectReference(g, dir, threads, interval), replayAll(logs, interval))
			}
		}
	}
}

func TestReplayDegenerateInterval(t *testing.T) {
	g := gen.Ring(50)
	l := NewLayout(g)
	logs := CollectLogs(g, l, Push, 2)
	if n := uint64(len(replayAll(logs, 0))); n != CountAccesses(g) {
		t.Errorf("replayed %d accesses, want %d", n, CountAccesses(g))
	}
}

func TestReplayWithThread(t *testing.T) {
	g := gen.WebGraph(gen.DefaultWebGraph(512, 6, 5))
	l := NewLayout(g)
	logs := CollectLogs(g, l, Pull, 3)
	// Every block is one interval slice of one log, tagged with that
	// log's thread, handed over in round-robin order.
	counts := map[int]int{}
	prev := -1
	Replay(logs, 16, func(thread int, block []Access) bool {
		if thread < 0 || thread >= len(logs) {
			t.Fatalf("bad thread id %d", thread)
		}
		if len(block) == 0 || len(block) > 16 {
			t.Fatalf("block of %d accesses", len(block))
		}
		log := logs[thread].Accesses
		assertSameStream(t, fmt.Sprintf("thread %d", thread), log[counts[thread]:counts[thread]+len(block)], block)
		if thread == prev {
			// Consecutive blocks of one thread only once the others ran dry.
			for i, lg := range logs {
				if i != thread && counts[i] < len(lg.Accesses) {
					t.Fatalf("thread %d issued twice while thread %d was live", thread, i)
				}
			}
		}
		counts[thread] += len(block)
		prev = thread
		return true
	})
	for i, lg := range logs {
		if counts[i] != len(lg.Accesses) {
			t.Errorf("thread %d delivered %d accesses, want %d", i, counts[i], len(lg.Accesses))
		}
	}
	// The sink stops the replay.
	blocks := 0
	if Replay(logs, 16, func(int, []Access) bool { blocks++; return blocks < 2 }) || blocks != 2 {
		t.Errorf("stopped replay: %d blocks delivered", blocks)
	}
}

func TestCollectLogsPushDirection(t *testing.T) {
	g := gen.Star(100)
	l := NewLayout(g)
	logs := CollectLogs(g, l, Push, 0) // degenerate thread count
	if len(logs) == 0 || TotalAccesses(logs) != CountAccesses(g) {
		t.Fatal("push logs wrong")
	}
}

package trace

import "graphlocality/internal/graph"

// This file implements the paper's two-phase parallel simulation (§V-B)
// literally: phase 1 materializes each thread's memory accesses into a
// log; phase 2 divides execution into intervals and replays the logs
// round-robin. RunBatched produces the identical interleaving without
// materializing the logs; the explicit form exists for tooling that needs
// to store, inspect or re-replay traces.

// ThreadLog is the materialized access log of one emulated thread.
type ThreadLog struct {
	Thread   int
	Accesses []Access
}

// CollectLogs performs phase 1: it partitions the vertex set into
// `threads` edge-balanced partitions and records each partition's full
// program-order access stream.
func CollectLogs(g graph.Topology, l Layout, dir Direction, threads int) []ThreadLog {
	var logs []ThreadLog
	// Every partition holds at least one vertex, so every thread emits a
	// block and the logs come out dense and in thread order. The interval
	// only sets how the per-thread streams interleave, which is irrelevant
	// here; a large one keeps the blocks full.
	RunBatched(g, l, dir, threads, DefaultBatchSize, func(thread int, block []Access) bool {
		for len(logs) <= thread {
			logs = append(logs, ThreadLog{Thread: len(logs)})
		}
		logs[thread].Accesses = append(logs[thread].Accesses, block...)
		return true
	})
	return logs
}

// Replay performs phase 2: execution duration is divided between threads;
// for each interval every live thread contributes `interval` accesses in
// round-robin order. Each slice reaches the sink as one block tagged with
// its log's thread (zero-copy: the blocks are views into the logs), so
// the concatenated blocks equal RunBatched's stream for the same threads
// and interval. It reports whether the replay ran to completion.
func Replay(logs []ThreadLog, interval int, sink BatchSink) bool {
	interval = max(interval, 1)
	pos := make([]int, len(logs))
	live := len(logs)
	for live > 0 {
		live = 0
		for i := range logs {
			n := len(logs[i].Accesses)
			if pos[i] >= n {
				continue
			}
			end := min(pos[i]+interval, n)
			if !sink(logs[i].Thread, logs[i].Accesses[pos[i]:end]) {
				return false
			}
			pos[i] = end
			if pos[i] < n {
				live++
			}
		}
	}
	return true
}

// TotalAccesses sums the log lengths.
func TotalAccesses(logs []ThreadLog) uint64 {
	var n uint64
	for _, l := range logs {
		n += uint64(len(l.Accesses))
	}
	return n
}

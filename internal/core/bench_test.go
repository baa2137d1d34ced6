package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// The CentralQueue layer benchmarks, at a small cluster, the
// multi-scheduler operating point (12 k servers) and the Figure 6 sweep's
// largest cluster (170 k servers). Each runs on a loaded queue: every
// server carries queued work, and half of them have a task running.
var centralQueueBenchSizes = []int{1000, 12000, 170000}

// loadedCentralQueue returns a queue over ids 0..n-1 in that loaded state
// at instant 0, plus the ids of the running servers.
func loadedCentralQueue(n int) (*CentralQueue, []int) {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	q := NewCentralQueue(ids)
	rng := rand.New(rand.NewSource(1))
	var running []int
	for id := range ids {
		q.AddLoad(id, 0, rng.Float64()*100)
		if id%2 == 0 {
			q.TaskStarted(id, 0, 0, 1+rng.Float64()*1000)
			running = append(running, id)
		}
	}
	return q, running
}

// BenchmarkCentralQueueAssign measures one min-waiting placement: pick the
// better heap root, charge it the task and sift it back down.
func BenchmarkCentralQueueAssign(b *testing.B) {
	for _, n := range centralQueueBenchSizes {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			q, _ := loadedCentralQueue(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Assign(0, float64(1+i%7))
			}
		})
	}
}

// BenchmarkCentralQueueTaskFinished measures one task-lifecycle cycle on a
// running server: TaskFinished moves it to the idle heap and TaskStarted
// moves it back, so the loaded state holds across iterations.
func BenchmarkCentralQueueTaskFinished(b *testing.B) {
	for _, n := range centralQueueBenchSizes {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			q, running := loadedCentralQueue(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := running[i%len(running)]
				q.TaskFinished(id, 0)
				q.TaskStarted(id, 0, 0, float64(1+i%1000))
			}
		})
	}
}

// BenchmarkCentralQueueSyncFrom measures one snapshot refresh: a mirror of
// the same cluster catches up to the loaded truth queue.
func BenchmarkCentralQueueSyncFrom(b *testing.B) {
	for _, n := range centralQueueBenchSizes {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			truth, _ := loadedCentralQueue(n)
			mirror, _ := loadedCentralQueue(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mirror.SyncFrom(truth)
			}
		})
	}
}

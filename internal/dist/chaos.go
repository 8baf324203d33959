package dist

import (
	"context"
	"os"
	"sync"
)

// Executor-side chaos: the fault-tolerance claims of the coordinator
// are only credible if tests can make real executors die in realistic
// ways. A task may therefore carry TEST-ONLY chaos knobs — die after N
// records, or wedge (stop emitting anything, including heartbeats)
// after N records — honored solely by processes that opt in
// (cmd/ctrlexec), never by the in-process Engine, and only on the
// shard's first lease so the re-leased attempt completes.

// chaosExitCode is a ctrlexec process's self-kill exit status,
// 128+SIGKILL by convention — from the coordinator's side the process
// death is indistinguishable from an external kill -9, which the chaos
// suite also delivers for real through Pool.OnLease.
const chaosExitCode = 137

// withChaos wraps emit with the task's chaos knobs. With no knobs set,
// chaos disallowed, or a re-leased attempt, emit is returned untouched.
func withChaos(task ShardTask, allow bool, emit func(Event)) func(Event) {
	if !allow || task.Attempt > 0 || (task.ChaosKillAfter <= 0 && task.ChaosHangAfter <= 0) {
		return emit
	}
	var (
		mu      sync.Mutex
		records int
		wedged  bool
	)
	return func(ev Event) {
		mu.Lock()
		if wedged {
			mu.Unlock()
			select {} // wedge: no more events, no more heartbeats, ever
		}
		if ev.Type == EventRecord {
			records++
		}
		kill := task.ChaosKillAfter > 0 && records >= task.ChaosKillAfter
		if task.ChaosHangAfter > 0 && records >= task.ChaosHangAfter {
			wedged = true
		}
		mu.Unlock()
		emit(ev)
		if kill {
			os.Exit(chaosExitCode) // dies mid-shard, stream cut short
		}
	}
}

// ServeShard is the executor-side main loop behind ShardHandler:
// keep-alive beats while the engine works, the shard run itself, and a
// terminal error event when it fails. Calls to emit are serialised by
// the handler's encoder; chaos knobs apply only when allowChaos is set.
func ServeShard(ctx context.Context, task ShardTask, allowChaos bool, emit func(Event)) error {
	emit = withChaos(task, allowChaos, emit)
	stop := keepAlive(ctx, task.Shard, emit)
	defer stop()
	if err := RunShard(ctx, task, emit); err != nil {
		emit(Event{Type: EventError, Shard: task.Shard, Error: err.Error()})
		return err
	}
	return nil
}

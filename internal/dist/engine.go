package dist

import (
	"context"
	"fmt"
	"sync"

	"ctrlguard/internal/goofi"
)

// RunShard executes one shard task in-process through the goofi engine
// and streams its events to emit. It is the single execution path every
// transport shares: cmd/ctrlexec calls it behind HTTP (ShardHandler),
// and Engine calls it directly for executor-less (in-process) runs and
// tests. Calls to emit are serialised.
//
// The engine's own guarantees carry over verbatim: records are
// byte-identical to the solo run's (warm start, pruning and all), and
// task.Resume records matching the deterministic plan are reused
// without being re-executed or re-streamed.
func RunShard(ctx context.Context, task ShardTask, emit func(Event)) error {
	return runShard(ctx, task, nil, emit)
}

// runShard is RunShard with an optional configure hook applied to the
// resolved engine config.
func runShard(ctx context.Context, task ShardTask, configure func(*goofi.Config), emit func(Event)) error {
	cfg, err := task.Spec.Resolve()
	if err != nil {
		return err
	}
	if task.Spec.Sequential() {
		return fmt.Errorf("dist: precision-driven campaigns cannot shard (their experiment count is not fixed in advance)")
	}
	if configure != nil {
		configure(&cfg)
	}
	cfg.Shard = &goofi.Shard{Start: task.Start, End: task.End}
	cfg.Resume = task.Resume

	var (
		mu   sync.Mutex
		done int
	)
	cfg.OnResume = func(recs []goofi.Record) {
		mu.Lock()
		done += len(recs)
		d := done
		mu.Unlock()
		// Resumed records are already in the coordinator's segment; a
		// beat reports the head start without re-streaming them.
		emit(Event{Type: EventBeat, Shard: task.Shard, Done: d})
	}
	cfg.OnRecord = func(rec goofi.Record) {
		mu.Lock()
		done++
		d := done
		r := rec
		mu.Unlock()
		emit(Event{Type: EventRecord, Shard: task.Shard, Done: d, Record: &r})
	}

	res, err := goofi.RunContext(ctx, cfg)
	if err != nil {
		return err
	}
	emit(Event{Type: EventDone, Shard: task.Shard, Done: done, Result: &res.Stats})
	return nil
}

// Engine is the in-process Executor: shard tasks run on this process's
// goofi engine with no isolation boundary. It is how a server without
// executors runs every campaign (as one shard), and the reference
// implementation the transported executors are tested against.
type Engine struct {
	// Configure, if non-nil, adjusts every shard's resolved engine
	// config before it runs. TEST-ONLY: the server's chaos harness
	// plants worker panics and hangs through it.
	Configure func(*goofi.Config)
}

// Name implements Executor.
func (Engine) Name() string { return "inproc" }

// Run implements Executor. It beats like a transported executor, so a
// shard whose engine is busy without finishing a record (the golden
// run, a long experiment) keeps its lease.
func (e Engine) Run(ctx context.Context, task ShardTask, sink func(Event)) error {
	var mu sync.Mutex
	emit := func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		sink(ev)
	}
	stop := keepAlive(ctx, task.Shard, emit)
	defer stop()
	return runShard(ctx, task, e.Configure, emit)
}

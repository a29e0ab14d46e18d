package main

import (
	"context"
	"fmt"
	"time"

	"guava/internal/etl"
	"guava/internal/relstore"
	"guava/internal/workload"
)

// refreshTick is the warehouse's periodic inclusion while clinicians keep
// entering data: each tick applies a seeded mutation batch through the
// contributors' pattern stacks, timing every write, then runs the journal
// driven delta refresh. It uses the patterns layer for writes and keyed
// reads, never full-view reads.
type refreshTick struct {
	seed      int64
	contribs  []*workload.Contributor
	names     map[string]*workload.Contributor
	spec      *etl.StudySpec
	compiled  *etl.Compiled
	warehouse *relstore.DB
	cursors   *etl.DeltaCursors

	write, delta dist // write: each tick's mean write
	mutations    int
	keys         int64
	busy         float64
	fullMs       float64
}

const (
	refreshTickRecords = 5000
	tickMutations      = 24
)

func newRefreshTick(string) bench { return &refreshTick{} }

// setup builds the contributors, compiles the study, pins the journal
// cursors and runs the initial full refresh, as `runstudy -refresh` does.
func (b *refreshTick) setup(seed int64) error {
	ctx := context.Background()
	b.seed = seed
	var err error
	if b.contribs, b.spec, err = buildMixed(seed, refreshTickRecords); err != nil {
		return err
	}
	b.names = byName(b.contribs)
	if b.compiled, err = etl.Compile(b.spec); err != nil {
		return err
	}
	b.warehouse = relstore.NewDB("warehouse")
	b.cursors = etl.NewDeltaCursors()
	if err := b.compiled.SeedDeltaCursors(b.cursors); err != nil {
		return err
	}
	_, err = b.compiled.RefreshContext(ctx, b.warehouse, etl.RunPolicy{})
	return err
}

// warmOps: the first delta tick builds the warehouse's EntityKey and
// Contributor indexes.
func (b *refreshTick) warmOps() int { return 2 }

func (b *refreshTick) step(ctx context.Context, tr *tracer, op int64) error {
	root := tr.begin(op, 0, "tick")
	defer tr.end(root)
	batch := workload.RandomBatch(b.contribs, b.seed<<20+op, tickMutations)
	var writes time.Duration
	for _, m := range batch {
		d, err := applyOne(tr, op, root, b.names, m)
		if err != nil {
			return err
		}
		writes += d
	}
	// Single writes are multimodal (an insert takes ~0.06 ms, a table update
	// ~2 ms), so a per-write median sits between modes and jumps; the
	// batch's mean write is one steady sample per tick.
	b.write.add(writes / tickMutations)
	b.mutations += tickMutations
	b.busy += float64(writes) / float64(time.Millisecond)
	octx, o := tr.opContext(ctx)
	id := tr.begin(op, root, "Compiled.RefreshDelta")
	t0 := time.Now()
	rep, err := b.compiled.RefreshDelta(octx, b.warehouse, etl.DeltaOptions{Cursors: b.cursors})
	d := time.Since(t0)
	tr.end(id)
	tr.adopt(op, id, o)
	if err != nil {
		return err
	}
	b.delta.add(d)
	b.busy += float64(d) / float64(time.Millisecond)
	b.keys += int64(rep.Keys)
	return nil
}

func (b *refreshTick) reset() {
	b.write, b.delta, b.mutations, b.keys, b.busy = dist{}, dist{}, 0, 0, 0
}

func (b *refreshTick) units() int      { return b.mutations }
func (b *refreshTick) busyMs() float64 { return b.busy }

func (b *refreshTick) endToEnd(rates *dist) []e2e {
	return []e2e{
		{pct("write_p50_us", "us", &b.write, 0.5, 1000), "fast_p50_us"},
		{pct("refresh_p50_ms", "ms", &b.delta, 0.5, 1), "main_p50_ms"},
		{pct("refresh_p90_ms", "ms", &b.delta, 0.9, 1), "main_p90_ms"},
		{pct("mutations_per_s", "1/s", rates, 0.5, 1), "ops_per_s"},
	}
}

// finish checks delta ≡ full: a full refresh of a freshly compiled plan into
// an empty warehouse equals the warehouse the delta ticks maintained.
func (b *refreshTick) finish(ctx context.Context, tr *tracer) []string {
	compiled, err := etl.Compile(b.spec)
	if err != nil {
		return []string{err.Error()}
	}
	fresh := relstore.NewDB("fresh")
	octx, o := tr.opContext(ctx)
	id := tr.begin(0, 0, "Compiled.RefreshContext")
	t0 := time.Now()
	_, err = compiled.RefreshContext(octx, fresh, etl.RunPolicy{})
	b.fullMs = float64(time.Since(t0)) / float64(time.Millisecond)
	tr.end(id)
	tr.adopt(0, id, o)
	if err != nil {
		return []string{err.Error()}
	}
	got, err := tableDigest(b.warehouse, b.compiled.Output.Table)
	if err != nil {
		return []string{err.Error()}
	}
	want, err := tableDigest(fresh, compiled.Output.Table)
	if err != nil {
		return []string{err.Error()}
	}
	if got != want {
		return []string{"delta-maintained warehouse differs from a full refresh into a fresh warehouse"}
	}
	return nil
}

func tableDigest(db *relstore.DB, name string) ([32]byte, error) {
	t, err := db.Table(name)
	if err != nil {
		return [32]byte{}, err
	}
	return canonicalDigest(t.Rows())
}

func (b *refreshTick) layers(tr *tracer, _ map[string]int64, _ int64) []metric {
	ticks := int64(b.delta.n())
	return append(writeLayers(tr),
		pct("etl.delta_ms", "ms", tr.each(named("refresh-delta ")), 0.5, 1),
		scalar("etl.delta_keys_per_tick", "count", ratio(b.keys, ticks)),
		scalar("etl.delta_keys_per_mutation", "ratio", ratio(b.keys, ticks*tickMutations)),
		scalar("etl.full_refresh_ms", "ms", b.fullMs),
	)
}

func (b *refreshTick) counts(delta map[string]int64) []string {
	return []string{
		fmt.Sprintf("ticks=%d mutations=%d delta_keys=%d", b.delta.n(), b.mutations, b.keys),
		"refresh.delta: " + listPrefix(delta, "refresh.delta."),
		"relstore.ops: " + listPrefix(delta, "relstore.ops."),
	}
}

func (b *refreshTick) close() {}

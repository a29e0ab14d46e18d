package serve

import (
	"context"
	"fmt"

	"guava/internal/etl"
	"guava/internal/obs"
)

// The serving daemon's background cadence is where incremental refresh pays
// off: instead of re-running every study's full plan on every tick, the loop
// polls each contributor journal's high-water mark (an O(1) read), skips
// studies whose warehouses are already current, and refreshes dirty ones
// from the delta alone. Cache invalidation is partitioned to match: a delta
// that touched only contributor X bumps X's partition generation, so
// extracts pinned to other contributors keep their cached bodies.

// deltaCapable reports whether every contributor of the spec exposes a
// change journal — the precondition for etl.RefreshDelta.
func deltaCapable(spec *etl.StudySpec) bool {
	if len(spec.Contributors) == 0 {
		return false
	}
	for _, c := range spec.Contributors {
		if c.DeltaSource() == nil {
			return false
		}
	}
	return true
}

// studyDirty reports whether any contributor journal has advanced past the
// study's applied cursors — without reading a single changed key.
func studyDirty(spec *etl.StudySpec, cursors *etl.DeltaCursors) (bool, error) {
	for _, c := range spec.Contributors {
		src := c.DeltaSource()
		if src == nil {
			return true, nil
		}
		hwm, err := src.HighWaterMark()
		if err != nil {
			return true, err
		}
		if hwm != cursors.Get(c.Name) {
			return true, nil
		}
	}
	return false, nil
}

// refreshDelta refreshes one study from its contributors' change journals.
// The whole delta — journal scan, keyed re-extract, warehouse patch — is
// applied to a private copy of the current generation's table, then
// published with one pointer swap. Concurrent extracts keep reading the
// pinned previous generation throughout; no reader ever observes a
// partially-patched partition.
func (s *Server) refreshDelta(ctx context.Context, st *servedStudy, kind string) (etl.RefreshStats, error) {
	st.refreshMu.Lock()
	defer st.refreshMu.Unlock()

	ctx = s.observe(ctx)
	ctx, span := obs.StartSpan(ctx, "serve.refresh-delta "+st.name,
		obs.String("study", st.name), obs.String("kind", kind))
	var stats etl.RefreshStats
	var err error
	defer func() {
		span.EndErr(err)
		st.noteRefresh(err)
	}()

	cur := st.cur.Load()
	if cur == nil || cur.cursors == nil {
		err = fmt.Errorf("serve: study %q has no delta cursors (needs a full refresh first)", st.name)
		return stats, err
	}
	compiled, perr := s.plans.get(st.spec)
	if perr != nil {
		err = perr
		return stats, err
	}

	// Clone the cursors (the published generation's set stays frozen) and
	// stage the patch in a private warehouse holding a copy of the table.
	cursors := etl.NewDeltaCursors()
	for name, seq := range cur.cursors.Snapshot() {
		cursors.Set(name, seq)
	}
	staging, next, serr := stage(st, cur, compiled)
	if serr != nil {
		err = serr
		return stats, err
	}

	report, rerr := compiled.RefreshDelta(ctx, staging, etl.DeltaOptions{Cursors: cursors})
	if rerr != nil {
		err = rerr
		return stats, err
	}
	stats = report.Stats

	var changedParts []string
	for name, cs := range report.ByContributor {
		if cs.Changed() {
			changedParts = append(changedParts, name)
		}
	}
	g := nextGeneration(st, cur, next, false, changedParts)
	g.cursors = cursors
	g.stats = stats
	s.persist(st, g, len(changedParts) > 0)
	s.publish(st, g)

	s.metrics().Counter("serve.refresh.delta").Inc()
	span.SetAttr(obs.Int("keys", int64(report.Keys)), obs.Int("added", int64(stats.Added)),
		obs.Int("updated", int64(stats.Updated)), obs.Int("generation", g.num))
	return stats, nil
}

// refreshAuto is the background loop's policy: full refresh for studies
// without journals, nothing for clean studies, delta for dirty ones, full
// as the fallback when the delta path fails.
func (s *Server) refreshAuto(ctx context.Context, st *servedStudy, kind string) {
	cur := st.cur.Load()
	if cur == nil || cur.cursors == nil || !deltaCapable(st.spec) {
		_, _ = s.refresh(ctx, st, kind)
		return
	}
	if dirty, err := studyDirty(st.spec, cur.cursors); err == nil && !dirty {
		s.metrics().Counter("serve.refresh.clean").Inc()
		return
	}
	if _, err := s.refreshDelta(ctx, st, kind); err != nil {
		s.metrics().Counter("serve.refresh.delta.fallback").Inc()
		_, _ = s.refresh(ctx, st, kind)
	}
}

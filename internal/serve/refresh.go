package serve

import (
	"context"
	"fmt"
	"time"

	"guava/internal/etl"
	"guava/internal/obs"
	"guava/internal/relstore"
)

// refresh re-runs st's plan and builds the study's next generation
// side-by-side: etl's RefreshContext patches a staged copy of the current
// table, and only then does one atomic pointer swap publish it. Extract
// readers keep serving the pinned previous generation for the whole build —
// they never block on the plan, the patch, or the persist. The study
// generation advances only when the refresh changed data, which is what
// keeps cached extracts valid across no-op refreshes (a no-op republishes
// under the same number, inheriting the on-disk directory).
func (s *Server) refresh(ctx context.Context, st *servedStudy, kind string) (etl.RefreshStats, error) {
	st.refreshMu.Lock()
	defer st.refreshMu.Unlock()

	ctx = s.observe(ctx)
	ctx, span := obs.StartSpan(ctx, "serve.refresh "+st.name,
		obs.String("study", st.name), obs.String("kind", kind))
	var stats etl.RefreshStats
	var err error
	defer func() {
		span.EndErr(err)
		st.noteRefresh(err)
	}()

	compiled, err := s.plans.get(st.spec)
	if err != nil {
		return stats, err
	}
	cur := st.cur.Load()
	staging, next, err := stage(st, cur, compiled)
	if err != nil {
		return stats, err
	}
	// Seed delta cursors BEFORE running the plan: a journal entry landing
	// while the plan executes then stays below the cursor and is picked up
	// by the next delta (re-applying anything the plan already saw is
	// idempotent). Seeding after the run would silently skip it.
	var cursors *etl.DeltaCursors
	if deltaCapable(st.spec) {
		cursors = etl.NewDeltaCursors()
		if serr := compiled.SeedDeltaCursors(cursors); serr != nil {
			cursors = nil
		}
	}
	stats, err = compiled.RefreshContext(ctx, staging, s.cfg.Policy)
	if err != nil {
		return stats, err
	}

	g := nextGeneration(st, cur, next, stats.Changed(), nil)
	if cursors != nil {
		g.cursors = cursors
	}
	g.stats = stats
	s.persist(st, g, stats.Changed())
	s.publish(st, g)

	span.SetAttr(obs.Int("added", int64(stats.Added)), obs.Int("updated", int64(stats.Updated)),
		obs.Int("unchanged", int64(stats.Unchanged)), obs.Int("removed", int64(stats.Removed)),
		obs.Int("generation", g.num))
	return stats, nil
}

// stage builds the private warehouse a refresh patches: a copy of the
// current generation's table (empty before the first refresh) under the
// compiled output's name. The copy is what makes the swap safe — the
// published table is never mutated, so no reader observes a partial patch.
// Only the row slice is copied: stored rows are immutable, so the two
// tables share them.
func stage(st *servedStudy, cur *generation, compiled *etl.Compiled) (*relstore.DB, *relstore.Table, error) {
	schema, err := compiled.Spec.OutputSchema()
	if err != nil {
		return nil, nil, err
	}
	if cur != nil && !cur.table.Schema().Equal(schema) {
		return nil, nil, fmt.Errorf("serve: study %q refresh produced a different schema", st.name)
	}
	staging := relstore.NewDB("warehouse_" + st.name)
	rows := &relstore.Rows{Schema: schema}
	if cur != nil {
		rows.Data = cur.table.Rows().Data
	}
	next, err := staging.Replace(compiled.Output.Table, rows)
	if err != nil {
		return nil, nil, err
	}
	return staging, next, nil
}

// nextGeneration assembles the successor generation object. A full refresh
// that changed data advances the study number and every partition; a delta
// advances only changedParts. An unchanged build keeps the number and
// inherits the previous on-disk directory — same data, still recoverable.
func nextGeneration(st *servedStudy, cur *generation, table *relstore.Table, changedAll bool, changedParts []string) *generation {
	g := &generation{table: table, partGens: map[string]int64{}, owner: st}
	if cur != nil {
		g.num = cur.num
		g.cursors = cur.cursors
		for k, v := range cur.partGens {
			g.partGens[k] = v
		}
	}
	switch {
	case changedAll:
		g.num++
		for _, c := range st.spec.Contributors {
			g.partGens[c.Name]++
		}
	case len(changedParts) > 0:
		g.num++
		for _, name := range changedParts {
			g.partGens[name]++
		}
	default:
		if cur != nil {
			g.dir = cur.dir
		}
	}
	return g
}

// persist durably saves a data-changing generation. A failed save is
// logged and counted but does not fail the refresh: the in-memory swap
// still happens, and the previous on-disk generation survives as the last
// complete one (collect() keeps it while the current generation has no
// directory of its own).
func (s *Server) persist(st *servedStudy, g *generation, changed bool) {
	if st.store == nil || (!changed && g.dir != "") {
		return
	}
	if !changed && g.num == 0 {
		return // nothing ever changed and nothing is on disk: no state worth saving
	}
	if err := st.store.save(g, st.refreshes.Load()+1); err != nil {
		s.metrics().Counter("serve.snapshot.persist.errors").Inc()
		s.logf("serve: study %q failed to persist generation %d: %v", st.name, g.num, err)
		return
	}
	s.metrics().Counter("serve.snapshot.persist").Inc()
}

// refreshLoop periodically refreshes one study until stop closes. Errors
// are recorded on the study (visible in /studies as lastError) and the
// loop keeps going — a transiently failing contributor must not kill the
// refresh cadence.
func (s *Server) refreshLoop(st *servedStudy, stop <-chan struct{}) {
	defer s.loopWG.Done()
	tick := time.NewTicker(s.cfg.RefreshInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			s.metrics().Counter("serve.refresh.background").Inc()
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
			s.refreshAuto(ctx, st, "background")
			cancel()
		}
	}
}

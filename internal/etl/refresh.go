package etl

import (
	"context"
	"fmt"
	"sort"

	"guava/internal/obs"
	"guava/internal/relstore"
)

// The paper's warehouse receives contributor data periodically ("Data from
// the CORI software tool is periodically sent for inclusion in the CORI
// warehouse"). A refresh recomputes study rows through the compiled select
// and classify stages and patches them into a persistent warehouse table
// keyed by (Contributor, EntityKey): new entities insert, changed entities
// are replaced, unchanged entities are left alone — so annotations and
// downstream extracts can rely on stable history. The full refresh
// (RefreshContext) and the delta refresh (RefreshDelta) share one patch and
// differ only in its key scope: every key of a contributor, or the keys its
// change journal recorded.

// RefreshStats summarizes one warehouse refresh.
type RefreshStats struct {
	Added     int
	Updated   int
	Unchanged int
	Removed   int // warehouse rows deleted because their entity left the study output
	Total     int
}

// Changed reports whether the refresh wrote anything — the signal serving
// layers use to decide whether cached extracts are stale.
func (s RefreshStats) Changed() bool { return s.Added > 0 || s.Updated > 0 || s.Removed > 0 }

// String renders the stats for CLI output.
func (s RefreshStats) String() string {
	out := fmt.Sprintf("%d rows: %d added, %d updated, %d unchanged", s.Total, s.Added, s.Updated, s.Unchanged)
	if s.Removed > 0 {
		out += fmt.Sprintf(", %d removed", s.Removed)
	}
	return out
}

// RefreshContext re-runs the study through the resilient executor under a
// RunPolicy (retries, timeouts, quarantine, checkpoints, graceful
// degradation all apply), honoring ctx cancellation, and patches the output
// into warehouse table "Study_<name>", creating it on first refresh. Every
// contributor that ran is patched over its full key scope, so the warehouse
// converges to the study output: entities the run no longer produces
// (deprecated rows, entities that fell out of the selection) are removed. A
// degraded run's dead contributors are not patched at all — their existing
// warehouse history is left untouched, never deleted, the stable-history
// contract of the CORI warehouse.
//
// The refresh publishes refresh.runs/added/updated/unchanged/removed
// counters into the metrics registry carried by ctx (obs.MetricsFrom), so
// both the batch CLI and the serving daemon account refresh traffic the same
// way.
func (c *Compiled) RefreshContext(ctx context.Context, warehouse *relstore.DB, policy RunPolicy) (RefreshStats, error) {
	var stats RefreshStats
	ctx, span := obs.StartSpan(ctx, "refresh "+c.Spec.Name, obs.String("study", c.Spec.Name))
	var err error
	defer func() { span.EndErr(err) }()
	var fresh *relstore.Rows
	var runReport *RunReport
	fresh, runReport, err = c.RunResilient(ctx, policy, 0)
	if err != nil {
		return stats, err
	}
	table, err := c.warehouseTable(warehouse)
	if err != nil {
		return stats, err
	}
	stats, err = merge(table, fresh, runReport.DegradedContributors...)
	if err != nil {
		return stats, err
	}
	m := obs.MetricsFrom(ctx)
	m.Counter("refresh.runs").Inc()
	m.Counter("refresh.added").Add(int64(stats.Added))
	m.Counter("refresh.updated").Add(int64(stats.Updated))
	m.Counter("refresh.unchanged").Add(int64(stats.Unchanged))
	m.Counter("refresh.removed").Add(int64(stats.Removed))
	span.SetAttr(obs.Int("added", int64(stats.Added)), obs.Int("updated", int64(stats.Updated)),
		obs.Int("unchanged", int64(stats.Unchanged)), obs.Int("removed", int64(stats.Removed)))
	return stats, nil
}

// warehouseTable returns the study's warehouse table, creating it on first
// refresh, with the (EntityKey, Contributor) indexes the patch probes by.
func (c *Compiled) warehouseTable(warehouse *relstore.DB) (*relstore.Table, error) {
	schema, err := c.Spec.OutputSchema()
	if err != nil {
		return nil, err
	}
	table, err := warehouse.EnsureTable(c.Output.Table, schema)
	if err != nil {
		return nil, err
	}
	for _, col := range []string{EntityKeyColumn, ContributorColumn} {
		if err := table.CreateIndex(col); err != nil {
			return nil, err
		}
	}
	return table, nil
}

// merge patches a full study relation into the warehouse: every contributor
// that fresh or the warehouse holds is patched over all of its keys, so
// warehouse groups the run no longer produced are removed. The exception is
// keepContributors — the contributors a degraded run lost
// (RunReport.DegradedContributors), which produced no rows — whose absence
// from fresh means "didn't run", not "has no data": they are skipped, and
// their history stays verbatim.
func merge(table *relstore.Table, fresh *relstore.Rows, keepContributors ...string) (RefreshStats, error) {
	var stats RefreshStats
	keep := make(map[string]bool, len(keepContributors))
	for _, name := range keepContributors {
		keep[relstore.Str(name).Key()] = true
	}
	// Contributors in fresh order, then those only the warehouse holds.
	var names []relstore.Value
	rows := map[string][]relstore.Row{}
	note := func(v relstore.Value) string {
		k := v.Key()
		if _, seen := rows[k]; !seen {
			names = append(names, v)
			rows[k] = nil
		}
		return k
	}
	for _, r := range fresh.Data {
		k := note(r[1])
		rows[k] = append(rows[k], r)
	}
	var last relstore.Value // NULL: equal to no contributor
	table.Scan(func(r relstore.Row) bool {
		if !r[1].Equal(last) {
			last = r[1]
			note(last)
		}
		return true
	})
	for _, name := range names {
		if keep[name.Key()] {
			continue
		}
		s, err := patch(table, name, rows[name.Key()], nil)
		if err != nil {
			return stats, err
		}
		stats.add(s)
	}
	return stats, nil
}

func (s *RefreshStats) add(o RefreshStats) {
	s.Added += o.Added
	s.Updated += o.Updated
	s.Unchanged += o.Unchanged
	s.Removed += o.Removed
	s.Total += o.Total
}

// patch is the one warehouse write of both refresh modes. It brings one
// contributor's warehouse groups in line with fresh, the contributor's
// recomputed study rows, over a key scope: the entity keys fresh holds plus
// scope, or — when scope is nil — every key the warehouse holds for the
// contributor too. A full refresh passes nil; a delta refresh passes the
// journal's changed keys, and warehouse groups outside them stay untouched.
//
// Both sides group by entity key and compare as multisets, so re-patching
// identical input is a no-op whatever order duplicates (a has-a child join)
// arrive in. Groups absent from the warehouse insert, identical groups are
// left alone, changed groups are replaced, and in-scope groups fresh no
// longer holds are removed. Existing groups arrive through one indexed
// select; all replaced and removed groups leave in one Delete and all new
// rows land in one InsertAll, in fresh order.
func patch(table *relstore.Table, contributor relstore.Value, fresh []relstore.Row, scope []relstore.Value) (RefreshStats, error) {
	stats := RefreshStats{Total: len(fresh)}
	var order []relstore.Value
	groups := map[string][]relstore.Row{}
	for _, r := range fresh {
		k := r[0].Key()
		if _, seen := groups[k]; !seen {
			order = append(order, r[0])
		}
		groups[k] = append(groups[k], r)
	}
	var where relstore.Pred = relstore.Eq(ContributorColumn, contributor)
	if scope != nil {
		where = groupsPred(contributor, append(append([]relstore.Value(nil), order...), scope...))
	}
	existing, err := table.Select(where)
	if err != nil {
		return stats, err
	}
	old := map[string][]relstore.Row{}
	var stale []relstore.Value
	for _, r := range existing.Data {
		k := r[0].Key()
		if _, seen := old[k]; !seen && groups[k] == nil {
			stale = append(stale, r[0])
		}
		old[k] = append(old[k], r)
	}

	var doomed []relstore.Value
	var toInsert []relstore.Row
	for _, key := range order {
		group, prev := groups[key.Key()], old[key.Key()]
		switch {
		case len(prev) == 0:
			toInsert = append(toInsert, group...)
			stats.Added += len(group)
		case sameRowSet(prev, group):
			stats.Unchanged += len(group)
		default:
			doomed = append(doomed, key)
			toInsert = append(toInsert, group...)
			stats.Updated += len(group)
		}
	}
	for _, key := range stale {
		doomed = append(doomed, key)
		stats.Removed += len(old[key.Key()])
	}
	if len(doomed) > 0 {
		if _, err := table.Delete(groupsPred(contributor, doomed)); err != nil {
			return stats, err
		}
	}
	if len(toInsert) > 0 {
		if err := table.InsertAll(toInsert); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// groupsPred matches one contributor's rows with the given entity keys. The
// contributor test is a one-element IN rather than an equality so Select
// and Delete probe the entity-key index key by key, instead of preferring
// the contributor equality and scanning that contributor's whole bucket.
func groupsPred(contributor relstore.Value, keys []relstore.Value) relstore.Pred {
	return relstore.And(
		relstore.In(relstore.Col(EntityKeyColumn), keys...),
		relstore.In(relstore.Col(ContributorColumn), contributor),
	)
}

// sameRowSet compares two row groups as multisets, order-independently.
func sameRowSet(a, b []relstore.Row) bool {
	if len(a) != len(b) {
		return false
	}
	ka := relstore.ParallelRowKeys(a, relstore.Row.Key)
	kb := relstore.ParallelRowKeys(b, relstore.Row.Key)
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

package etl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"guava/internal/obs"
	"guava/internal/patterns"
	"guava/internal/relstore"
)

// The full refresh re-extracts every contributor relation on every run — the
// paper's "periodically sent for inclusion in the CORI warehouse" batch. As
// the warehouse grows, that cost grows with it even when almost nothing
// changed. The delta path here keeps refresh latency proportional to the
// change set instead: each contributor's pattern stack journals the instance
// keys it touches (patterns.Journal), RefreshDelta re-reads only those keys,
// runs them through the same compiled select and classify queries, and hands
// the result to the same warehouse patch with the changed keys as its scope
// — so deltaRefresh(w, d) is observationally identical to
// fullRefresh(apply(w, d)).

// DeltaSource is a contributor's changed-row feed: a monotone high-water
// mark plus the distinct instance keys recorded past a cursor. It is the
// queryable form of the Audit pattern's per-row change timestamps.
type DeltaSource interface {
	// HighWaterMark returns the feed's current position without reading
	// any keys — cheap enough to poll for dirtiness.
	HighWaterMark() (int64, error)
	// ChangedSince returns the distinct keys recorded in (since, hwm] and
	// the hwm the caller's cursor should advance to after applying them.
	ChangedSince(since int64) ([]relstore.Value, int64, error)
}

// ErrNoDeltaSource reports that a contributor's stack has no change journal,
// so only full recomputation can refresh it.
var ErrNoDeltaSource = errors.New("etl: contributor has no delta source (stack has no journal)")

// journalSource adapts a pattern stack's journal to DeltaSource.
type journalSource struct {
	j    *patterns.Journal
	db   *relstore.DB
	form patterns.FormInfo
}

func (s journalSource) HighWaterMark() (int64, error) {
	return s.j.HighWaterMark(s.db, s.form)
}

func (s journalSource) ChangedSince(since int64) ([]relstore.Value, int64, error) {
	return s.j.ChangedSince(s.db, s.form, since)
}

// DeltaSource returns the contributor's changed-row feed, or nil when its
// stack carries no journal (delta refresh is then impossible and callers
// must fall back to a full refresh).
func (c *ContributorPlan) DeltaSource() DeltaSource {
	if c.Stack == nil || c.Stack.Journal == nil {
		return nil
	}
	return journalSource{j: c.Stack.Journal, db: c.DB, form: c.Form}
}

// DeltaCursors holds the per-contributor high-water marks a study has applied
// so far. It is safe for concurrent use and serializes to JSON so a refresh
// daemon or CLI can persist its position alongside the warehouse, exactly the
// way run checkpoints persist partial workflow state.
type DeltaCursors struct {
	mu  sync.Mutex
	pos map[string]int64
}

// NewDeltaCursors returns an empty cursor set: every contributor starts at
// position 0, i.e. "everything ever journaled is new".
func NewDeltaCursors() *DeltaCursors {
	return &DeltaCursors{pos: make(map[string]int64)}
}

// Get returns the cursor for a contributor (0 when never set).
func (c *DeltaCursors) Get(contributor string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pos[contributor]
}

// Set advances (or rewinds) the cursor for a contributor.
func (c *DeltaCursors) Set(contributor string, seq int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pos[contributor] = seq
}

// Snapshot returns a copy of all cursors.
func (c *DeltaCursors) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.pos))
	for k, v := range c.pos {
		out[k] = v
	}
	return out
}

// Save writes the cursors as JSON with the temp+fsync+rename discipline, so
// a crash mid-save never leaves a truncated cursor file behind.
func (c *DeltaCursors) Save(path string) error { return c.SaveFS(nil, path) }

// SaveFS is Save through an explicit FS — the seam fault-injection tests
// use to tear the cursor write.
func (c *DeltaCursors) SaveFS(fsys FS, path string) error {
	data, err := json.MarshalIndent(c.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(fsys, path, append(data, '\n'))
}

// LoadDeltaCursors reads a cursor file written by Save. A missing file is not
// an error: it yields empty cursors, which makes the next delta refresh
// re-apply the whole journal — slower, never wrong (the patch is idempotent).
func LoadDeltaCursors(path string) (*DeltaCursors, error) { return LoadDeltaCursorsFS(nil, path) }

// LoadDeltaCursorsFS is LoadDeltaCursors through an explicit FS.
func LoadDeltaCursorsFS(fsys FS, path string) (*DeltaCursors, error) {
	data, err := fsOrOS(fsys).ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return NewDeltaCursors(), nil
	}
	if err != nil {
		return nil, err
	}
	pos := make(map[string]int64)
	if err := json.Unmarshal(data, &pos); err != nil {
		return nil, fmt.Errorf("etl: cursor file %s: %w", path, err)
	}
	return &DeltaCursors{pos: pos}, nil
}

// SeedDeltaCursors positions the cursors at every contributor's current
// high-water mark — the right starting point immediately after a full
// refresh, when the warehouse already reflects everything journaled so far.
// Contributors without a delta source are skipped.
func (c *Compiled) SeedDeltaCursors(cursors *DeltaCursors) error {
	for _, ct := range c.Spec.Contributors {
		src := ct.DeltaSource()
		if src == nil {
			continue
		}
		hwm, err := src.HighWaterMark()
		if err != nil {
			return fmt.Errorf("etl: seed cursor %q: %w", ct.Name, err)
		}
		cursors.Set(ct.Name, hwm)
	}
	return nil
}

// DeltaHooks are test seams around the warehouse patch of each contributor
// with a non-empty delta. BeforeApply runs before any write lands; AfterApply
// runs after the patch but before the cursor advances — an error from either
// aborts the refresh with that contributor's cursor unmoved, so a resumed run
// re-reads and re-applies the same window (the patch is idempotent).
type DeltaHooks struct {
	BeforeApply func(contributor string) error
	AfterApply  func(contributor string) error
}

// DeltaOptions configures one delta refresh.
type DeltaOptions struct {
	// Cursors is the study's applied position per contributor (required).
	Cursors *DeltaCursors
	// Hooks wrap each contributor's warehouse patch.
	Hooks DeltaHooks
}

// DeltaReport summarizes one delta refresh. Stats is computed from the delta
// alone: Added and Updated match what a full refresh over the same warehouse
// would report, while Unchanged and Total count only the delta rows that were
// re-derived (a full refresh would also count every untouched row).
type DeltaReport struct {
	Stats RefreshStats
	// Keys is the number of distinct changed instance keys consumed.
	Keys int
	// ByContributor breaks the stats down per contributor.
	ByContributor map[string]RefreshStats
}

// RefreshDelta refreshes the warehouse from each contributor's change journal
// instead of re-running the study: changed keys are re-read through the
// pattern stack, run through the compiled select and classify queries, and
// patched into the warehouse over just those keys. A changed key whose
// recomputed group is empty (the entity was deprecated, or no longer selects
// as a study entity) has its warehouse group removed, exactly as a full
// refresh removes it; unchanged keys are never read or written.
//
// Every contributor must expose a DeltaSource; otherwise ErrNoDeltaSource is
// returned (wrapped with the contributor name) and the caller should fall
// back to RefreshContext.
//
// The refresh publishes refresh.delta.* counters into the metrics registry
// carried by ctx (obs.MetricsFrom), mirroring the full-refresh counters.
func (c *Compiled) RefreshDelta(ctx context.Context, warehouse *relstore.DB, opts DeltaOptions) (_ *DeltaReport, err error) {
	if opts.Cursors == nil {
		return nil, fmt.Errorf("etl: RefreshDelta %q: DeltaOptions.Cursors is required", c.Spec.Name)
	}
	ctx, span := obs.StartSpan(ctx, "refresh-delta "+c.Spec.Name, obs.String("study", c.Spec.Name))
	defer func() { span.EndErr(err) }()

	table, err := c.warehouseTable(warehouse)
	if err != nil {
		return nil, err
	}

	report := &DeltaReport{ByContributor: make(map[string]RefreshStats)}
	for _, ct := range c.Spec.Contributors {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		src := ct.DeltaSource()
		if src == nil {
			return nil, fmt.Errorf("etl: contributor %q: %w", ct.Name, ErrNoDeltaSource)
		}
		since := opts.Cursors.Get(ct.Name)
		keys, hwm, err := src.ChangedSince(since)
		if err != nil {
			return nil, fmt.Errorf("etl: delta %q: %w", ct.Name, err)
		}
		if len(keys) == 0 {
			// Nothing recorded past the cursor: advance it and move on
			// without touching the warehouse.
			opts.Cursors.Set(ct.Name, hwm)
			continue
		}
		report.Keys += len(keys)

		fresh, err := c.recomputeDelta(ctx, ct, keys)
		if err != nil {
			return nil, err
		}

		if opts.Hooks.BeforeApply != nil {
			if err := opts.Hooks.BeforeApply(ct.Name); err != nil {
				return nil, err
			}
		}
		stats, err := patch(table, relstore.Str(ct.Name), fresh, keys)
		if err != nil {
			return nil, err
		}
		if opts.Hooks.AfterApply != nil {
			if err := opts.Hooks.AfterApply(ct.Name); err != nil {
				return nil, err
			}
		}
		opts.Cursors.Set(ct.Name, hwm)

		report.ByContributor[ct.Name] = stats
		report.Stats.add(stats)
	}

	m := obs.MetricsFrom(ctx)
	m.Counter("refresh.delta.runs").Inc()
	m.Counter("refresh.delta.keys").Add(int64(report.Keys))
	m.Counter("refresh.delta.added").Add(int64(report.Stats.Added))
	m.Counter("refresh.delta.updated").Add(int64(report.Stats.Updated))
	m.Counter("refresh.delta.unchanged").Add(int64(report.Stats.Unchanged))
	m.Counter("refresh.delta.removed").Add(int64(report.Stats.Removed))
	if report.Keys == 0 {
		m.Counter("refresh.delta.empty").Inc()
	}
	span.SetAttr(obs.Int("keys", int64(report.Keys)),
		obs.Int("added", int64(report.Stats.Added)), obs.Int("updated", int64(report.Stats.Updated)),
		obs.Int("removed", int64(report.Stats.Removed)))
	return report, nil
}

// recomputeDelta runs one contributor's changed keys through the compiled
// select and classify stages — the very Query values the full workflow
// runs — after reading them back through the pattern stack, and returns the
// recomputed study rows in canonical order.
func (c *Compiled) recomputeDelta(ctx context.Context, ct *ContributorPlan, keys []relstore.Value) ([]relstore.Row, error) {
	rows, err := ct.Stack.ReadKeys(ct.DB, ct.Form, keys)
	if err != nil {
		return nil, fmt.Errorf("etl: delta read %q: %w", ct.Name, err)
	}
	st := c.stages[ct.Name]
	for _, q := range []*Query{st.sel, st.classify} {
		if rows, err = q.apply(ctx, rows); err != nil {
			return nil, fmt.Errorf("etl: delta %q: %w", ct.Name, err)
		}
	}
	if rows, err = c.canonical(rows); err != nil {
		return nil, err
	}
	return rows.Data, nil
}

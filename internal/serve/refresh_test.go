package serve

import (
	"context"
	"net/http"
	"testing"

	"guava/internal/etl"
	"guava/internal/obs"
	"guava/internal/relstore"
)

// TestFullRefreshMatchesRefreshContext pins that a forced full refresh over
// HTTP is etl's RefreshContext, not a copy of it: after a deprecation, the
// served warehouse equals RefreshContext run into a fresh database, and the
// removal is counted in refresh.removed like every other refresh counter.
func TestFullRefreshMatchesRefreshContext(t *testing.T) {
	o := obs.NewObserver()
	srv, spec, ts := newTestServer(t, Config{Observer: o})
	removed := o.Metrics.Counter("refresh.removed").Value()

	ca := spec.Contributors[0] // its stack carries an Audit layer
	if _, err := ca.Stack.Deprecate(ca.DB, ca.Form, relstore.Int(1)); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, ts.URL+"/studies/exsmoker/refresh")
	if code != http.StatusOK || body["mode"] != "full" || body["changed"] != true {
		t.Fatalf("forced full refresh = %d %v, want a data-changing full refresh", code, body)
	}
	if got := o.Metrics.Counter("refresh.removed").Value(); got != removed+1 {
		t.Errorf("refresh.removed = %d, want %d (one deprecated row)", got, removed+1)
	}

	compiled, err := etl.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	fresh := relstore.NewDB("fresh")
	if _, err := compiled.RefreshContext(context.Background(), fresh, etl.RunPolicy{}); err != nil {
		t.Fatal(err)
	}
	wantTable, err := fresh.Table(compiled.Output.Table)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := srv.study("exsmoker")
	sorted := func(tb *relstore.Table) *relstore.Rows {
		rows, err := relstore.SortBy(tb.Rows(), tb.Schema().Names()...)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	got, want := sorted(st.cur.Load().table), sorted(wantTable)
	if got.Len() != want.Len() {
		t.Fatalf("served warehouse = %d rows, RefreshContext = %d", got.Len(), want.Len())
	}
	for i := range got.Data {
		if got.Data[i].Key() != want.Data[i].Key() {
			t.Fatalf("row %d: served %v, RefreshContext %v", i, got.Data[i], want.Data[i])
		}
	}
}

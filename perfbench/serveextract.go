package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"guava/internal/etl"
	"guava/internal/obs"
	"guava/internal/serve"
	"guava/internal/workload"
)

// serveExtract is the reader's path through studyd: one serve.Server over a
// WarehouseDir, so the crash-consistent generation store is on, driven
// in-process through its HTTP handler. The caller replays the seeded
// workload.ExtractRequests mix; after every churnEvery extracts it applies
// churnMutations contributor writes and POSTs a delta refresh.
type serveExtract struct {
	out      string // parent of the warehouse temp dirs
	seed     int64
	contribs []*workload.Contributor
	names    map[string]*workload.Contributor
	spec     *etl.StudySpec
	dir      string
	srv      *serve.Server
	h        http.Handler
	urls     []string
	relOps   []*obs.Counter

	recover                   dist // restart recovery, one sample per setup
	hit, miss, write, refresh dist
	hits, misses, extracts    int
	missOps                   int64 // relstore operator calls made by misses
	busy                      float64
	lastGen                   map[string]int64
	finalRows                 int
}

const (
	serveRecords   = 2000
	mixSize        = 10000
	churnEvery     = 50
	churnMutations = 8
	studyName      = "reference"
)

func newServeExtract(out string) bench { return &serveExtract{out: out} }

// setup builds the contributors, boots a server that runs the initial full
// refresh and persists generation 1, shuts it down, and restarts on the same
// directory: set-up ends once the second server has recovered from disk.
func (b *serveExtract) setup(seed int64) error {
	b.close()
	ctx := context.Background()
	b.seed = seed
	var err error
	if b.contribs, b.spec, err = buildMixed(seed, serveRecords); err != nil {
		return err
	}
	b.names = byName(b.contribs)
	if b.dir, err = os.MkdirTemp(b.out, "serve-"); err != nil {
		return err
	}
	first := serve.NewServer(serve.Config{WarehouseDir: b.dir})
	if err := first.AddStudy(ctx, b.spec); err != nil {
		return err
	}
	if err := first.Shutdown(ctx); err != nil {
		return err
	}
	recovered := counters()["serve.snapshot.recovered"]
	t0 := time.Now()
	b.srv = serve.NewServer(serve.Config{WarehouseDir: b.dir})
	if err := b.srv.AddStudy(ctx, b.spec); err != nil {
		return err
	}
	b.recover.add(time.Since(t0))
	if counters()["serve.snapshot.recovered"] != recovered+1 {
		return fmt.Errorf("restarted server did not recover the study from %s", b.dir)
	}
	b.h = b.srv.Handler()

	b.urls = b.urls[:0]
	for _, r := range workload.ExtractRequests(studyName, mixSize, seed) {
		b.urls = append(b.urls, "/studies/"+r.Study+"/extract?"+url.Values(r.Params).Encode())
	}
	b.lastGen = map[string]int64{}
	// relstore counts operator calls into obs.Default; sum them around each
	// extract to attribute them to misses.
	b.relOps = b.relOps[:0]
	for _, s := range obs.Default.Snapshot() {
		if s.Kind == "counter" && strings.HasPrefix(s.Name, "relstore.ops.") {
			b.relOps = append(b.relOps, obs.Default.Counter(s.Name))
		}
	}
	return nil
}

func (b *serveExtract) relOpCount() int64 {
	var n int64
	for _, c := range b.relOps {
		n += c.Value()
	}
	return n
}

func (b *serveExtract) step(ctx context.Context, tr *tracer, op int64) error {
	root := tr.begin(op, 0, "op")
	defer tr.end(root)
	octx, o := tr.opContext(ctx)
	defer tr.adopt(op, root, o)

	if op%churnEvery == 0 {
		if err := b.churn(octx, tr, op, root); err != nil {
			return err
		}
	}

	target := b.urls[int(op)%len(b.urls)]
	req := httptest.NewRequest(http.MethodGet, target, nil).WithContext(octx)
	rec := httptest.NewRecorder()
	ops0 := b.relOpCount()
	id := tr.begin(op, root, "Handler.ServeHTTP extract")
	t0 := time.Now()
	b.h.ServeHTTP(rec, req)
	d := time.Since(t0)
	tr.end(id)
	b.busy += float64(d) / float64(time.Millisecond)
	b.extracts++
	if rec.Code != http.StatusOK {
		return fmt.Errorf("extract %s: HTTP %d: %s", target, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if rec.Header().Get("X-Guava-Cache") == "hit" {
		b.hit.add(d)
		b.hits++
	} else {
		b.miss.add(d)
		b.misses++
		b.missOps += b.relOpCount() - ops0
	}

	// The generation stamp of a partition (or of the whole study, for an
	// unfiltered extract) never goes backwards.
	gen, err := generationOf(rec.Body.Bytes())
	if err != nil {
		return fmt.Errorf("extract %s: %w", target, err)
	}
	part := req.URL.Query().Get("Contributor")
	if gen < b.lastGen[part] {
		return fmt.Errorf("extract %s: generation went back from %d to %d", target, b.lastGen[part], gen)
	}
	b.lastGen[part] = gen
	return nil
}

// churn applies one seeded mutation batch through the contributors' stacks
// and POSTs a delta refresh, as a reporting tool and the warehouse would.
func (b *serveExtract) churn(ctx context.Context, tr *tracer, op, root int64) error {
	batch := workload.RandomBatch(b.contribs, b.seed<<20+op, churnMutations)
	for _, m := range batch {
		d, err := applyOne(tr, op, root, b.names, m)
		if err != nil {
			return err
		}
		b.write.add(d)
		b.busy += float64(d) / float64(time.Millisecond)
	}
	req := httptest.NewRequest(http.MethodPost, "/studies/"+studyName+"/refresh?mode=delta", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	id := tr.begin(op, root, "Handler.ServeHTTP refresh")
	t0 := time.Now()
	b.h.ServeHTTP(rec, req)
	d := time.Since(t0)
	tr.end(id)
	b.refresh.add(d)
	b.busy += float64(d) / float64(time.Millisecond)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("delta refresh: HTTP %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return nil
}

// generationOf reads the "generation" field of an extract body without
// decoding its rows.
func generationOf(body []byte) (int64, error) {
	const key = `"generation":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("no generation in the response")
	}
	rest := body[i+len(key):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, fmt.Errorf("malformed generation in the response")
	}
	return strconv.ParseInt(string(rest[:j]), 10, 64)
}

func (b *serveExtract) reset() {
	b.hit, b.miss, b.write, b.refresh = dist{}, dist{}, dist{}, dist{}
	b.hits, b.misses, b.extracts, b.missOps, b.busy = 0, 0, 0, 0, 0
}

// warmOps covers two churn cycles: the first delta refresh builds the
// warehouse indexes, and the result cache fills.
func (b *serveExtract) warmOps() int { return 2 * churnEvery }

func (b *serveExtract) units() int      { return b.extracts }
func (b *serveExtract) busyMs() float64 { return b.busy }

func (b *serveExtract) endToEnd(rates *dist) []e2e {
	return []e2e{
		{pct("hit_p50_us", "us", &b.hit, 0.5, 1000), "fast_p50_us"},
		{pct("miss_p50_us", "us", &b.miss, 0.5, 1000), "main_p50_ms"},
		{pct("miss_p90_us", "us", &b.miss, 0.9, 1000), "main_p90_ms"},
		{pct("extracts_per_s", "1/s", rates, 0.5, 1), "ops_per_s"},
		{pct("refresh_p50_ms", "ms", &b.refresh, 0.5, 1), ""},
		{pct("refresh_p90_ms", "ms", &b.refresh, 0.9, 1), ""},
	}
}

// finish checks the served warehouse against a fresh full run: the
// unfiltered extract's total equals the row count of compiling and running
// the study from scratch over the contributors as they now stand.
func (b *serveExtract) finish(ctx context.Context, tr *tracer) []string {
	var wrong []string
	// serve only logs a failed persist and keeps serving from memory.
	if n := counters()["serve.snapshot.persist.errors"]; n > 0 {
		wrong = append(wrong, fmt.Sprintf("%d generation persists failed", n))
	}
	rec := httptest.NewRecorder()
	b.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/studies/"+studyName+"/extract?limit=1", nil))
	var body struct {
		Total int `json:"total"`
	}
	if rec.Code != http.StatusOK {
		return append(wrong, fmt.Sprintf("final extract: HTTP %d", rec.Code))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		return append(wrong, fmt.Sprintf("final extract: %v", err))
	}
	compiled, err := etl.Compile(b.spec)
	if err != nil {
		return append(wrong, err.Error())
	}
	rows, _, err := compiled.RunResilient(ctx, etl.RunPolicy{}, 1)
	if err != nil {
		return append(wrong, err.Error())
	}
	if body.Total != rows.Len() {
		wrong = append(wrong, fmt.Sprintf("served extract has %d rows, a fresh full run %d", body.Total, rows.Len()))
	}
	b.finalRows = body.Total
	return wrong
}

func (b *serveExtract) layers(tr *tracer, delta map[string]int64, extracts int64) []metric {
	kids := tr.children()
	self := func(s *span) float64 { return tr.selfMs(s.ID, kids) }
	size, err := newestGenBytes(filepath.Join(b.dir, studyName))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	hits, misses := delta["serve.extract.cache.hit"], delta["serve.extract.cache.miss"]
	return append(writeLayers(tr),
		pct("etl.delta_ms", "ms", tr.each(named("refresh-delta ")), 0.5, 1),
		pct("serve.refresh_self_ms", "ms", tr.perOp(named("serve.refresh-delta "), self), 0.5, 1),
		scalar("serve.cache_hit_ratio", "ratio", ratio(hits, hits+misses)),
		scalar("serve.cache_evicted_per_1k", "count", 1000*ratio(delta["serve.extract.cache.evicted"], extracts)),
		scalar("relstore.ops_per_miss", "count", ratio(b.missOps, int64(b.misses))),
		pct("storage.recover_ms", "ms", &b.recover, 0.5, 1),
		scalar("storage.bytes_per_row", "B", ratio(size, int64(b.finalRows))),
	)
}

// newestGenBytes sums the file sizes of the highest-numbered gen-<N> dir.
func newestGenBytes(root string) (int64, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return 0, err
	}
	newest, dir := int64(-1), ""
	for _, e := range entries {
		n, err := strconv.ParseInt(strings.TrimPrefix(e.Name(), "gen-"), 10, 64)
		if err == nil && e.IsDir() && n > newest {
			newest, dir = n, e.Name()
		}
	}
	if dir == "" {
		return 0, fmt.Errorf("no generation under %s", root)
	}
	var size int64
	err = filepath.WalkDir(filepath.Join(root, dir), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			size += info.Size()
		}
		return err
	})
	return size, err
}

func (b *serveExtract) counts(delta map[string]int64) []string {
	shapes := map[string]bool{}
	for _, u := range b.urls {
		shapes[u] = true
	}
	return []string{
		fmt.Sprintf("request mix: %d requests, %d distinct shapes", len(b.urls), len(shapes)),
		fmt.Sprintf("extracts=%d hits=%d misses=%d refreshes=%d writes=%d relstore.ops_on_misses=%d",
			b.extracts, b.hits, b.misses, b.refresh.n(), b.write.n(), b.missOps),
		fmt.Sprintf("serve.extract.cache.evicted=%d serve.snapshot.persist=%d refresh.delta.keys=%d",
			delta["serve.extract.cache.evicted"], delta["serve.snapshot.persist"], delta["refresh.delta.keys"]),
	}
}

func (b *serveExtract) close() {
	if b.srv != nil {
		_ = b.srv.Shutdown(context.Background()) // never started a listener; stops nothing that can fail
		b.srv = nil
	}
	if b.dir != "" {
		_ = os.RemoveAll(b.dir)
		b.dir = ""
	}
}

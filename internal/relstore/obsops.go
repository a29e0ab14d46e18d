package relstore

import "guava/internal/obs"

// Relational-operator invocation counters. relstore's operators take no
// context, so they record into the process-wide obs.Default registry;
// the instruments are package vars so the hot path is one atomic add
// with no registry lookup. Exported under the "relstore.ops.<name>"
// metric names documented in OBSERVABILITY.md.
var (
	opSelect   = obs.Default.Counter("relstore.ops.select")
	opProject  = obs.Default.Counter("relstore.ops.project")
	opDerive   = obs.Default.Counter("relstore.ops.derive")
	opExtend   = obs.Default.Counter("relstore.ops.extend")
	opRename   = obs.Default.Counter("relstore.ops.rename")
	opJoin     = obs.Default.Counter("relstore.ops.join")
	opLeftJoin = obs.Default.Counter("relstore.ops.left_join")
	opUnionAll = obs.Default.Counter("relstore.ops.union_all")
	opUnion    = obs.Default.Counter("relstore.ops.union")
	opDistinct = obs.Default.Counter("relstore.ops.distinct")
	opSortBy   = obs.Default.Counter("relstore.ops.sort_by")
	opPivot    = obs.Default.Counter("relstore.ops.pivot")
	opUnpivot  = obs.Default.Counter("relstore.ops.unpivot")
	opGroupBy  = obs.Default.Counter("relstore.ops.group_by")
)

// Columnar-execution counters, under "relstore.batch.*": chunks and rows
// that went through the chunked batch kernels, and how many operator calls
// actually fanned out across the worker pool (multi-chunk inputs with
// Parallelism > 1).
var (
	mBatchChunks   = obs.Default.Counter("relstore.batch.chunks")
	mBatchRows     = obs.Default.Counter("relstore.batch.rows")
	mBatchParallel = obs.Default.Counter("relstore.batch.parallel_ops")
)

// Segment-store counters, under "relstore.segment.*": v2 segment blocks
// written, lazily loaded, served from the resident cache, and evicted under
// the memory budget.
var (
	mSegWrites = obs.Default.Counter("relstore.segment.writes")
	mSegLoads  = obs.Default.Counter("relstore.segment.loads")
	mSegHits   = obs.Default.Counter("relstore.segment.hits")
	mSegEvicts = obs.Default.Counter("relstore.segment.evictions")
)

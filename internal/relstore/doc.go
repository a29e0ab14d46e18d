// Package relstore implements the relational storage engine that underlies
// every database in the GUAVA/MultiClass reproduction: contributor databases
// written by reporting tools, the temporary databases produced by each ETL
// stage (Figure 6 of the paper), and the study warehouse itself.
//
// The engine provides typed columns, structured predicates and scalar
// expressions (so that plans can be rendered back to SQL text for
// documentation, as the paper renders classifier output to XQuery), hash
// indexes, and the relational operators the paper's design patterns need —
// including the pivot/un-pivot pair required by the Generic (EAV) layout of
// Table 1.
//
// # Immutable shared rows
//
// A row, once stored in a [Table], is never mutated. [Table.Insert] and
// [Table.Update] copy rows on the way in, and mutations replace or drop
// whole rows rather than writing into one. Every read path — [Table.Rows],
// [Table.Select] (indexed and scan), [Table.Lookup] and the [SegmentSet]
// reads — therefore returns a fresh []Row whose rows are shared with the
// store, not cloned; a snapshot is unaffected by later updates, deletes or
// truncation because those never touch the rows it holds. [DB.Replace]
// installs a table that adopts a relation's row slice after validating it,
// which is how the ETL stages of Figure 6 hand relations to each other
// without copying. Callers must treat every row they read as read-only and
// [Row.Clone] one before changing it. [Project] with the identity column
// list returns its input rows unchanged.
//
// [Value.Key] is the in-memory hash key behind indexes, joins and grouping:
// a compact typed encoding under which Equal values always share a key.
// Keys are never persisted.
//
// # Columnar execution
//
// Operators execute on a columnar core. A relation is still presented to
// callers as row-oriented ([Rows], [Row]), but internally the hot operators
// split their input into fixed-size chunks ([BatchSize] rows, default 4096)
// and evaluate each chunk against typed column vectors:
//
//   - [Vector] is one column of a chunk in struct-of-arrays form — a typed
//     payload slice for the column's declared kind, a null bitmap, and a
//     sparse exception map for the rare cells whose runtime kind differs
//     from the declared kind (e.g. an Int stored in a REAL column, which
//     [Schema.Validate] permits). Vector.Value reconstructs every cell
//     exactly, so the columnar form is lossless.
//   - [Batch] is a chunk of vectors sharing a schema; [BatchFromRows]
//     vectorizes only the columns an operator touches.
//
// Predicates over plain column/literal operands run as typed loops
// (see the kernels in colexec.go); everything else — CASE guards,
// arithmetic comparands, derivations — falls back to per-row evaluation
// restricted to still-selected rows, so AND/OR short-circuit error
// semantics match row-at-a-time evaluation exactly.
//
// # Parallelism
//
// Multi-chunk operator calls fan out across a bounded worker pool of
// [Parallelism] goroutines (default min(GOMAXPROCS, 8); configure with
// [SetParallelism], 1 disables parallelism). Select, Project, Derive,
// Extend, Join, LeftJoin, Distinct, SortBy, Pivot, Unpivot, and GroupBy all
// use the pool for their scan/probe/key phases, but every operator
// assembles chunk results in chunk order, so output is byte-identical to
// sequential execution regardless of the pool size. UnionAll and Rename are
// pure copies and stay sequential.
//
// # Durable format
//
// Relations serialize in a typed line format (serial.go) that round-trips
// bit for bit. [WriteTyped] emits the v1 single-stream layout;
// [WriteTypedSegmented] emits the v2 segment-file layout (segment.go) whose
// header indexes fixed-size, CRC-checksummed blocks so [OpenSegments] can
// serve a relation bigger than RAM from a [SegmentSet] that lazily loads
// and LRU-evicts segments under a byte budget. [ReadTyped] sniffs the
// version from the first byte and reads both.
package relstore

#ifndef RDFOPT_ENGINE_RELATION_H_
#define RDFOPT_ENGINE_RELATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "rdf/term.h"
#include "sparql/query.h"

namespace rdfopt {

/// Number of rows one execution batch holds (see DESIGN.md §11). Operators
/// process inputs in chunks of this many rows: a chunk's cells fit L1/L2,
/// per-chunk bookkeeping (selection vectors, key buffers) is reused across
/// chunks, and the per-row interpretation overhead of the tuple-at-a-time
/// executor amortizes to one dispatch per batch. This is also the default
/// EngineProfile::vector_width of vectorized profiles.
inline constexpr size_t kBatchRows = 1024;

/// A read-only view of a chunk of rows of a flattened (row-major) buffer,
/// optionally filtered by a selection vector. The unit of work of the batch
/// executor: operators produce/consume Batches instead of single rows.
///
/// With `sel == nullptr` the batch is dense: rows 0..num_rows-1 all
/// qualify. With a selection vector, only the row indices in
/// `sel[0..sel_size)` qualify (ascending, each < num_rows) — filters emit
/// selection vectors instead of compacting cells, so a filtered batch costs
/// O(selected) to append, not O(scanned).
struct Batch {
  const ValueId* cells = nullptr;  ///< num_rows * arity values, row-major.
  size_t arity = 0;
  size_t num_rows = 0;
  const uint32_t* sel = nullptr;  ///< Optional selection vector.
  size_t sel_size = 0;

  /// Number of qualifying rows.
  size_t size() const { return sel != nullptr ? sel_size : num_rows; }
  /// The i-th qualifying row.
  std::span<const ValueId> row(size_t i) const {
    const size_t r = sel != nullptr ? sel[i] : i;
    return {cells + r * arity, arity};
  }
};

/// A materialized relation: a bag of rows over columns named by query
/// variables. Rows are stored flattened (row-major) for locality; set
/// semantics is obtained by calling Deduplicate().
class Relation {
 public:
  /// Column order is significant; a variable may appear at most once.
  explicit Relation(std::vector<VarId> columns)
      : columns_(std::move(columns)) {}

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  const std::vector<VarId>& columns() const { return columns_; }
  size_t arity() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? scalar_rows_ : cells_.size() / columns_.size();
  }

  /// Index of variable `v` among the columns, or -1.
  int ColumnIndex(VarId v) const;

  /// Appends one row; `row.size()` must equal arity().
  void AppendRow(std::span<const ValueId> row);

  /// For zero-arity (boolean) relations: appends an empty row, making the
  /// relation non-empty ("true").
  void AppendEmptyRow();

  /// Appends every row of `other`, whose columns must be identical (same
  /// variables, same order). One bulk copy — the merge step of the parallel
  /// union executor, where per-worker accumulators already share the union
  /// head's schema.
  void Append(const Relation& other);

  /// Grows the relation by `rows` uninitialized rows and returns the write
  /// pointer to the first new cell. The batch operators' emit path: one
  /// resize per batch, then straight-line stores — no per-row size checks.
  /// Returns nullptr for zero-arity relations (the rows are counted).
  ValueId* AppendUninitialized(size_t rows);

  /// Bulk-appends a batch's qualifying rows (its columns must already match
  /// this relation's schema). Dense batches append with one memcpy-like
  /// copy; selective batches gather the selected rows.
  void AppendBatch(const Batch& batch);

  /// The rows [begin, begin + rows) of this relation as a dense batch view.
  /// The view is invalidated by any append.
  Batch Chunk(size_t begin, size_t rows) const {
    return Batch{cells_.data() + begin * columns_.size(), columns_.size(),
                 rows, nullptr, 0};
  }

  /// Deep copy (relations are move-only; copies must be explicit — the
  /// shared-subplan executor copies only when a branch needs ownership).
  Relation Copy() const;

  std::span<const ValueId> row(size_t i) const {
    return {cells_.data() + i * columns_.size(), columns_.size()};
  }
  ValueId at(size_t row_index, size_t col) const {
    return cells_[row_index * columns_.size() + col];
  }
  const ValueId* cells_data() const { return cells_.data(); }

  /// Removes duplicate rows, keeping the first occurrence of each (the
  /// surviving rows stay in their original relative order); returns the
  /// number removed. Radix-partitioned hash dedup: per-row hashes are
  /// computed batch-at-a-time, large inputs are partitioned by hash prefix
  /// so each partition's table stays cache-resident, and survivors are
  /// compacted in one stable pass (see DESIGN.md §11). `prefetch` issues
  /// software prefetches ahead of the table probe loops
  /// (EngineProfile::prefetch_probes); results are identical either way.
  size_t Deduplicate(bool prefetch = false);

  /// Total number of cells; proxy for the relation's memory footprint used
  /// by the engine's resource accounting.
  size_t num_cells() const { return cells_.size(); }

  void Reserve(size_t rows) { cells_.reserve(rows * columns_.size()); }

 private:
  std::vector<VarId> columns_;
  std::vector<ValueId> cells_;
  size_t scalar_rows_ = 0;  // Row count for zero-arity relations.
};

/// Hash/equality over rows of a fixed-arity flattened buffer; shared by
/// deduplication and the hash-join build side.
size_t HashRow(std::span<const ValueId> row);

}  // namespace rdfopt

#endif  // RDFOPT_ENGINE_RELATION_H_

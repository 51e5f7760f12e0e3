#include "engine/relation.h"

#include <cstring>

#include "common/check.h"

namespace rdfopt {

int Relation::ColumnIndex(VarId v) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == v) return static_cast<int>(i);
  }
  return -1;
}

void Relation::AppendRow(std::span<const ValueId> row) {
  RDFOPT_DCHECK(row.size() == columns_.size());  // Per-row hot path.
  if (columns_.empty()) {
    ++scalar_rows_;
    return;
  }
  cells_.insert(cells_.end(), row.begin(), row.end());
}

void Relation::AppendEmptyRow() {
  RDFOPT_DCHECK(columns_.empty());
  ++scalar_rows_;
}

void Relation::Append(const Relation& other) {
  RDFOPT_CHECK(other.columns_ == columns_)
      << "Append between relations of different schemas";
  if (columns_.empty()) {
    scalar_rows_ += other.scalar_rows_;
    return;
  }
  cells_.insert(cells_.end(), other.cells_.begin(), other.cells_.end());
}

ValueId* Relation::AppendUninitialized(size_t rows) {
  if (columns_.empty()) {
    scalar_rows_ += rows;
    return nullptr;
  }
  const size_t old = cells_.size();
  cells_.resize(old + rows * columns_.size());
  return cells_.data() + old;
}

void Relation::AppendBatch(const Batch& batch) {
  RDFOPT_CHECK(batch.arity == columns_.size())
      << "batch arity " << batch.arity << " vs relation arity "
      << columns_.size();
  if (columns_.empty()) {
    scalar_rows_ += batch.size();
    return;
  }
  const size_t arity = columns_.size();
  if (batch.sel == nullptr) {
    cells_.insert(cells_.end(), batch.cells, batch.cells + batch.num_rows * arity);
    return;
  }
  ValueId* out = AppendUninitialized(batch.sel_size);
  for (size_t i = 0; i < batch.sel_size; ++i) {
    const ValueId* src = batch.cells + batch.sel[i] * arity;
    for (size_t c = 0; c < arity; ++c) out[c] = src[c];
    out += arity;
  }
}

Relation Relation::Copy() const {
  Relation copy(columns_);
  copy.cells_ = cells_;
  copy.scalar_rows_ = scalar_rows_;
  return copy;
}

size_t HashRow(std::span<const ValueId> row) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (ValueId v : row) {
    h ^= v;
    h *= 0x100000001B3ull;  // FNV-1a step.
    h ^= h >> 29;
  }
  return static_cast<size_t>(h);
}

namespace {

/// Per-row hashes of a flattened buffer, computed batch-at-a-time with
/// unrolled small-arity loops (the dedup equivalent of a vectorized
/// hash-computation primitive).
void HashRows(const ValueId* cells, size_t rows, size_t arity,
              uint64_t* out) {
  constexpr uint64_t kOffset = 0xCBF29CE484222325ull;
  constexpr uint64_t kPrime = 0x100000001B3ull;
  auto step = [](uint64_t h, ValueId v) {
    h ^= v;
    h *= kPrime;
    h ^= h >> 29;
    return h;
  };
  if (arity == 1) {
    for (size_t r = 0; r < rows; ++r) out[r] = step(kOffset, cells[r]);
    return;
  }
  if (arity == 2) {
    for (size_t r = 0; r < rows; ++r) {
      out[r] = step(step(kOffset, cells[2 * r]), cells[2 * r + 1]);
    }
    return;
  }
  for (size_t r = 0; r < rows; ++r) {
    uint64_t h = kOffset;
    const ValueId* p = cells + r * arity;
    for (size_t c = 0; c < arity; ++c) h = step(h, p[c]);
    out[r] = h;
  }
}

bool RowsEqual(const ValueId* a, const ValueId* b, size_t arity) {
  for (size_t c = 0; c < arity; ++c) {
    if (a[c] != b[c]) return false;
  }
  return true;
}

/// Open-addressing table of row indices (linear probing, power-of-two
/// capacity, 0 = empty / index+1 = occupied). One flat array — no per-node
/// allocation or pointer chasing, unlike the std::unordered_set the seed
/// dedup used.
class FlatIndexTable {
 public:
  explicit FlatIndexTable(size_t expected) {
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, 0);
    mask_ = cap - 1;
  }

  /// Inserts `row` unless a row with equal content is present; returns true
  /// when `row` is new. Rows are offered in ascending original order, so
  /// the resident row of a duplicate group is always its first occurrence.
  bool InsertIfNew(uint64_t hash, uint32_t row, const ValueId* cells,
                   size_t arity, const uint64_t* hashes) {
    size_t i = static_cast<size_t>(hash) & mask_;
    for (;;) {
      const uint32_t slot = slots_[i];
      if (slot == 0) {
        slots_[i] = row + 1;
        return true;
      }
      const uint32_t other = slot - 1;
      if (hashes[other] == hash &&
          RowsEqual(cells + static_cast<size_t>(other) * arity,
                    cells + static_cast<size_t>(row) * arity, arity)) {
        return false;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Hints the cache at the home slot of a future probe (see
  /// JoinTable::PrefetchSlot; same rationale).
  void PrefetchSlot(uint64_t hash) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&slots_[static_cast<size_t>(hash) & mask_]);
#endif
  }

 private:
  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
};

/// How many probes ahead the dedup loops prefetch.
constexpr size_t kDedupPrefetchDistance = 8;

/// Inputs below this size skip partitioning: one table already fits the
/// cache and the scatter pass would be pure overhead.
constexpr size_t kDedupPartitionThreshold = 1u << 14;
constexpr size_t kDedupPartitions = 256;  // Radix on the top 8 hash bits.

}  // namespace

size_t Relation::Deduplicate(bool prefetch) {
  if (columns_.empty()) {
    size_t removed = scalar_rows_ > 1 ? scalar_rows_ - 1 : 0;
    scalar_rows_ = scalar_rows_ > 0 ? 1 : 0;
    return removed;
  }
  const size_t arity = columns_.size();
  const size_t rows = num_rows();
  if (rows <= 1) return 0;

  std::vector<uint64_t> hashes(rows);
  HashRows(cells_.data(), rows, arity, hashes.data());

  // `keep[r]` — row r is the first occurrence of its content.
  std::vector<uint8_t> keep(rows, 0);

  if (rows < kDedupPartitionThreshold) {
    FlatIndexTable table(rows);
    for (size_t r = 0; r < rows; ++r) {
      if (prefetch && r + kDedupPrefetchDistance < rows) {
        table.PrefetchSlot(hashes[r + kDedupPrefetchDistance]);
      }
      keep[r] = table.InsertIfNew(hashes[r], static_cast<uint32_t>(r),
                                  cells_.data(), arity, hashes.data());
    }
  } else {
    // Radix partition row indices by hash prefix: each partition's table is
    // small enough to stay cache-resident while it is probed. The scatter
    // is stable, so within a partition rows keep ascending original order
    // and the first occurrence still wins.
    size_t counts[kDedupPartitions] = {0};
    for (size_t r = 0; r < rows; ++r) ++counts[hashes[r] >> 56];
    size_t offsets[kDedupPartitions];
    size_t sum = 0;
    for (size_t p = 0; p < kDedupPartitions; ++p) {
      offsets[p] = sum;
      sum += counts[p];
    }
    std::vector<uint32_t> part_rows(rows);
    size_t cursor[kDedupPartitions];
    std::memcpy(cursor, offsets, sizeof(offsets));
    for (size_t r = 0; r < rows; ++r) {
      part_rows[cursor[hashes[r] >> 56]++] = static_cast<uint32_t>(r);
    }
    for (size_t p = 0; p < kDedupPartitions; ++p) {
      if (counts[p] == 0) continue;
      FlatIndexTable table(counts[p]);
      const uint32_t* begin = part_rows.data() + offsets[p];
      for (size_t i = 0; i < counts[p]; ++i) {
        const uint32_t r = begin[i];
        if (prefetch && i + kDedupPrefetchDistance < counts[p]) {
          table.PrefetchSlot(hashes[begin[i + kDedupPrefetchDistance]]);
        }
        keep[r] = table.InsertIfNew(hashes[r], r, cells_.data(), arity,
                                    hashes.data());
      }
    }
  }

  // Stable compaction: survivors keep their original relative order — the
  // contract both the deterministic parallel merge and the differential
  // tests pin down.
  size_t write = 0;
  for (size_t r = 0; r < rows; ++r) {
    if (!keep[r]) continue;
    if (write != r) {
      std::memcpy(cells_.data() + write * arity, cells_.data() + r * arity,
                  arity * sizeof(ValueId));
    }
    ++write;
  }
  const size_t removed = rows - write;
  cells_.resize(write * arity);
  return removed;
}

}  // namespace rdfopt

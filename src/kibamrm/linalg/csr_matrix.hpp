// Compressed sparse row matrices and a coordinate-format builder.
//
// The Markovian approximation of Sec. 5 produces CTMC generators with up to
// millions of non-zeros; CSR with contiguous storage is the workhorse format
// for the repeated vector-matrix products of uniformisation.
//
// Probability vectors are row vectors, so the hot kernel is the *left*
// product  out = pi * A  (CsrMatrix::left_multiply), implemented as a scatter
// over rows: for each i, out[j] += pi[i] * A(i,j).  This walks A exactly once
// in storage order, which is as cache-friendly as CSR allows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace kibamrm::linalg {

/// One (row, col, value) entry of a matrix under construction.
struct Triplet {
  std::uint32_t row;
  std::uint32_t col;
  double value;
};

class CsrMatrix;

/// Accumulates (row, col, value) triplets, then compresses to CSR.
/// Duplicate coordinates are summed, zeros dropped.
class CooBuilder {
 public:
  CooBuilder(std::size_t rows, std::size_t cols);

  /// Adds `value` at (row, col).  Bounds-checked.
  void add(std::size_t row, std::size_t col, double value);

  /// Number of triplets accumulated so far (before duplicate merging).
  std::size_t entry_count() const { return triplets_.size(); }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Reserves triplet storage (an exact-size reserve avoids re-allocation
  /// spikes when building multi-million-entry generators).
  void reserve(std::size_t n) { triplets_.reserve(n); }

  /// Sorts, merges duplicates, drops explicit zeros and builds the CSR
  /// matrix.  Input already in (row, col) order skips the sort, so a
  /// builder fed row by row costs O(nnz).  The builder is left empty
  /// afterwards.
  CsrMatrix build();

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<Triplet> triplets_;
};

/// Immutable compressed-sparse-row matrix.
class CsrMatrix {
 public:
  /// Empty matrix of the given shape.
  CsrMatrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return values_.size(); }

  /// out = A * x  (column vector on the right).
  void multiply(const std::vector<double>& x, std::vector<double>& out) const;

  /// Row-range slice of multiply(): writes out[row] for row in
  /// [row_begin, row_end) only and touches nothing else.  `out` must
  /// already have size rows().  Because each output entry is a gather over
  /// one CSR row, disjoint ranges write disjoint entries -- this is the
  /// thread-safe spmv entry point the parallel uniformisation backend
  /// shards across a ThreadPool, and the result is bitwise independent of
  /// how the rows are partitioned.
  void multiply_range(const std::vector<double>& x, std::vector<double>& out,
                      std::size_t row_begin, std::size_t row_end) const;

  /// Splits the rows into at most `parts` contiguous ranges of roughly
  /// equal non-zero count (each row also weighted by one write, so empty
  /// rows are not free).  Returns the range boundaries: ranges[i] ..
  /// ranges[i+1] is part i, ranges.front() == 0, ranges.back() == rows().
  /// Fewer ranges come back when the matrix is too small to fill `parts`.
  std::vector<std::size_t> balanced_row_ranges(std::size_t parts) const;

  /// out = pi * A  (row vector on the left).  This is the uniformisation
  /// kernel; `out` is overwritten (its capacity is reused across calls, so
  /// repeated products over time increments allocate nothing).
  void left_multiply(const std::vector<double>& pi,
                     std::vector<double>& out) const;

  /// Fused gather-side uniformisation step on a *transposed* transition
  /// matrix: for rows in [row_begin, row_end) computes
  ///     out[row]   = dot(this row, x)        (== (x * P)[row]),
  ///     accum[row] += weight * out[row]      (skipped for weight == 0),
  /// and returns the range-local sup norm max |out[row] - x[row]|.  The
  /// row dot product dispatches on the row length (expanded battery chains
  /// average ~3 entries per row, so the row loop dominates, not the dot)
  /// with a fixed evaluation order per case, so results are bitwise
  /// independent of how rows are sharded -- the parallel backend's
  /// determinism guarantee carries over.  The per-length order is the
  /// canonical one mirrored bitwise by linalg::FusedGatherPlan.  Square
  /// matrices only; disjoint ranges touch disjoint out/accum entries.
  double multiply_fused_range(const std::vector<double>& x,
                              std::vector<double>& out,
                              std::vector<double>& accum, double weight,
                              std::size_t row_begin,
                              std::size_t row_end) const;

  /// Per-row sums (for generator validation: rows of Q must sum to ~0).
  std::vector<double> row_sums() const;

  /// Entry lookup by binary search within the row; O(log nnz_row).
  double at(std::size_t row, std::size_t col) const;

  /// Returns a copy scaled by alpha.
  CsrMatrix scaled(double alpha) const;

  /// Maximum over rows of the negated diagonal entry, max_i(-A(i,i)).
  /// For a generator matrix this is the minimal uniformisation rate.
  double max_exit_rate() const;

  /// Builds the uniformised transition-probability matrix
  /// P = I + Q / q for a generator Q and uniformisation rate q >=
  /// max_exit_rate().  Diagonal entries are clamped to [0,1] against
  /// round-off.  Throws InvalidArgument if q is too small or the matrix is
  /// not square.
  CsrMatrix uniformized(double q) const;

  /// Raw structure accessors (read-only views) for kernels and tests.
  std::span<const std::uint32_t> row_pointers() const { return row_ptr_; }
  std::span<const std::uint32_t> column_indices() const { return col_idx_; }
  std::span<const double> values() const { return values_; }

  /// Transposed copy (used to express backward equations and in tests).
  CsrMatrix transposed() const;

  /// Rows reachable from `seeds` following stored entries row -> column
  /// (the sparsity pattern as a directed graph).  Returns the sorted
  /// closure, seeds included.  Square matrices only.  For a transition
  /// matrix and the support of an initial distribution this is every
  /// state the chain can ever occupy -- the paper's expanded battery
  /// chains reach only about half their state space from the standard
  /// full-charge start, and the transient solvers exploit that.
  std::vector<std::uint32_t> reachable_rows(
      std::span<const std::uint32_t> seeds) const;

  /// Transpose of the submatrix induced by `keep` x `keep`, with indices
  /// compacted to 0..keep.size()-1 in order (`keep` must be sorted,
  /// unique and in range).  Entries keep their relative order, so kernels
  /// over the compacted matrix sum in the same order as over the full
  /// transpose restricted to `keep`.  Square matrices only.
  CsrMatrix transposed_submatrix(std::span<const std::uint32_t> keep) const;

 private:
  friend class CooBuilder;

  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::uint32_t> row_ptr_;  // size rows_+1
  std::vector<std::uint32_t> col_idx_;  // size nnz
  std::vector<double> values_;          // size nnz
};

}  // namespace kibamrm::linalg

// The benchmark's answer oracle: brute-force reference answers computed
// from the benchmark's own copy of the relation, with no call into the
// library (not its scans, its scenario references or its differential
// harness). Scores are lower-is-better linear sums; answers are in
// canonical (score, id) order, and a checked answer may differ from the
// reference only by swaps inside a tie class whose scores lie within
// kTieGap of each other.

#ifndef E2EBENCH_ORACLE_H_
#define E2EBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e::oracle {

inline constexpr double kTieGap = 1e-9;

struct Item {
  std::uint32_t id = 0;
  double score = 0.0;
};

// Inclusive attribute box.
struct Box {
  std::vector<double> lo;
  std::vector<double> hi;
};

// The relation as the oracle sees it. Row i holds tuple id i; an erased
// row stays in place with its live flag cleared, so the table mirrors
// an index whose ids are assigned in insertion order and never reused.
class Table {
 public:
  explicit Table(std::size_t dim) : dim_(dim) {}

  std::size_t dim() const { return dim_; }
  std::size_t rows() const { return live_.size(); }
  std::size_t live_count() const { return live_count_; }
  const double* row(std::uint32_t id) const { return &values_[id * dim_]; }
  bool live(std::uint32_t id) const { return id < rows() && live_[id] != 0; }

  // Appends a live row; returns its id.
  std::uint32_t Append(const double* tuple);
  // Clears a live row's flag; false if the id is unknown or dead.
  bool Erase(std::uint32_t id);

 private:
  std::size_t dim_;
  std::vector<double> values_;
  std::vector<std::uint8_t> live_;
  std::size_t live_count_ = 0;
};

double Score(const double* weights, const double* tuple, std::size_t dim);

// Reference top-k of the live rows (inside `box` when given).
std::vector<Item> TopK(const Table& table, const double* weights,
                       std::size_t k, const Box* box);

// "" when `got` is a correct top-k answer, else what is wrong with it.
std::string CheckTopK(const Table& table, const double* weights,
                      std::size_t k, const Box* box,
                      const std::vector<Item>& got);

// "" when `picks` (selection order, plain scores) is the greedy
// diversified answer over the live rows: each pick minimises
// g = score + lambda * max similarity to earlier picks, with
// similarity 1 / (1 + L2 distance) and ties broken by id.
std::string CheckDiversified(const Table& table, const double* weights,
                             std::size_t k, double lambda,
                             const std::vector<Item>& picks);

}  // namespace e2e::oracle

#endif  // E2EBENCH_ORACLE_H_

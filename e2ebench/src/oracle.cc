#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace e2e::oracle {
namespace {

bool CanonicalLess(const Item& a, const Item& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.id < b.id;
}

bool Inside(const Box& box, const double* tuple, std::size_t dim) {
  for (std::size_t a = 0; a < dim; ++a) {
    if (tuple[a] < box.lo[a] || tuple[a] > box.hi[a]) return false;
  }
  return true;
}

template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

}  // namespace

std::uint32_t Table::Append(const double* tuple) {
  values_.insert(values_.end(), tuple, tuple + dim_);
  live_.push_back(1);
  ++live_count_;
  return static_cast<std::uint32_t>(live_.size() - 1);
}

bool Table::Erase(std::uint32_t id) {
  if (!live(id)) return false;
  live_[id] = 0;
  --live_count_;
  return true;
}

double Score(const double* weights, const double* tuple, std::size_t dim) {
  double s = 0.0;
  for (std::size_t a = 0; a < dim; ++a) s += weights[a] * tuple[a];
  return s;
}

std::vector<Item> TopK(const Table& table, const double* weights,
                       std::size_t k, const Box* box) {
  std::vector<Item> all;
  all.reserve(table.live_count());
  for (std::uint32_t id = 0; id < table.rows(); ++id) {
    if (!table.live(id)) continue;
    const double* tuple = table.row(id);
    if (box != nullptr && !Inside(*box, tuple, table.dim())) continue;
    all.push_back({id, Score(weights, tuple, table.dim())});
  }
  const std::size_t m = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + m, all.end(), CanonicalLess);
  all.resize(m);
  return all;
}

std::string CheckTopK(const Table& table, const double* weights,
                      std::size_t k, const Box* box,
                      const std::vector<Item>& got) {
  const std::vector<Item> expected = TopK(table, weights, k, box);
  if (got.size() != expected.size()) {
    return Format("%zu items, expected %zu", got.size(), expected.size());
  }
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Item& g = got[i];
    if (!table.live(g.id)) return Format("item %zu: id %u is not live", i, g.id);
    const double* tuple = table.row(g.id);
    if (box != nullptr && !Inside(*box, tuple, table.dim())) {
      return Format("item %zu: id %u lies outside the box", i, g.id);
    }
    const double s = Score(weights, tuple, table.dim());
    if (std::fabs(s - g.score) > kTieGap) {
      return Format("item %zu: id %u reported score %.17g, true %.17g", i,
                    g.id, g.score, s);
    }
    if (i > 0 && !CanonicalLess(got[i - 1], g)) {
      return Format("item %zu: id %u out of (score, id) order", i, g.id);
    }
    ids.push_back(g.id);
  }
  // Every item is live, in the box, truly scored and in order; now each
  // must match the reference item at its rank, or tie with it.
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != expected[i].id &&
        std::fabs(got[i].score - expected[i].score) > kTieGap) {
      return Format("item %zu: id %u (score %.17g), expected id %u (%.17g)",
                    i, got[i].id, got[i].score, expected[i].id,
                    expected[i].score);
    }
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return "duplicate id in answer";
  }
  return "";
}

std::string CheckDiversified(const Table& table, const double* weights,
                             std::size_t k, double lambda,
                             const std::vector<Item>& picks) {
  const std::size_t expected = std::min(k, table.live_count());
  if (picks.size() != expected) {
    return Format("%zu picks, expected %zu", picks.size(), expected);
  }
  const std::size_t dim = table.dim();
  std::vector<double> max_sim(table.rows(), 0.0);
  std::vector<std::uint8_t> selected(table.rows(), 0);
  for (std::size_t i = 0; i < picks.size(); ++i) {
    // The greedy's best utility over every unselected live row.
    double best = std::numeric_limits<double>::infinity();
    std::uint32_t best_id = 0;
    for (std::uint32_t id = 0; id < table.rows(); ++id) {
      if (!table.live(id) || selected[id]) continue;
      const double g = Score(weights, table.row(id), dim) + lambda * max_sim[id];
      if (g < best) {
        best = g;
        best_id = id;
      }
    }
    const Item& p = picks[i];
    if (!table.live(p.id)) return Format("pick %zu: id %u is not live", i, p.id);
    if (selected[p.id]) return Format("pick %zu: id %u picked twice", i, p.id);
    const double s = Score(weights, table.row(p.id), dim);
    if (std::fabs(s - p.score) > kTieGap) {
      return Format("pick %zu: id %u reported score %.17g, true %.17g", i,
                    p.id, p.score, s);
    }
    const double g = s + lambda * max_sim[p.id];
    if (g > best + kTieGap) {
      return Format("pick %zu: id %u (g %.17g), expected id %u (g %.17g)", i,
                    p.id, g, best_id, best);
    }
    // Follow the checked pick, so a legal tie swap does not derail the
    // comparison of later picks.
    selected[p.id] = 1;
    const double* chosen = table.row(p.id);
    for (std::uint32_t id = 0; id < table.rows(); ++id) {
      const double* t = table.row(id);
      double sq = 0.0;
      for (std::size_t a = 0; a < dim; ++a) {
        const double diff = t[a] - chosen[a];
        sq += diff * diff;
      }
      max_sim[id] = std::max(max_sim[id], 1.0 / (1.0 + std::sqrt(sq)));
    }
  }
  return "";
}

}  // namespace e2e::oracle

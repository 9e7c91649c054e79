// Self-test of the oracle: answers from a small DL+ index must pass,
// and each kind of corrupted answer must be rejected for its own reason.

#include <string>
#include <utility>

#include "core/dual_layer.h"
#include "inputs.h"
#include "scenarios/constrained.h"
#include "scenarios/diversified.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr std::size_t kTuples = 400;
constexpr std::size_t kDim = 3;
constexpr std::size_t kK = 10;
constexpr double kLambda = 0.3;

// "" when `problem` is empty (accept) or names `reason` (reject).
std::string Expect(const char* what, const std::string& problem,
                   const char* reason) {
  if (reason == nullptr) {
    return problem.empty() ? "" : std::string(what) + ": rejected: " + problem;
  }
  if (problem.find(reason) == std::string::npos) {
    return std::string(what) + ": expected rejection for '" + reason +
           "', got '" + problem + "'";
  }
  return "";
}

}  // namespace

std::string RunOracleSelfTest() {
  Rng rng(20260);
  const drli::PointSet points = Anticorrelated(kTuples, kDim, rng);
  oracle::Table table = TableOf(points);
  drli::DualLayerOptions options;
  options.build_zero_layer = true;
  const drli::DualLayerIndex index = drli::DualLayerIndex::Build(points, options);

  const drli::Point weights = SimplexWeights(kDim, rng);
  drli::TopKQuery query;
  query.weights = weights;
  query.k = kK;
  const std::vector<oracle::Item> answer = ItemsOf(index.Query(query));

  drli::ConstrainedQuery cq;
  cq.weights = weights;
  cq.k = kK;
  cq.box = RandomBox(kDim, 0.6, rng);
  const oracle::Box box = BoxOf(cq.box);
  const std::vector<oracle::Item> boxed = ItemsOf(drli::ConstrainedTopK(index, cq));

  drli::DiversifiedQuery dq;
  dq.weights = weights;
  dq.k = kK;
  dq.lambda = kLambda;
  const std::vector<oracle::Item> picks =
      PicksOf(drli::DiversifiedTopK(index, points, dq));

  const double* w = weights.data();
  if (answer.size() != kK || boxed.size() < 2 || picks.size() != kK) {
    return "self-test inputs too small";
  }
  std::vector<std::string> problems;
  problems.push_back(Expect("plain", oracle::CheckTopK(table, w, kK, nullptr, answer), nullptr));
  problems.push_back(Expect("boxed", oracle::CheckTopK(table, w, kK, &box, boxed), nullptr));
  problems.push_back(Expect("diversified", oracle::CheckDiversified(table, w, kK, kLambda, picks), nullptr));

  std::vector<oracle::Item> dropped(answer.begin(), answer.end() - 1);
  problems.push_back(Expect("dropped item", oracle::CheckTopK(table, w, kK, nullptr, dropped), "items, expected"));

  std::vector<oracle::Item> swapped = answer;
  std::swap(swapped[0], swapped[1]);
  problems.push_back(Expect("swapped order", oracle::CheckTopK(table, w, kK, nullptr, swapped), "order"));

  std::vector<oracle::Item> rescored = answer;
  rescored[3].score += 1e-6;
  problems.push_back(Expect("wrong score", oracle::CheckTopK(table, w, kK, nullptr, rescored), "reported score"));

  std::vector<oracle::Item> outside = boxed;
  for (std::uint32_t id = 0; id < table.rows(); ++id) {
    const double* t = table.row(id);
    bool inside = true;
    for (std::size_t a = 0; a < kDim; ++a) {
      inside = inside && t[a] >= box.lo[a] && t[a] <= box.hi[a];
    }
    if (!inside) {
      outside.back() = {id, oracle::Score(w, t, kDim)};
      break;
    }
  }
  problems.push_back(Expect("outside box", oracle::CheckTopK(table, w, kK, &box, outside), "outside the box"));

  std::vector<oracle::Item> wrong_pick = picks;
  std::swap(wrong_pick[1], wrong_pick[2]);
  problems.push_back(Expect("wrong greedy pick", oracle::CheckDiversified(table, w, kK, kLambda, wrong_pick), "expected id"));

  // Erase a tuple the answer returned: the unchanged answer is stale.
  oracle::Table erased = table;
  erased.Erase(answer[4].id);
  problems.push_back(Expect("stale erased id", oracle::CheckTopK(erased, w, kK, nullptr, answer), "not live"));

  std::string all;
  for (const std::string& p : problems) {
    if (!p.empty()) all += p + "\n";
  }
  return all;
}

}  // namespace e2e

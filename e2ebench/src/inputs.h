// Seeded input generation for the end-to-end benchmark. Everything the
// library receives -- relations, weight vectors, constraint boxes,
// inserted tuples -- is made here from the workload seed, with the
// benchmark's own generator, so the inputs stay fixed even when the
// library's data/ module changes.

#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/point.h"
#include "scenarios/scenario_box.h"

namespace e2e {

// xoshiro256** seeded through SplitMix64: same seed, same stream, on
// every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t Next();
  double Uniform();  // [0, 1)
  double Uniform(double lo, double hi);
  double Normal(double mean, double stddev);
  std::size_t Below(std::size_t n);  // [0, n), n >= 1

 private:
  std::uint64_t s_[4];
};

// Independent stream `stream` of workload seed `seed`.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

// One anticorrelated tuple in (0, 1)^d, following the construction of
// Börzsönyi et al. (ICDE'01): a point on the plane sum(x) = d * v, v
// near 0.5, spread by pairwise mass transfers and rejected until it
// lies inside the unit cube.
drli::Point AnticorrelatedTuple(std::size_t d, Rng& rng);
drli::PointSet Anticorrelated(std::size_t n, std::size_t d, Rng& rng);

// A weight vector drawn uniformly from the simplex, every weight > 0.
drli::Point SimplexWeights(std::size_t d, Rng& rng);

// An axis-aligned box with side `side` per attribute, placed uniformly
// inside the unit cube.
drli::AttributeBox RandomBox(std::size_t d, double side, Rng& rng);

// Fisher-Yates shuffle driven by `rng`.
template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
}

}  // namespace e2e

#endif  // E2EBENCH_INPUTS_H_

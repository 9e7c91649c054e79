#include "inputs.h"

#include <cmath>

namespace e2e {
namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (std::uint64_t& s : s_) s = SplitMix64(seed);
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1p-53; }

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

double Rng::Normal(double mean, double stddev) {
  // Box-Muller; 1 - Uniform() keeps the log argument in (0, 1].
  const double u = 1.0 - Uniform();
  const double v = Uniform();
  return mean + stddev * std::sqrt(-2.0 * std::log(u)) *
                    std::cos(6.283185307179586 * v);
}

std::size_t Rng::Below(std::size_t n) {
  return static_cast<std::size_t>(Uniform() * static_cast<double>(n)) % n;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed ^ (stream * 0xd1b54a32d192ed03ull);
  SplitMix64(x);
  return SplitMix64(x);
}

drli::Point AnticorrelatedTuple(std::size_t d, Rng& rng) {
  drli::Point x(d);
  for (;;) {
    const double v = rng.Normal(0.5, 0.05);
    const double l = v <= 0.5 ? v : 1.0 - v;
    for (double& a : x) a = v;
    for (std::size_t i = 0; i < d; ++i) {
      const double h = rng.Uniform(-l, l);
      x[i] += h;
      x[(i + 1) % d] -= h;
    }
    bool inside = true;
    for (const double a : x) inside = inside && a > 0.0 && a < 1.0;
    if (inside) return x;
  }
}

drli::PointSet Anticorrelated(std::size_t n, std::size_t d, Rng& rng) {
  drli::PointSet points(d);
  for (std::size_t i = 0; i < n; ++i) points.Add(AnticorrelatedTuple(d, rng));
  return points;
}

drli::Point SimplexWeights(std::size_t d, Rng& rng) {
  drli::Point w(d);
  double sum = 0.0;
  for (double& x : w) {
    x = -std::log(1.0 - rng.Uniform()) + 1e-6;
    sum += x;
  }
  for (double& x : w) x /= sum;
  return w;
}

drli::AttributeBox RandomBox(std::size_t d, double side, Rng& rng) {
  drli::AttributeBox box;
  box.lo.resize(d);
  box.hi.resize(d);
  for (std::size_t a = 0; a < d; ++a) {
    box.lo[a] = rng.Uniform(0.0, 1.0 - side);
    box.hi[a] = box.lo[a] + side;
  }
  return box;
}

}  // namespace e2e

#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("percentile p");
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of nothing");
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - nearest_rank(n, p);
}

std::optional<double> reportable_percentile(const std::vector<double>& samples,
                                            double p) {
  if (samples_beyond(samples.size(), p) < kMinSamplesBeyond) {
    return std::nullopt;
  }
  return percentile(samples, p);
}

double median(const std::vector<double>& samples) {
  return percentile(samples, 50.0);
}

}  // namespace perfbench

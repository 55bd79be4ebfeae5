#pragma once

// Percentiles as the benchmark reports them: nearest rank over the sorted
// samples, and a percentile is reported only when at least
// kMinSamplesBeyond samples lie beyond it (so a p99 needs 1000 samples).

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank p-th percentile (0 < p <= 100) of `samples`; the samples
/// need not be sorted. Throws on an empty input.
double percentile(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The p-th percentile when at least kMinSamplesBeyond samples lie beyond
/// it, otherwise nothing.
std::optional<double> reportable_percentile(const std::vector<double>& samples,
                                            double p);

/// Median (the 50th percentile by nearest rank).
double median(const std::vector<double>& samples);

}  // namespace perfbench

// Sample arithmetic for the benchmark.  Every quantile, mean, rate and
// ratio the benchmark prints is computed here from raw samples the run kept
// in memory; nothing is read back from obs::Histogram quantiles (their
// buckets are one octave wide and wrong below one unit).  selftest.cpp pins
// each function to hand-computed values.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Quantile `q` in [0, 1] of ascending `sorted` samples, interpolating
/// linearly between the two closest ranks: position q * (n - 1), the rule
/// numpy and Python's statistics.quantiles(method="inclusive") use.  0 for
/// no samples.
inline double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Quantile of unsorted samples (sorts a copy).
inline double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, q);
}

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

inline double mean(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// Effective bandwidth in MB/s (10^6 bytes, as the paper's Figure 4):
/// payload bytes over the wall time that moved them, invocation overhead
/// included.  0 when no time elapsed.
inline double mb_per_s(double payload_bytes, double seconds) {
  return seconds > 0.0 ? payload_bytes / 1e6 / seconds : 0.0;
}

/// `num / den`, or 0 when `den` is 0 (a per-op ratio over an empty window).
inline double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

/// Mean of the samples added to a running (count, mean) instrument between
/// two snapshots: (n1*m1 - n0*m0) / (n1 - n0).  0 when nothing was added.
inline double window_mean(std::uint64_t n0, double m0, std::uint64_t n1,
                          double m1) {
  if (n1 <= n0) return 0.0;
  const double sum = static_cast<double>(n1) * m1 - static_cast<double>(n0) * m0;
  return sum / static_cast<double>(n1 - n0);
}

/// Per-invocation merge of per-rank samples after the run: element i of the
/// result is the maximum over ranks of sample i (the paper's convention for
/// phase times: the slowest computing thread sets the phase).  Ranks must
/// hold equally many samples; the shortest length wins otherwise.
inline std::vector<double> max_over_ranks(
    const std::vector<std::vector<double>>& per_rank) {
  if (per_rank.empty()) return {};
  std::size_t n = per_rank.front().size();
  for (const auto& r : per_rank) n = std::min(n, r.size());
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double m = per_rank.front()[i];
    for (const auto& r : per_rank) m = std::max(m, r[i]);
    out[i] = m;
  }
  return out;
}

}  // namespace perfbench

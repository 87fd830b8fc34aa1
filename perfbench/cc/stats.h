// Exact order statistics over raw samples.
//
// Every latency the benchmark reports is taken from the full list of
// per-request samples, never from a bucketed histogram: a fixed bucket
// grid interpolates inside a bucket and hides tail movement smaller
// than the bucket.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least
/// `quantile` of the samples at or below it (quantile in (0, 1]).
/// Returns 0 for an empty list. Takes the samples by value (sorts).
double ExactPercentile(std::vector<double> samples, double quantile);

/// The median: the mean of the two middle samples for an even count,
/// the middle one otherwise (the convention of Python's
/// statistics.median). 0 for an empty list.
double Median(std::vector<double> samples);

/// The arithmetic mean; 0 for an empty list.
double Mean(const std::vector<double>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

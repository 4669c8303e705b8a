// Sample statistics, span aggregation and the result line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "trace.hpp"

namespace kembench {

/// Nearest-rank quantile of `v` (q in (0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Index over the recorded spans for per-layer aggregation.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<trace::Span> spans);

  std::size_t count(std::string_view name) const;
  double total_us(std::string_view name) const;

  /// Sum over spans named `name` of their duration minus the part of their
  /// interval covered by their direct children (on any thread).
  double self_us(std::string_view name) const;

  /// Sum over spans named `name` of the time from the span's start to the
  /// first start of a direct child on another thread (the whole span when
  /// there is none): how long the caller ran alone before a second thread
  /// started work.
  double head_serial_us(std::string_view name) const;

  const std::vector<trace::Span>& spans() const { return spans_; }

 private:
  std::vector<trace::Span> spans_;
  std::unordered_map<std::string_view, std::vector<std::size_t>> by_name_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children_;
};

/// The last line of the benchmark's standard output.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// JSON string literal for `s` (quotes and escapes included).
std::string json_string(std::string_view s);

/// Number formatted with every significant digit.
std::string json_number(double v);

}  // namespace kembench

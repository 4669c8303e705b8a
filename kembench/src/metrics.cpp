#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace kembench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

SpanIndex::SpanIndex(std::vector<trace::Span> spans) : spans_(std::move(spans)) {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name_[spans_[i].name].push_back(i);
    if (spans_[i].parent != 0) children_[spans_[i].parent].push_back(i);
  }
}

std::size_t SpanIndex::count(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second.size();
}

double SpanIndex::total_us(std::string_view name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return 0.0;
  double sum = 0;
  for (const auto i : it->second) sum += spans_[i].us();
  return sum;
}

double SpanIndex::self_us(std::string_view name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return 0.0;
  double sum = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const auto i : it->second) {
    const auto& s = spans_[i];
    std::int64_t covered = 0;
    if (const auto c = children_.find(s.id); c != children_.end()) {
      iv.clear();
      for (const auto j : c->second) {
        iv.emplace_back(std::max(spans_[j].start_ns, s.start_ns),
                        std::min(spans_[j].end_ns, s.end_ns));
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t reach = s.start_ns;
      for (const auto& [a, b] : iv) {
        const auto from = std::max(a, reach);
        if (b > from) {
          covered += b - from;
          reach = b;
        }
      }
    }
    sum += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3;
  }
  return sum;
}

double SpanIndex::head_serial_us(std::string_view name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return 0.0;
  double sum = 0;
  for (const auto i : it->second) {
    const auto& s = spans_[i];
    std::int64_t first = s.end_ns;
    if (const auto c = children_.find(s.id); c != children_.end()) {
      for (const auto j : c->second) {
        if (spans_[j].thread != s.thread) first = std::min(first, spans_[j].start_ns);
      }
    }
    sum += static_cast<double>(std::max(first, s.start_ns) - s.start_ns) / 1e3;
  }
  return sum;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace kembench

// In-memory span recorder for the traced benchmark run.
//
// A span is one call across a layer boundary: name, start, end, the span
// that caused it, and the benchmark request (one KEM operation or one batch
// call) it belongs to. Each thread appends to its own buffer, so recording
// takes no lock; the buffers outlive their threads and are merged only after
// the traced loop, when no thread records. With tracing disabled a Scope
// costs one relaxed atomic load.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kembench::trace {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;       ///< string literal or intern()ed
  std::uint64_t id;       ///< unique, nonzero
  std::uint64_t parent;   ///< 0 for a request root
  std::uint64_t request;  ///< request the span belongs to, 0 for none
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t thread;   ///< recording thread, in order of first use

  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

void set_enabled(bool on);
bool enabled();

/// Stable storage for a composed span name (decorator names are built at
/// run time and must outlive the decorator that records them).
const char* intern(std::string_view name);

/// Records one span on the calling thread from construction to destruction.
/// Its parent is the innermost open Scope on this thread or, on a thread
/// with none open (a batch worker), the root of the current Request.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ = 0;
};

/// A root span that opens a new request: every span recorded on any thread
/// until it closes belongs to it. Requests do not nest.
class Request {
 public:
  explicit Request(const char* name);
  ~Request();
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

 private:
  Scope root_;
};

/// Every span recorded so far, from every thread. Call only while no thread
/// is recording.
std::vector<Span> collect();

/// Write `spans` as tab-separated lines (name, id, parent, request, thread,
/// start_ns, end_ns), at most `limit` of them; returns the number written.
std::size_t write_tsv(const std::string& path, const std::vector<Span>& spans,
                      std::size_t limit);

}  // namespace kembench::trace

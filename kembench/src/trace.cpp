#include "trace.hpp"

#include <atomic>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>

namespace kembench::trace {
namespace {

struct ThreadBuffer {
  std::vector<Span> spans;
  std::vector<std::uint64_t> open;  ///< ids of the open Scopes, innermost last
  std::uint32_t index = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_request{0};
std::atomic<std::uint64_t> g_request_root{0};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_registry_mu
std::deque<std::string> g_names;                       // guarded by g_registry_mu

ThreadBuffer& buffer() {
  thread_local ThreadBuffer* tb = nullptr;
  if (tb == nullptr) {
    const std::lock_guard<std::mutex> lock(g_registry_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    tb = g_buffers.back().get();
    tb->index = static_cast<std::uint32_t>(g_buffers.size() - 1);
    tb->spans.reserve(1 << 16);
  }
  return *tb;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

const char* intern(std::string_view name) {
  const std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& s : g_names) {
    if (s == name) return s.c_str();
  }
  return g_names.emplace_back(name).c_str();
}

Scope::Scope(const char* name) : name_(name) {
  if (!enabled()) return;
  auto& tb = buffer();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = tb.open.empty() ? g_request_root.load(std::memory_order_relaxed)
                            : tb.open.back();
  tb.open.push_back(id_);
  start_ = now_ns();
}

Scope::~Scope() {
  if (id_ == 0) return;
  const auto end = now_ns();
  auto& tb = buffer();
  tb.open.pop_back();
  tb.spans.push_back(Span{name_, id_, parent_, g_request.load(std::memory_order_relaxed),
                          start_, end, tb.index});
}

namespace {
std::uint64_t open_request() {
  if (!enabled()) return 0;
  const auto req = g_next_id.fetch_add(1, std::memory_order_relaxed);
  g_request.store(req, std::memory_order_relaxed);
  return req;
}
}  // namespace

// The request id must be current before the root span opens, so that the
// root carries it too.
Request::Request(const char* name) : root_((open_request(), name)) {
  g_request_root.store(root_.id(), std::memory_order_relaxed);
}

Request::~Request() { g_request_root.store(0, std::memory_order_relaxed); }

std::vector<Span> collect() {
  const std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<Span> all;
  for (const auto& tb : g_buffers) all.insert(all.end(), tb->spans.begin(), tb->spans.end());
  return all;
}

std::size_t write_tsv(const std::string& path, const std::vector<Span>& spans,
                      std::size_t limit) {
  std::ofstream out(path);
  if (!out) return 0;
  out << "name\tid\tparent\trequest\tthread\tstart_ns\tend_ns\n";
  std::size_t n = 0;
  for (const auto& s : spans) {
    if (n == limit) break;
    out << s.name << '\t' << s.id << '\t' << s.parent << '\t' << s.request << '\t'
        << s.thread << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    ++n;
  }
  return n;
}

}  // namespace kembench::trace

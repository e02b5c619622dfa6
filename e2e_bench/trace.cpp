#include "trace.h"

#include <cstdio>
#include <functional>
#include <stdexcept>
#include <thread>

namespace e2e {

namespace {

i64 thread_index() {
  return static_cast<i64>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

std::string escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

i64 Tracer::record(std::string name, const char* layer, f64 start_us,
                   f64 end_us, i64 request, i64 parent) {
  if (!enabled_) return -1;
  Span span{std::move(name), layer, thread_index(), start_us, end_us,
            request, parent};
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<i64>(spans_.size()) - 1;
}

i64 Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<i64>(spans_.size());
}

void Tracer::write_chrome_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  const f64 origin = spans_.empty() ? 0.0 : spans_.front().start_us;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%lld,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"request\":%lld}}\n",
                 i == 0 ? "" : ",", escaped(s.name).c_str(), s.layer,
                 static_cast<long long>(s.tid), s.start_us - origin,
                 s.end_us - s.start_us, i, static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0)
    throw std::runtime_error("cannot finish trace " + path);
}

}  // namespace e2e

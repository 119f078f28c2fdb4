#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(std::string name, int job) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.job = job;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back(id);
  // Read the clock last so the bookkeeping above is not charged to the span.
  spans_[id].start_us = NowUs();
  return id;
}

void Tracer::End(int id) {
  const double now = NowUs();
  spans_[id].end_us = now;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%d,\"job\":%d,\"count\":%llu}\n",
                 s.name.c_str(), s.start_us, s.end_us, s.parent, s.job,
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(out) == 0;
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_us();
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) self[s.parent] -= s.duration_us();
  }
  return self;
}

std::string LayerOf(std::string_view span_name) {
  const std::string_view head = span_name.substr(0, span_name.find('.'));
  if (head == "apriori" || head == "uhstruct") return "algo";
  if (head == "stream") return "core";
  if (head == "job" || head == "replay") return "bench";
  return std::string(head);
}

std::map<std::string, double> SelfTimeByLayer(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimesUs(spans);
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_layer[LayerOf(spans[i].name)] += self[i];
  }
  return by_layer;
}

Reconciliation Reconcile(const std::vector<Span>& spans,
                         std::string_view root_name) {
  Reconciliation r;
  for (const Span& s : spans) {
    if (s.parent < 0 && s.name == root_name) {
      ++r.roots;
      r.root_us += s.duration_us();
    } else if (s.parent >= 0 && spans[s.parent].parent < 0 &&
               spans[s.parent].name == root_name) {
      r.attributed_us += s.duration_us();
    }
  }
  return r;
}

}  // namespace perfbench

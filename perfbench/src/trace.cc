#include "trace.hpp"

#include <unordered_map>

namespace perfbench {

LayerTimes self_times(const std::vector<Span>& spans) {
  const auto n = static_cast<std::size_t>(Layer::kCount);
  LayerTimes out;
  out.self_ns.assign(n, {});
  out.total_self_ns.assign(n, 0.0);
  out.items.assign(n, 0.0);
  std::unordered_map<std::uint32_t, std::int64_t> child_ns;
  child_ns.reserve(spans.size());
  for (const Span& s : spans)
    if (s.parent != 0) child_ns[s.parent] += s.t1 - s.t0;
  for (const Span& s : spans) {
    const auto it = child_ns.find(s.id);
    const double self = static_cast<double>(
        (s.t1 - s.t0) - (it == child_ns.end() ? 0 : it->second));
    const auto l = static_cast<std::size_t>(s.layer);
    out.self_ns[l].push_back(self);
    out.total_self_ns[l] += self;
    out.items[l] += s.items;
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans)
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"report\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"items\":%u}\n",
                 s.id, s.parent, static_cast<unsigned long long>(s.report),
                 kLayerNames[static_cast<std::size_t>(s.layer)],
                 static_cast<long long>(s.t0), static_cast<long long>(s.t1),
                 s.items);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

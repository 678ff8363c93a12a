#include "util/stats.h"

#include <cstdio>

namespace laser {

void Stats::Reset() {
  ForEachEntry([this](const char*, Shape, Rule rule, auto member) {
    if (rule != Rule::kCounter) return;
    for (auto& slot : Slots(this->*member)) slot.store(0, std::memory_order_relaxed);
  });
}

void Stats::AddCountersTo(Stats* out) const {
  ForEachEntry([this, out](const char*, Shape, Rule rule, auto member) {
    const auto from = Slots(this->*member);
    const auto to = Slots(out->*member);
    for (size_t i = 0; i < from.size(); ++i) {
      const uint64_t value = from[i].load(std::memory_order_relaxed);
      if (rule != Rule::kGaugeMax) {
        to[i].fetch_add(value, std::memory_order_relaxed);
      } else if (value > to[i].load(std::memory_order_relaxed)) {
        to[i].store(value, std::memory_order_relaxed);
      }
    }
  });
}

std::string Stats::ToString() const {
  std::string out;
  ForEachEntry([this, &out](const char* name, Shape shape, Rule, auto member) {
    if (shape != Shape::kScalar) return;
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += std::to_string(Slots(this->*member)[0].load(std::memory_order_relaxed));
  });

  // Per-level filter line: only levels with configured bits, live filter
  // bytes, or probe activity (keeps the line empty on fresh/filterless DBs).
  for (int i = 0; i < kStatsLevels; ++i) {
    const unsigned long long mb = bloom_millibits_by_level[i].load();
    const unsigned long long fb = filter_bytes_by_level[i].load();
    const unsigned long long checks = bloom_checks_by_level[i].load();
    if (mb == 0 && fb == 0 && checks == 0) continue;
    char lv[160];
    snprintf(lv, sizeof(lv),
             " L%d[bits=%.2f filter=%lluB checks=%llu neg=%llu fp=%llu]", i,
             static_cast<double>(mb) / 1000.0, fb, checks,
             static_cast<unsigned long long>(bloom_negatives_by_level[i].load()),
             static_cast<unsigned long long>(
                 bloom_false_positives_by_level[i].load()));
    out += lv;
  }
  return out;
}

}  // namespace laser

#include "obs/trace.h"

#include <algorithm>

#include "common/check.h"
#include "common/line_reader.h"

namespace anufs::obs {

namespace {

struct CategoryEntry {
  Category category;
  const char* name;
};

constexpr CategoryEntry kCategories[] = {
    {Category::kDelegate, "delegate"}, {Category::kTuner, "tuner"},
    {Category::kMove, "move"},         {Category::kCache, "cache"},
    {Category::kFault, "fault"},       {Category::kSched, "sched"},
    {Category::kControl, "control"},
};

}  // namespace

const char* category_name(Category c) noexcept {
  for (const CategoryEntry& e : kCategories) {
    if (e.category == c) return e.name;
  }
  return "unknown";
}

std::optional<std::uint32_t> parse_categories(const std::string& csv) {
  if (csv.empty() || csv == "all") return kAllCategories;
  std::uint32_t mask = 0;
  for (const std::string& token : split(csv, ',')) {
    if (token.empty()) continue;
    bool found = false;
    for (const CategoryEntry& e : kCategories) {
      if (token == e.name) {
        mask |= static_cast<std::uint32_t>(e.category);
        found = true;
        break;
      }
    }
    if (!found) return std::nullopt;
  }
  return mask;
}

TraceSink::TraceSink(std::uint32_t category_mask, std::size_t capacity)
    : mask_(category_mask), ring_(std::max<std::size_t>(capacity, 1)) {}

void TraceSink::record(Category c, const char* name,
                       std::initializer_list<Field> fields) {
  ANUFS_EXPECTS(name != nullptr);
  TraceEvent& e = ring_[next_];
  e.time = clock_ ? clock_() : 0.0;
  e.seq = recorded_;
  e.category = c;
  e.name = name;
  e.field_count = 0;
  for (const Field& f : fields) {
    if (e.field_count == TraceEvent::kMaxFields) break;
    e.fields[e.field_count++] = f;
  }
  next_ = (next_ + 1) % ring_.size();
  ++recorded_;
}

std::vector<TraceEvent> TraceSink::events() const {
  std::vector<TraceEvent> out;
  const std::size_t retained =
      std::min<std::uint64_t>(recorded_, ring_.size());
  out.reserve(retained);
  // Oldest surviving event sits at the write cursor once wrapped.
  const std::size_t start =
      recorded_ > ring_.size() ? next_ : 0;
  for (std::size_t i = 0; i < retained; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

}  // namespace anufs::obs

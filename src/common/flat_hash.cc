#include "common/flat_hash.h"

#include "common/check.h"

namespace qf {
namespace {

constexpr std::size_t kMinSlots = 16;

std::size_t NextPow2AtLeast(std::size_t n) {
  std::size_t cap = kMinSlots;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

void FlatIdTable::Reserve(std::size_t n) {
  // Size so `n` elements sit below the 3/4 load threshold.
  std::size_t want = NextPow2AtLeast(n + n / 3 + 1);
  if (want > slots_.size()) Redistribute(want);
  hashes_.reserve(n);
}

void FlatIdTable::Grow() {
  Redistribute(slots_.empty() ? kMinSlots : slots_.size() * 2);
}

void FlatIdTable::Redistribute(std::size_t new_capacity) {
  QF_CHECK_MSG((new_capacity & (new_capacity - 1)) == 0,
               "flat hash capacity must be a power of two");
  QF_CHECK_MSG(hashes_.size() < 0xFFFFFFFFu,
               "flat hash tables address at most 2^32-1 elements");
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(new_capacity, Slot{});
  std::size_t mask = new_capacity - 1;
  // Re-place occupied slots by their stored hashes; keys are not touched.
  // Distinct elements never collide with themselves, so no eq is needed.
  for (const Slot& slot : old) {
    if (slot.id == kNone) continue;
    std::size_t i = static_cast<std::size_t>(slot.hash) & mask;
    while (slots_[i].id != kNone) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void FlatKeyIndex::Reserve(std::size_t n) {
  groups_.Reserve(n);
  first_rows_.reserve(n);
  counts_.reserve(n);
  added_rows_.reserve(n);
  group_of_row_.reserve(n);
}

void FlatKeyIndex::Finalize() {
  QF_CHECK_MSG(rows_.empty() && offsets_.empty(),
               "FlatKeyIndex::Finalize called twice");
  std::size_t groups = counts_.size();
  offsets_.assign(groups + 1, 0);
  for (std::size_t g = 0; g < groups; ++g) {
    offsets_[g + 1] = offsets_[g] + counts_[g];
  }
  rows_.resize(added_rows_.size());
  // Scatter rows into their group's span; cursor order == AddRow order,
  // so within a group the span preserves build row order.
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t r = 0; r < added_rows_.size(); ++r) {
    rows_[cursor[group_of_row_[r]]++] = added_rows_[r];
  }
  counts_.clear();
  counts_.shrink_to_fit();
  added_rows_.clear();
  added_rows_.shrink_to_fit();
  group_of_row_.clear();
  group_of_row_.shrink_to_fit();
}

}  // namespace qf

#include "src/table/column.h"

#include <algorithm>

#include "src/common/math.h"
#include "src/table/content_hash.h"

namespace swope {

namespace {

// The invariants every factory checks: codes need a non-zero support, a
// label dictionary covers exactly the support, and the payload width is
// canonical for it.
Status CheckShape(const std::string& name, uint32_t support,
                  const PackedCodes& packed,
                  const std::vector<std::string>& labels) {
  if (!packed.empty() && support == 0) {
    return Status::InvalidArgument("column '" + name +
                                   "': support is 0 but codes are present");
  }
  if (!labels.empty() && labels.size() != support) {
    return Status::InvalidArgument(
        "column '" + name + "': label count " +
        std::to_string(labels.size()) + " != support " +
        std::to_string(support));
  }
  if (packed.width() != PackedCodes::WidthForSupport(support)) {
    return Status::InvalidArgument(
        "column '" + name + "': width " + std::to_string(packed.width()) +
        " is not canonical for support " + std::to_string(support));
  }
  return Status::OK();
}

Status CodeOutOfRange(const std::string& name, ValueCode code,
                      uint32_t support) {
  return Status::InvalidArgument("column '" + name + "': code " +
                                 std::to_string(code) + " >= support " +
                                 std::to_string(support));
}

// Validates decoded codes chunk by chunk; an untrusted packed payload can
// encode values in [support, 2^width).
Status CheckCodes(const std::string& name, uint32_t support,
                  const PackedCodes& packed) {
  // A support of 2^width (or 1 at width 0) admits every value the width
  // can hold.
  if ((uint64_t{1} << packed.width()) <= support) return Status::OK();
  std::vector<ValueCode> scratch(std::min<uint64_t>(packed.size(), 4096));
  for (uint64_t begin = 0; begin < packed.size();
       begin += scratch.size()) {
    const uint64_t end =
        std::min<uint64_t>(packed.size(), begin + scratch.size());
    packed.Decode(begin, end, scratch.data());
    for (uint64_t i = 0; i < end - begin; ++i) {
      if (scratch[i] >= support) {
        return CodeOutOfRange(name, scratch[i], support);
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<Column> Column::Make(std::string name, uint32_t support,
                            std::vector<ValueCode> codes,
                            std::vector<std::string> labels) {
  if (!codes.empty() && support == 0) {
    return Status::InvalidArgument("column '" + name +
                                   "': support is 0 but codes are present");
  }
  if (!labels.empty() && labels.size() != support) {
    return Status::InvalidArgument(
        "column '" + name + "': label count " +
        std::to_string(labels.size()) + " != support " +
        std::to_string(support));
  }
  for (ValueCode c : codes) {
    if (c >= support) return CodeOutOfRange(name, c, support);
  }
  PackedCodes packed =
      PackedCodes::Pack(codes, PackedCodes::WidthForSupport(support));
  return Column(std::move(name), support, std::move(packed),
                std::move(labels));
}

Column Column::FromCodes(std::string name, std::vector<ValueCode> codes) {
  uint32_t support = 0;
  for (ValueCode c : codes) support = std::max(support, c + 1);
  PackedCodes packed =
      PackedCodes::Pack(codes, PackedCodes::WidthForSupport(support));
  return Column(std::move(name), support, std::move(packed), {});
}

Result<Column> Column::FromPacked(std::string name, uint32_t support,
                                  PackedCodes packed,
                                  std::vector<std::string> labels,
                                  std::shared_ptr<const void> backing) {
  SWOPE_RETURN_NOT_OK(CheckShape(name, support, packed, labels));
  SWOPE_RETURN_NOT_OK(CheckCodes(name, support, packed));
  Column column(std::move(name), support, std::move(packed),
                std::move(labels));
  column.backing_ = std::move(backing);
  return column;
}

Result<Column> Column::Append(
    const std::vector<ValueCode>& tail, uint32_t support,
    std::vector<std::string> labels,
    std::shared_ptr<const CountMinSketch> sketch) const {
  if (support < support_) {
    return Status::InvalidArgument(
        "column '" + name_ + "': append shrinks support " +
        std::to_string(support_) + " to " + std::to_string(support));
  }
  for (ValueCode c : tail) {
    if (c >= support) return CodeOutOfRange(name_, c, support);
  }
  const uint32_t width = PackedCodes::WidthForSupport(support);
  Column column(name_, support, codes_.Append(tail, width),
                std::move(labels));
  SWOPE_RETURN_NOT_OK(
      CheckShape(name_, support, column.codes_, column.labels_));
  column.sketch_ = std::move(sketch);
  if (width == codes_.width()) {
    // The tail's bits all lie past size() * width, so this payload's
    // full words reappear unchanged at the front of the successor's.
    const DigestCache& parent = Digested();
    std::call_once(column.digest_->once, [&] {
      column.FinishDigest(parent.full_words_state, codes_.num_full_words());
    });
  }
  return column;
}

uint64_t Column::MemoryBytes() const {
  uint64_t bytes = codes_.MemoryBytes() + name_.size();
  for (const std::string& label : labels_) {
    bytes += label.size() + sizeof(std::string);
  }
  return bytes;
}

std::string Column::LabelOf(ValueCode code) const {
  if (code < labels_.size()) return labels_[code];
  return std::to_string(code);
}

const Column::CountsCache& Column::Counted() const {
  std::call_once(counts_->once, [this] {
    std::vector<uint64_t>& counts = counts_->counts;
    counts.assign(support_, 0);
    codes_.CountValues(counts.data(), counts.size());
    counts_->entropy = EntropyFromCounts(counts, codes_.size());
  });
  return *counts_;
}

const std::vector<uint64_t>& Column::ValueCounts() const {
  return Counted().counts;
}

double Column::Entropy() const { return Counted().entropy; }

void Column::FinishDigest(uint64_t state, uint64_t from) const {
  const uint64_t* words = codes_.data_words();
  const uint64_t full = codes_.num_full_words();
  ContentHasher hasher(state);
  hasher.AddWords(words, from, full);
  digest_->full_words_state = hasher.state();
  if (full < codes_.num_data_words()) hasher.Add(words[full]);
  hasher.Add(codes_.size());
  digest_->digest = hasher.Finish();
}

const Column::DigestCache& Column::Digested() const {
  std::call_once(digest_->once,
                 [this] { FinishDigest(ContentHasher().state(), 0); });
  return *digest_;
}

uint64_t Column::PayloadDigest() const { return Digested().digest; }

}  // namespace swope

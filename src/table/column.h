// Column: a dictionary-encoded categorical column.
//
// The paper's model (Section 2.1) assumes attribute values fall in
// [1, u_alpha] after a one-to-one preprocessing match. We store codes in
// [0, u) bit-packed at ceil(log2(u)) bits per value (src/table/
// packed_codes.h), plus an optional dictionary of original string labels
// -- the preprocessing made concrete, at the memory footprint the
// paper's columnar-storage argument assumes. The payload is one
// contiguous PackedCodes, the same layout the SWPB format stores. Hot
// paths batch-decode through ColumnView (src/table/column_view.h); see
// docs/STORAGE.md.

#ifndef SWOPE_TABLE_COLUMN_H_
#define SWOPE_TABLE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/sketch/count_min.h"
#include "src/table/packed_codes.h"

namespace swope {

/// An immutable dictionary-encoded column. `support` is u_alpha, the number
/// of distinct attribute values; every stored code is < support.
class Column {
 public:
  /// Validating factory. Fails if any code is >= support, or if support is 0
  /// while codes are present, or if `labels` is non-empty but its size does
  /// not equal support. Codes are bit-packed on construction.
  static Result<Column> Make(std::string name, uint32_t support,
                             std::vector<ValueCode> codes,
                             std::vector<std::string> labels = {});

  /// Convenience factory for tests/generators holding already-valid data:
  /// computes support as max(code)+1 (0 for an empty column).
  static Column FromCodes(std::string name, std::vector<ValueCode> codes);

  /// Factory over an already-packed contiguous payload (binary format
  /// v2). Requires the canonical width for `support`, validates every
  /// decoded code against it, and then takes the payload as is. A
  /// payload borrowed from an externally owned region
  /// (PackedCodes::BorrowWords, the mmap load path) passes that region's
  /// keep-alive as `backing` (typically the MappedFile), which the column
  /// holds for its life.
  static Result<Column> FromPacked(std::string name, uint32_t support,
                                   PackedCodes packed,
                                   std::vector<std::string> labels = {},
                                   std::shared_ptr<const void> backing = {});

  /// The successor column an append builds (src/table/append.h): this
  /// column's codes followed by `tail`, under `support` (which must not
  /// shrink) and `labels`, carrying `sketch` as its sidecar. Only the
  /// tail is checked against the support -- the old codes were checked
  /// when this column was built -- and only the tail is packed: at an
  /// unchanged width the old payload words are copied as they are
  /// (PackedCodes::Append), and the successor's PayloadDigest extends
  /// this column's (hashing it first if nothing has yet) over the new
  /// words instead of rehashing them all.
  Result<Column> Append(const std::vector<ValueCode>& tail, uint32_t support,
                        std::vector<std::string> labels,
                        std::shared_ptr<const CountMinSketch> sketch) const;

  Column() = default;

  const std::string& name() const { return name_; }
  /// u_alpha: the number of distinct values the dictionary admits. Note
  /// this counts dictionary slots; a validated CSV/builder column always
  /// has every slot occupied at least once.
  uint32_t support() const { return support_; }
  /// Number of rows.
  uint64_t size() const { return codes_.size(); }
  bool empty() const { return codes_.empty(); }

  /// Per-row decode. Cold-path accessor (writers, tests, permutation):
  /// query kernels batch-decode through ColumnView instead.
  ValueCode code(uint64_t row) const { return codes_.Get(row); }

  /// Decodes the whole column into a fresh vector. Cold paths and tests
  /// only; tools/lint.py bans it outside src/table/ and tests.
  std::vector<ValueCode> codes() const { return codes_.ToVector(); }

  /// The bit-packed payload (ColumnView and binary_io use this).
  const PackedCodes& packed() const { return codes_; }

  /// Exact resident heap bytes: owned packed payload plus the label
  /// dictionary (per-string object plus character payload) plus the
  /// name. Borrowed (mmap-backed) payload bytes are excluded; they are
  /// MappedBytes(). The accounting rules live in docs/STORAGE.md.
  uint64_t MemoryBytes() const;

  /// Payload bytes this column references inside a mapped region (0 for
  /// fully owned storage).
  uint64_t MappedBytes() const { return codes_.MappedBytes(); }

  /// The opaque keep-alive for borrowed storage (the MappedFile on the
  /// mmap load path); null when the column owns its words.
  const std::shared_ptr<const void>& backing() const { return backing_; }

  /// True when the column retains original value labels.
  bool has_labels() const { return !labels_.empty(); }
  const std::vector<std::string>& labels() const { return labels_; }
  /// Label for a code; falls back to the decimal code when no dictionary
  /// is attached.
  std::string LabelOf(ValueCode code) const;

  /// Exact per-value occurrence counts n_v over the whole column (length
  /// support()). Computed on the first call, by one fused decode-and-count
  /// pass (PackedCodes::CountValues), and kept: columns are immutable, so
  /// the counts never go stale, and every copy of the column shares them.
  /// Thread-safe; concurrent first calls count once. Not part of
  /// MemoryBytes (docs/STORAGE.md).
  const std::vector<uint64_t>& ValueCounts() const;

  /// Exact empirical entropy H_D of the column in bits, computed from
  /// ValueCounts() and cached with them. (ExactEntropy in
  /// src/core/entropy.h is the Exact baseline's own full scan.)
  double Entropy() const;

  /// Hash of the packed payload words and the row count (ContentHasher,
  /// src/table/content_hash.h); TableFingerprint combines one per column.
  /// Every column stores its codes at the canonical width with zero bits
  /// past the last code, so the digest is a function of the codes.
  /// Computed on the first call by one pass over the payload words, or
  /// seeded by Append, and kept like ValueCounts(): every copy of the
  /// column shares it. Thread-safe; concurrent first calls hash once. Not
  /// part of MemoryBytes (docs/STORAGE.md).
  uint64_t PayloadDigest() const;

  /// True when a whole-column count-min summary rides along (built by
  /// AttachSketches or loaded from a v3 sidecar; see docs/SKETCH.md).
  bool has_sketch() const { return sketch_ != nullptr; }
  /// The sidecar sketch, or null. Shared: copies of the column (tables
  /// are value types) reference one summary.
  const std::shared_ptr<const CountMinSketch>& sketch() const {
    return sketch_;
  }
  /// This column carrying `sketch` as its sidecar (null detaches). The
  /// const& form copies the column, payload included; the && form moves
  /// it, so attaching a sketch to a column being consumed copies nothing.
  Column WithSketch(std::shared_ptr<const CountMinSketch> sketch) const& {
    Column copy = *this;
    copy.sketch_ = std::move(sketch);
    return copy;
  }
  Column WithSketch(std::shared_ptr<const CountMinSketch> sketch) && {
    sketch_ = std::move(sketch);
    return std::move(*this);
  }
  /// Resident bytes of the sidecar sketch (0 when none). Reported
  /// separately from MemoryBytes: the registry's dataset budget covers
  /// column data, sketches have their own gauge.
  uint64_t SketchMemoryBytes() const {
    return sketch_ != nullptr ? sketch_->MemoryBytes() : 0;
  }

 private:
  Column(std::string name, uint32_t support, PackedCodes codes,
         std::vector<std::string> labels)
      : name_(std::move(name)),
        support_(support),
        codes_(std::move(codes)),
        labels_(std::move(labels)) {}

  /// The lazily computed whole-column statistics behind ValueCounts()
  /// and Entropy().
  struct CountsCache {
    std::once_flag once;
    std::vector<uint64_t> counts;
    double entropy = 0.0;
  };
  const CountsCache& Counted() const;

  /// The lazily computed PayloadDigest(). `full_words_state` is the hash
  /// state after the payload's num_full_words() words, which an append
  /// at the same width leaves unchanged, so a successor resumes from it.
  struct DigestCache {
    std::once_flag once;
    uint64_t full_words_state = 0;
    uint64_t digest = 0;
  };
  const DigestCache& Digested() const;
  /// Fills digest_ from `state`, a hash state over this payload's first
  /// `from` words, all of them full. Runs under digest_->once.
  void FinishDigest(uint64_t state, uint64_t from) const;

  std::string name_;
  uint32_t support_ = 0;
  PackedCodes codes_;
  std::vector<std::string> labels_;
  std::shared_ptr<const CountMinSketch> sketch_;
  /// Shared by copies, like the payload they copy; a column built by a
  /// factory (an append included) starts with an empty cache of its own.
  std::shared_ptr<CountsCache> counts_ = std::make_shared<CountsCache>();
  /// Shared by copies the same way; a factory's column starts empty, and
  /// Append fills its successor's at an unchanged width.
  std::shared_ptr<DigestCache> digest_ = std::make_shared<DigestCache>();
  /// Keeps the region a borrowed payload points into alive (mmap path).
  std::shared_ptr<const void> backing_;
};

}  // namespace swope

#endif  // SWOPE_TABLE_COLUMN_H_

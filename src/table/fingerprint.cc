#include "src/table/fingerprint.h"

#include "src/table/content_hash.h"

namespace swope {

uint64_t TableFingerprint(const Table& table) {
  ContentHasher hasher;
  hasher.Add(table.num_rows());
  hasher.Add(static_cast<uint64_t>(table.num_columns()));
  for (const Column& column : table.columns()) {
    hasher.Add(column.name());
    hasher.Add(static_cast<uint64_t>(column.support()));
    hasher.Add(static_cast<uint64_t>(column.packed().width()));
    hasher.Add(column.PayloadDigest());
    hasher.Add(static_cast<uint64_t>(column.labels().size()));
    for (const std::string& label : column.labels()) hasher.Add(label);
  }
  return hasher.Finish();
}

}  // namespace swope

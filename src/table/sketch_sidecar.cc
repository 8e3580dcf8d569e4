#include "src/table/sketch_sidecar.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace swope {

namespace {

// FNV-1a over the column name, folded into the base seed: distinct
// columns get decorrelated hash streams, equal (seed, name) pairs get
// byte-identical sidecars.
uint64_t ColumnSeed(uint64_t seed, const std::string& name) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return seed ^ h;
}

}  // namespace

Result<CountMinSketch> BuildColumnSketch(const Column& column,
                                         double epsilon, double delta,
                                         uint64_t seed) {
  SWOPE_ASSIGN_OR_RETURN(
      CountMinSketch sketch,
      CountMinSketch::Make(epsilon, delta, ColumnSeed(seed, column.name())));
  const PackedCodes& codes = column.packed();
  std::vector<ValueCode> scratch(std::min<uint64_t>(codes.size(), 4096));
  for (uint64_t begin = 0; begin < codes.size(); begin += scratch.size()) {
    const uint64_t end =
        std::min<uint64_t>(codes.size(), begin + scratch.size());
    codes.Decode(begin, end, scratch.data());
    sketch.AddCodes(scratch.data(), end - begin);
  }
  return sketch;
}

Result<Table> AttachSketches(Table table, double epsilon, double delta,
                             uint32_t min_support, uint64_t seed) {
  std::vector<Column> columns = std::move(table).ReleaseColumns();
  for (Column& col : columns) {
    std::shared_ptr<const CountMinSketch> sidecar;
    if (col.support() > min_support) {
      SWOPE_ASSIGN_OR_RETURN(CountMinSketch sketch,
                             BuildColumnSketch(col, epsilon, delta, seed));
      sidecar = std::make_shared<const CountMinSketch>(std::move(sketch));
    }
    col = std::move(col).WithSketch(std::move(sidecar));
  }
  return Table::Make(std::move(columns));
}

}  // namespace swope

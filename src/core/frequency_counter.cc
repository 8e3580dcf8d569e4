#include "src/core/frequency_counter.h"

#include "src/common/math.h"

namespace swope {

FrequencyCounter::FrequencyCounter(uint32_t support,
                                   std::pmr::memory_resource* memory)
    : counts_(support, 0,
              memory != nullptr ? memory : std::pmr::get_default_resource()) {}

double FrequencyCounter::SampleEntropy() const {
  return EntropyFromCounts(counts_.data(), counts_.size(), sample_count_);
}

}  // namespace swope
